"""Atom covers, constructibility certificates, and closure operations."""
import pytest

import point_oracle as oracle
from mschemes.constructible import (
    _sum_decomposition,
    boolean_difference,
    boolean_intersect,
    decide_constructible,
    enumerate_atoms,
    extend_subspace,
    find_constructible_prefix,
    intersect_with_carrier,
    verify_certificate,
)
from mschemes.errors import DepthExhausted, PreconditionUnmet
from mschemes.gf_linalg import Field, span_points
from mschemes.instances import affine_coset_scheme, gl_orbit_scheme, mul_coset_scheme


def test_atoms_are_block_images(gl2_m3):
    atoms = list(enumerate_atoms(gl2_m3, 1))
    part = gl2_m3.level(1)
    # zero map + identity over every block
    assert len(atoms) == 2 * part.num_blocks
    pts = {frozenset(a.points) for a in atoms}
    assert frozenset({0}) in pts  # zero map image
    assert frozenset(gl2_m3.s_codes) in pts  # identity on the single orbit


def test_block_unions_constructible_at_arity_1(gl2_m3, trivial_m3):
    # whole carrier: always a union of level-1 blocks
    for sch in (gl2_m3, trivial_m3):
        cert = decide_constructible(sch, sch.s_codes, 1)
        assert cert is not None and verify_certificate(sch, cert)
        assert cert.points == frozenset(sch.s_codes)
    # single point of the finest scheme
    cert = decide_constructible(trivial_m3, [2], 1)
    assert cert is not None and verify_certificate(trivial_m3, cert)


def test_non_block_union_not_constructible(gl2_m3):
    # a proper nonzero subset of the single orbit has no arity-1 certificate
    assert decide_constructible(gl2_m3, [1], 1) is None


def test_verify_rejects_tampered_certificate(trivial_m3):
    a = decide_constructible(trivial_m3, [1, 2], 1)
    b = decide_constructible(trivial_m3, [1], 1)
    tampered = type(a)(a.k, a.prefix, a.entries, b.points)
    assert not verify_certificate(trivial_m3, tampered)


def test_boolean_operations(trivial_m3):
    a = decide_constructible(trivial_m3, [1, 2], 1)
    b = decide_constructible(trivial_m3, [2, 3], 1)
    inter = boolean_intersect(trivial_m3, a, b)
    assert inter.points == frozenset({2}) and verify_certificate(trivial_m3, inter)
    diff = boolean_difference(trivial_m3, a, b)
    assert diff.points == frozenset({1}) and verify_certificate(trivial_m3, diff)
    deep_a = type(a)(2, a.prefix, a.entries, a.points)
    with pytest.raises(PreconditionUnmet):
        boolean_intersect(trivial_m3, deep_a, type(b)(2, b.prefix, b.entries, b.points))


def test_intersect_with_carrier(trivial_m3):
    cert = decide_constructible(trivial_m3, [1, 3], 1)
    ids = intersect_with_carrier(trivial_m3, cert)
    got = {int(trivial_m3.s_codes[i])
           for b in ids for i in trivial_m3.level(1).blocks()[b]}
    assert got == {1, 3}


def test_find_constructible_prefix(gl2_m3):
    # {x} is not constructible on the base scheme, but is on the fibre at x
    hit = find_constructible_prefix(gl2_m3, [1], 1, 1)
    assert hit is not None
    x, cert = hit
    assert cert.points == frozenset({1})
    assert verify_certificate(gl2_m3.fiber(x), cert)
    with pytest.raises(DepthExhausted):
        find_constructible_prefix(gl2_m3, [1], 1, gl2_m3.m)


def test_extend_subspace():
    # carrier: coset e_2 + U with U = <e_0, e_1> inside F_2^4 (marker coord 3)
    sch = affine_coset_scheme(4, (0, 1), 2, m=12)
    f = sch.field
    zero_cert = decide_constructible(sch, [0], 1)
    assert zero_cert is not None
    # extend {0} to U itself: every basis vector is a 2-fold cone sum
    target = sorted(int(c) for c in span_points(f, [oracle.sub(f, c, sch.s_codes[0])
                                                    for c in sch.s_codes]))
    prefix, cert = extend_subspace(sch, zero_cert, target, 2)
    assert cert.points == frozenset(target)
    assert verify_certificate(sch.fiber(prefix), cert)


def _sum_layers_oracle(sch, t):
    """Breadth-first layers of r-fold sums, r <= t, with parent pointers, by
    the defining scalar loops."""
    f = sch.field
    layers = [{0: None}]
    for _ in range(t):
        nxt = {}
        for val in layers[-1]:
            for c in sch.s_codes:
                for lam in range(f.ell):
                    new = oracle.add(f, val, oracle.smul(f, lam, c))
                    if new not in nxt:
                        nxt[new] = (val, lam, c)
        layers.append(nxt)
    return layers


@pytest.mark.parametrize("make", [
    lambda: affine_coset_scheme(4, (0, 1), 2, m=12),
    lambda: mul_coset_scheme(5, 2, 6, 0, 0, m=3),
], ids=["coset-f2", "mulcoset-f5"])
def test_sum_decomposition_matches_scalar_loops(make):
    sch = make()
    f = sch.field
    for t in (1, 2, 3):
        layers = _sum_layers_oracle(sch, t)
        for target in range(f.q):
            terms = _sum_decomposition(sch, target, t)
            if target not in layers[t]:
                assert terms is None
                continue
            expect, cur = [], target
            for r in range(t, 0, -1):
                cur, lam, c = layers[r][cur]
                expect.append((lam, c))
            assert terms == expect[::-1]


def test_extend_subspace_preconditions(trivial_m3):
    cert = decide_constructible(trivial_m3, [1], 1)
    # {1} is not a subspace (missing 0)
    with pytest.raises(Exception):
        extend_subspace(trivial_m3, cert, [0, 1], 1)
