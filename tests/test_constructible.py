"""Atom covers, constructibility certificates, and closure operations."""
import random

import numpy as np
import pytest

import atom_oracle
import point_oracle as oracle
from mschemes import instances
from mschemes.constructible import (
    Certificate,
    _atom_index,
    _restrict_entries,
    _sum_decomposition,
    boolean_difference,
    boolean_intersect,
    decide_constructible,
    extend_subspace,
    find_constructible_prefix,
    intersect_with_carrier,
    verify_certificate,
)
from mschemes.errors import CapExceeded, DepthExhausted, NotBlockUnion, PreconditionUnmet
from mschemes.gf_linalg import Field, linmap, span_points
from mschemes.instances import affine_coset_scheme, gl_orbit_scheme, mul_coset_scheme

BUILDERS = {
    "gl2-m3": lambda: instances.gl_orbit_scheme(2, 2, 3, lazy=False),
    "gl2-lazy-m3": lambda: instances.gl_orbit_scheme(2, 2, 3),
    "gl-f3-m3": lambda: instances.gl_orbit_scheme(3, 2, 3, lazy=False),
    "singer7-m3": lambda: instances.singer_scheme(2, 3, 3),
    "trivial-m3": lambda: instances.trivial_scheme(2, 2, 3),
    "c11c5-m2": lambda: instances.c11_c5_scheme(2),
    "c31c5-m2": lambda: instances.c31_c5_scheme(2),
    "signed-perm-m3": lambda: instances.signed_perm_scheme(2, 3),
    "affine-coset-m3": lambda: instances.affine_coset_scheme(4, [1, 2], 0, 3),
    "mul-coset-m2": lambda: instances.mul_coset_scheme(5, 2, 6, 1, 0, 2),
}


def _targets(sch, k, rng):
    """Point sets to decide on a scheme at arity k: the empty set, the
    carrier, level-1 block unions, atom unions, atoms with a point added or
    removed, random sets, and sets with a code outside [0, q)."""
    q = sch.field.q
    s = list(sch.s_codes)
    atoms = [a.points for a in atom_oracle.enumerate_atoms(sch, k)]
    level1 = [frozenset(sch.level1_block_set(b)) for b in range(sch.level(1).num_blocks)]
    out = [frozenset(), frozenset(s), frozenset(s) | {q}, frozenset({-1, s[0]}),
           level1[-1], frozenset().union(*rng.sample(level1, min(2, len(level1))))]
    for _ in range(3):
        out.append(frozenset().union(*rng.sample(atoms, rng.randint(1, min(3, len(atoms))))))
    big = max(atoms, key=len)
    out.append(big - {min(big)})
    out.append(big | {rng.choice([c for c in range(q) if c not in big])})
    for _ in range(3):
        out.append(frozenset(rng.sample(range(q), rng.randint(1, min(q, 2 * len(s))))))
    return out


def _cert_key(cert):
    return (cert.k, cert.prefix, [(tau.coeffs, b) for tau, b in cert.entries],
            cert.points)


@pytest.mark.parametrize("label", sorted(BUILDERS))
def test_decide_matches_frozenset_oracle(label):
    sch = BUILDERS[label]()
    rng = random.Random(label)
    s = sch.s_codes
    hits = misses = 0
    for fib in (sch, sch.fiber((s[0],)), sch.fiber((s[-1],))):
        for k in range(1, min(fib.m, 3) + 1):
            for target in _targets(fib, k, rng):
                want = atom_oracle.decide(fib, target, k)
                first = decide_constructible(fib, sorted(target), k)
                again = decide_constructible(fib, sorted(target), k)
                if want is None:
                    assert first is None and again is None, (fib.prefix, k, target)
                    misses += 1
                    continue
                assert _cert_key(first) == _cert_key(want), (fib.prefix, k, target)
                assert _cert_key(again) == _cert_key(want)
                assert verify_certificate(fib, first)
                hits += 1
    assert hits and misses


@pytest.mark.parametrize("label", ["gl-f3-m3", "singer7-m3", "mul-coset-m2"])
def test_atom_index_matches_oracle(label):
    sch = BUILDERS[label]()
    for k in range(1, sch.m + 1):
        index = _atom_index(sch, k)
        tuples = sch.instance.tuples_array(k)
        while len(index.maps) < index.size:
            index._extend(sch.field, tuples)
        atoms = [codes[lo:lo + size]
                 for codes, starts, sizes in zip(index.codes, index.starts, index.sizes)
                 for lo, size in zip(starts.tolist(), sizes.tolist())]
        want = list(atom_oracle.enumerate_atoms(sch, k))
        assert [(a.tau, a.block) for a in want] == [
            (tau, b) for tau in index.maps for b in range(sch.level(k).num_blocks)]
        assert [a.points for a in want] == [frozenset(atom.tolist()) for atom in atoms]
        assert all(np.all(np.diff(atom) > 0) for atom in atoms)


def test_decide_matches_oracle_beyond_one_apply_slice():
    # 3^11 = 177147 tuples: the index maps S^11 in three slices of 2^16
    sch = instances.gl_orbit_scheme(2, 2, 11)
    for target in (sch.s_codes, [0], [0, *sch.s_codes]):
        want = atom_oracle.decide(sch, target, 11)
        assert _cert_key(decide_constructible(sch, target, 11)) == _cert_key(want)


def test_atom_index_grows_only_as_far_as_the_cover():
    sch = instances.trivial_scheme(2, 2, 3)
    # (x, y) -> y is the second map at arity 2, and the blocks are singletons
    cert = decide_constructible(sch, [1], 2)
    assert [(tau.coeffs, b) for tau, b in cert.entries] == [(((0,), (1,)), 0)]
    index = _atom_index(sch, 2)
    assert len(index.maps) == 2 < index.size == 4


def test_decide_checks_tuple_cap_on_every_call(monkeypatch):
    sch = instances.trivial_scheme(2, 2, 3)
    assert decide_constructible(sch, sch.s_codes, 2) is not None
    monkeypatch.setenv("MSCHEME_CAP_TUPLES", str(sch.instance.n ** 2 - 1))
    with pytest.raises(CapExceeded):
        decide_constructible(sch, sch.s_codes, 2)
    with pytest.raises(DepthExhausted):
        decide_constructible(sch, sch.s_codes, 4)


def test_atoms_are_block_images(gl2_m3):
    atoms = list(atom_oracle.enumerate_atoms(gl2_m3, 1))
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


def test_verify_rejects_block_ids_outside_the_level(trivial_m3):
    # level 1 of the trivial scheme on S = (1, 2, 3): block b is {S[b]}
    ident = linmap([[1]])
    assert verify_certificate(trivial_m3, Certificate(1, (), [(ident, 2)], frozenset({3})))
    # -1 used to wrap to block 2 and pass; 3 used to raise a raw IndexError
    for b in (-1, 3, 7):
        assert not verify_certificate(
            trivial_m3, Certificate(1, (), [(ident, b)], frozenset({3})))
    assert not verify_certificate(
        trivial_m3, Certificate(1, (), [(ident, 2), (ident, -1)], frozenset({3})))
    # claimed points outside [0, q) are never reproduced
    for bad in (-1, trivial_m3.field.q):
        assert not verify_certificate(
            trivial_m3, Certificate(1, (), [(ident, 2)], frozenset({3, bad})))


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


def test_restrict_entries_splits_blocks_or_raises(trivial_m3, gl2_m3):
    a = decide_constructible(trivial_m3, [1, 2, 3], 1)
    # codes outside [0, q) in the kept set select nothing
    out = _restrict_entries(trivial_m3, a, [3, 1, -1, trivial_m3.field.q + 5])
    assert out.points == frozenset({1, 3}) and verify_certificate(trivial_m3, out)
    assert [b for _, b in out.entries] == [0, 2]
    # one point of the single nonzero GL(2) orbit is not a block union
    whole = decide_constructible(gl2_m3, gl2_m3.s_codes, 1)
    with pytest.raises(NotBlockUnion):
        _restrict_entries(gl2_m3, whole, [1])


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
    # entries in their recorded order: per scaling vector, the blocks of B x {prefix}
    assert prefix == (3, 7, 3, 11)
    assert [(tuple(row[0] for row in tau.coeffs), b) for tau, b in cert.entries] == [
        (col, b) for col in [(0, 0, 0, 0, 0), (0, 0, 0, 1, 1), (0, 1, 1, 0, 0), (0, 1, 1, 1, 1)]
        for b in (18, 274, 530, 786)]


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
