"""Atom covers, constructibility certificates and the prefix search."""
import itertools
import random

import numpy as np
import pytest

import atom_oracle
from mschemes import constructible, instances
from mschemes.constructible import (
    Certificate,
    _atom_index,
    decide_constructible,
    find_constructible_arities,
    find_constructible_prefix,
    verify_certificate,
)
from mschemes.errors import CapExceeded, DepthExhausted, MSchemeError
from mschemes.gf_linalg import Field, linmap, span_points
from mschemes.group_orbits import MatrixGroup, build_orbit_scheme, gl_group, trivial_group
from mschemes.instances import affine_coset_scheme, gl_orbit_scheme
from mschemes.refine import enumerate_subspaces, find_constructible
from mschemes.scheme_core import Scheme, SchemeInstance, TuplePartition

BUILDERS = {
    "gl2-m3": lambda: instances.gl_orbit_scheme(2, 2, 3),
    # a backend-free copy: every level given, prefixes decided one by one
    "gl2-lazy-m3": lambda: Scheme.from_json(instances.gl_orbit_scheme(2, 2, 3).to_json()),
    "gl-f3-m3": lambda: instances.gl_orbit_scheme(3, 2, 3),
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


def _assert_index_matches_oracle(sch, k, index):
    """The complete arity-k index holds `atom_oracle.enumerate_atoms`' atoms,
    map for map, in the flat layout."""
    assert index.complete
    nb = index.num_blocks
    assert nb == sch.level(k).num_blocks
    # flat layout: atom a = i * nb + b is tau_i(D_b), its codes one run
    assert len(index.sizes) == len(index.starts) == len(index.maps) * nb
    assert np.array_equal(index.starts, np.cumsum(index.sizes) - index.sizes)
    assert index.sizes.sum() == len(index.codes)
    atoms = [index.codes[lo:lo + size]
             for lo, size in zip(index.starts.tolist(), index.sizes.tolist())]
    want = list(atom_oracle.enumerate_atoms(sch, k))
    assert [(a.tau, a.block) for a in want] == [
        (index.maps[a // nb], a % nb) for a in range(len(atoms))]
    assert [a.points for a in want] == [frozenset(atom.tolist()) for atom in atoms]
    assert all(np.all(np.diff(atom) > 0) for atom in atoms)


@pytest.mark.parametrize("label", ["gl-f3-m3", "singer7-m3", "mul-coset-m2"])
def test_atom_index_matches_oracle(label):
    sch = BUILDERS[label]()
    for k in range(1, sch.m + 1):
        index = _atom_index(sch, k)
        # every tau in one batch
        index._extend(sch.field, sch.instance.tuples_array(k), index.size)
        _assert_index_matches_oracle(sch, k, index)


@pytest.mark.parametrize("split", ["ones", "doubling", "random"])
@pytest.mark.parametrize("label", ["gl-f3-m3", "singer7-m3", "mul-coset-m2"])
def test_atom_index_in_every_batch_split_matches_oracle(label, split):
    # batches of one tau, the 1 + 1 + 2 + 4 + ... taus of decide_constructible,
    # or seeded sizes of 1 to 5 taus (test_atom_index_matches_oracle takes
    # every tau in one batch)
    sch = BUILDERS[label]()
    rng = random.Random(label)
    for k in range(1, sch.m + 1):
        index = _atom_index(sch, k)
        tuples = sch.instance.tuples_array(k)
        batches = []
        while not index.complete:
            count = {"ones": 1, "doubling": max(1, len(index.maps)),
                     "random": rng.randint(1, 5)}[split]
            before = len(index.maps)
            index._extend(sch.field, tuples, count)
            batches.append(len(index.maps) - before)
            assert batches[-1] == min(count, index.size - before)
        if split == "ones":
            assert batches == [1] * index.size
        _assert_index_matches_oracle(sch, k, index)


def test_decide_matches_oracle_beyond_one_apply_slice():
    # 3^11 = 177147 tuples: the index maps S^11 in three slices of 2^16
    sch = instances.gl_orbit_scheme(2, 2, 11)
    for target in (sch.s_codes, [0], [0, *sch.s_codes]):
        want = atom_oracle.decide(sch, target, 11)
        assert _cert_key(decide_constructible(sch, target, 11)) == _cert_key(want)
    # and in batches of one tau: 2^18 // 3^11 is 0
    index = _atom_index(sch, 11)
    built = len(index.maps)
    assert not index.complete
    index._extend(sch.field, sch.instance.tuples_array(11), index.size)
    assert len(index.maps) == built + 1


def test_atom_index_grows_only_as_far_as_the_cover():
    # the index grows in batches of 1, 1, 2, 4, ... taus, each as large as
    # the index, to the first batch boundary at or past the cover
    sch = instances.trivial_scheme(2, 2, 3)
    # (x, y) -> y is the second map at arity 2, and the blocks are singletons
    cert = decide_constructible(sch, [1], 2)
    assert [(tau.coeffs, b) for tau, b in cert.entries] == [(((0,), (1,)), 0)]
    index = _atom_index(sch, 2)
    assert len(index.maps) == 2 < index.size == 4
    # S = {1} in F_3, one tuple (1, 1): (x, y) -> 2y, the third of 9 maps,
    # is the first to reach {2}, and the boundary past it is the fourth
    sch = build_orbit_scheme(trivial_group(Field(3, 1)), (1,), 2)
    cert = decide_constructible(sch, [2], 2)
    assert [(tau.coeffs, b) for tau, b in cert.entries] == [(((0,), (2,)), 0)]
    index = _atom_index(sch, 2)
    assert len(index.maps) == 4 < index.size == 9


def test_decide_on_a_partly_grown_index_matches_oracle():
    # each decision grows the index to the first batch boundary at or past
    # its cover (1, 2, 4, ... taus), or not at all where it is covered
    cases = [
        # S = {1, 2} in F_2^2, every tuple its own block: {1} is covered by
        # the second map (x, y) -> y, {3} = {1 + 2} only by the fourth, x + y
        (Field(2, 2), (1, 2),
         [([1], 2), ([0, 3], 4), ([1], 4), ([3, 1], 4), ([1, 2, 3], 4)]),
        # S = {1} in F_3: {0} by the first map, {1} by the second, y, and
        # {2} by the third, 2y, which the batch of the third and fourth builds
        (Field(3, 1), (1,),
         [([0], 1), ([1], 2), ([0, 1], 2), ([2], 4), ([0, 2], 4), ([3], 4)]),
    ]
    for field, seeds, steps in cases:
        sch = build_orbit_scheme(trivial_group(field), seeds, 3)
        index = _atom_index(sch, 2)
        for target, grown in steps:
            want = atom_oracle.decide(sch, target, 2)
            got = decide_constructible(sch, target, 2)
            assert len(index.maps) == grown, target
            if want is None:
                assert got is None, target
            else:
                assert _cert_key(got) == _cert_key(want), target
        assert index.complete == (field.ell == 2)


def test_decide_checks_tuple_cap_on_every_call():
    sch = instances.trivial_scheme(2, 2, 3)
    assert decide_constructible(sch, sch.s_codes, 2) is not None
    # the same scheme over a field whose cap is one below |S^2|
    field = Field(2, 2, cap_tuples=sch.instance.n ** 2 - 1)
    capped = build_orbit_scheme(trivial_group(field), sch.s_codes, 3)
    with pytest.raises(CapExceeded):
        decide_constructible(capped, capped.s_codes, 2)
    with pytest.raises(DepthExhausted):
        decide_constructible(capped, capped.s_codes, 4)


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


def test_find_constructible_prefix(gl2_m3):
    # {x} is not constructible on the base scheme, but is on the fibre at x
    hit = find_constructible_prefix(gl2_m3, [1], 1, 1)
    assert hit is not None
    x, cert = hit
    assert cert.points == frozenset({1})
    assert verify_certificate(gl2_m3.fiber(x), cert)
    with pytest.raises(DepthExhausted):
        find_constructible_prefix(gl2_m3, [1], 1, gl2_m3.m)


def _serial_scan(sch, target, k, prefix_len, prefix_cap):
    """find_constructible_prefix by its definition: atom_oracle.decide on
    each fibre in product order, with decide_constructible alongside, whose
    index growth the search must reproduce on a scheme without a backend."""
    for count, x in enumerate(itertools.product(sch.s_codes, repeat=prefix_len)):
        if prefix_cap is not None and count >= prefix_cap:
            return None
        fib = sch.fiber(x)
        want = atom_oracle.decide(fib, target, k)
        got = decide_constructible(fib, target, k)
        assert (got is None) == (want is None)
        if want is not None:
            return x, want
    return None


def _built_state(sch, k, prefix_len):
    """Per built fibre of the prefix length, how many taus its arity-k atom
    index holds (None without one)."""
    state = {}
    for x in itertools.product(sch.s_codes, repeat=prefix_len):
        fib = sch._fiber_cache.get(x)
        if fib is not None:
            index = fib.atom_indexes.get(k)
            state[x] = None if index is None else len(index.maps)
    return state


def _least_prefixes(sch, prefix_len):
    """The least prefix of each orbit of the group on S^prefix_len: the least
    member of each level-prefix_len block."""
    part = sch.level(prefix_len)
    s = sch.s_codes
    n = len(s)
    return {tuple(s[i // n ** j % n] for j in range(prefix_len - 1, -1, -1))
            for i in part.order[part.starts].tolist()}


def _check_orbit_fibres(sch, k, prefix_len, before, after):
    """A search on a scheme with a backend builds fibres of this length only
    at orbit representatives (least prefixes), each with a complete arity-k
    index, and leaves every other fibre as it was."""
    reps = _least_prefixes(sch, prefix_len)
    complete = sch.field.ell ** k
    for x, taus in after.items():
        if x not in before or before[x] != taus:
            assert x in reps and taus == complete, (x, before.get(x), taus)


def _warm(sch, k, prefix_len, how):
    """Build no fibre (cold), every fibre with a complete index (warm), or
    the fibres of even scan positions i with an index of i % 4 taus, or all
    of them if fewer (mixed)."""
    if how == "cold":
        return
    tuples = sch.instance.tuples_array(k)
    for i, x in enumerate(itertools.product(sch.s_codes, repeat=prefix_len)):
        if how == "mixed" and i % 2:
            continue
        index = _atom_index(sch.fiber(x), k)
        while not index.complete and (how == "warm" or len(index.maps) < i % 4):
            index._extend(sch.field, tuples,
                          index.size if how == "warm" else i % 4 - len(index.maps))


def _three_orbit_scheme():
    """The coordinate 3-cycle on F_2^3, lazily, on S = {0} ∪ its orbits of
    1 and 3: three orbits on S."""
    field = Field(2, 3)
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    return build_orbit_scheme(MatrixGroup.from_matrices(field, [cycle]), [0, 1, 3], 4)


SEARCH_BUILDERS = {
    "gl3-lazy-m4": lambda: instances.gl_orbit_scheme(2, 3, 4),
    "gl3-m3": lambda: instances.gl_orbit_scheme(2, 3, 3),
    # no group: the search decides its prefixes one by one
    "gl3-json-m3": lambda: Scheme.from_json(instances.gl_orbit_scheme(2, 3, 3).to_json()),
    # S spans 3 of the 4 dimensions
    "affine-lazy-m4": lambda: affine_coset_scheme(4, [0, 1], 2, 4),
    "three-orbit-lazy-m4": _three_orbit_scheme,
    # a fibre, whose backend is a conjugate of a point stabilizer
    "gl3-fibre-m4": lambda: instances.gl_orbit_scheme(2, 3, 5).fiber((3,)),
}

SEARCH_POSITIONS = {
    "gl3-lazy-m4": {None, 0, 3, 6},
    "gl3-m3": {None, 0, 3, 6},
    "gl3-json-m3": {None, 0, 3, 6},
    "affine-lazy-m4": {None, 0},
    "three-orbit-lazy-m4": {None, 0, 1},
    "gl3-fibre-m4": {None, 0, 3},
}


@pytest.mark.parametrize("how", ["cold", "warm", "mixed"])
@pytest.mark.parametrize("label", sorted(SEARCH_BUILDERS))
def test_prefix_search_matches_serial_oracle_scan(label, how):
    make = SEARCH_BUILDERS[label]
    probe = make()
    s, q = probe.s_codes, probe.field.q
    # on GL(3, 2), with S the 7 nonzero points: {4} hits at the fourth prefix
    # (mid-run on a warm scheme), {0, 4, 5} at the fourth of length 2, and
    # {2, 3, 4} misses on every fibre
    targets = [frozenset(), frozenset({4}), frozenset({q}), frozenset({-1, s[0]}),
               frozenset({0, 4, 5}), frozenset({1, 2}), frozenset({2, 3, 4}),
               frozenset({s[-1]})]
    outside = sorted(set(range(q)) - set(span_points(probe.field, s)))
    if outside:  # a point of S and one outside span(S)
        targets.append(frozenset({s[0], outside[0]}))
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    positions = set()
    for prefix_len, k in shapes:
        if prefix_len + k > probe.m:
            continue
        order = list(itertools.product(s, repeat=prefix_len))
        for cap in (None, 0, 1, 24):
            serial, batched = make(), make()
            _warm(serial, k, prefix_len, how)
            _warm(batched, k, prefix_len, how)
            for target in targets:
                want = _serial_scan(serial, target, k, prefix_len, cap)
                before = _built_state(batched, k, prefix_len)
                got = find_constructible_prefix(batched, sorted(target), k, prefix_len, cap)
                key = (prefix_len, k, cap, sorted(target))
                if want is None:
                    assert got is None, key
                    positions.add(None)
                else:
                    assert got[0] == want[0], key
                    assert _cert_key(got[1]) == _cert_key(want[1]), key
                    positions.add(order.index(want[0]))
                if batched.backend is None:
                    assert _built_state(batched, k, prefix_len) == _built_state(
                        serial, k, prefix_len), key
                else:
                    _check_orbit_fibres(probe, k, prefix_len, before,
                                        _built_state(batched, k, prefix_len))
    # hits on the first prefix and past it, and misses; translations fix no
    # point, so every fibre of the affine scheme is the finest scheme, and a
    # target there hits at the first prefix or at none
    assert SEARCH_POSITIONS[label] <= positions


def test_prefix_search_builds_one_fibre_per_orbit_on_gl42():
    # the 67 subspaces of F_2^4, searched as the structure benchmark does:
    # prefixes of length <= 2, arities <= 2, 24 prefixes per length
    sch = gl_orbit_scheme(2, 4, 30)
    subspaces = enumerate_subspaces(sch.field, sch.s_codes)
    assert len(subspaces) == 67
    found = [find_constructible(sch, sorted(sub), 2, 2, 24) for sub in subspaces]
    for prefix_len in (1, 2):
        built = {x for x in itertools.product(sch.s_codes, repeat=prefix_len)
                 if sch._fiber_cache.get(x) is not None}
        assert built <= _least_prefixes(sch, prefix_len)
    assert sum(hit is not None for hit in found) > 0
    fresh = gl_orbit_scheme(2, 4, 30)
    for sub, hit in zip(subspaces, found):
        if hit is not None:
            assert hit["cert"].points == sub
            assert verify_certificate(fresh.fiber(hit["prefix"]), hit["cert"])


def test_prefix_search_builds_nothing_for_targets_that_need_no_atoms():
    # affine_coset_scheme(4, [0, 1], 2, 4): S spans 3 of the 4 dimensions
    sch = affine_coset_scheme(4, [0, 1], 2, 4)
    outside = min(set(range(sch.field.q)) - set(span_points(sch.field, sch.s_codes)))
    s0 = sch.s_codes[0]
    for k, prefix_len in ((1, 1), (2, 1), (1, 2)):
        x, cert = find_constructible_prefix(sch, [], k, prefix_len)
        assert x == (s0,) * prefix_len and cert.entries == [] and cert.points == frozenset()
        assert (cert.k, cert.prefix) == (k, x)
        for target in ([s0, outside], [s0, sch.field.q], [-1]):
            assert find_constructible_prefix(sch, target, k, prefix_len) is None
    assert not sch._fiber_cache and not sch.atom_indexes and not sch.transporters
    assert find_constructible_prefix(sch, [], 1, 1, prefix_cap=0) is None
    # the tuple cap still holds for every prefix decided: |S^2| = 49 > 48
    capped = build_orbit_scheme(gl_group(Field(2, 3, cap_tuples=48)), [1], 4)
    for target in ([], [1, 8]):
        with pytest.raises(CapExceeded):
            find_constructible_prefix(capped, target, 2, 1)


def test_prefix_search_checks_tuple_cap_on_built_fibres():
    sch = instances.gl_orbit_scheme(2, 3, 4)
    _warm(sch, 2, 1, "warm")
    # {2, 3, 4} misses on every fibre, so no decide_constructible runs
    assert find_constructible_prefix(sch, [4], 2, 1) is not None
    assert find_constructible_prefix(sch, [2, 3, 4], 2, 1) is None
    # the same scheme over a field whose cap is one below |S^2|, every
    # prefix-1 fibre built (building a fibre enumerates no tuples)
    field = Field(2, 3, cap_tuples=sch.instance.n ** 2 - 1)
    capped = build_orbit_scheme(gl_group(field), [1], 4)
    for x in capped.s_codes:
        capped.fiber((x,))
    for target in ([4], [2, 3, 4]):
        with pytest.raises(CapExceeded):
            find_constructible_prefix(capped, target, 2, 1)


# the builders above whose schemes have no backend
EXPLICIT = {"gl2-lazy-m3", "gl3-json-m3"}
ORBIT_BUILDERS = {label: make for label, make in {**BUILDERS, **SEARCH_BUILDERS}.items()
                  if label not in EXPLICIT}


@pytest.mark.parametrize("label", sorted(ORBIT_BUILDERS))
def test_arity_k_atoms_are_arity_k_plus_1_atoms(label):
    # P1 maps each level-(k+1) block D' over D onto D under pi, the map
    # dropping the last coordinate, so tau(D) = (tau∘pi)(D') is an atom at
    # arity k + 1: the lemma the search's largest-arity-first scan rests on
    sch = ORBIT_BUILDERS[label]()
    assert sch.backend is not None
    checked = 0
    for prefix_len in range(3):
        for x in itertools.product(sch.s_codes, repeat=prefix_len):
            if prefix_len + 2 > sch.m:
                break
            fib = sch.fiber(x)
            atoms = [{a.points for a in atom_oracle.enumerate_atoms(fib, k)}
                     for k in range(1, min(3, fib.m) + 1)]
            for smaller, larger in zip(atoms, atoms[1:]):
                assert smaller <= larger, (x, len(smaller - larger))
                checked += 1
    assert checked


def test_explicit_scheme_breaking_p1_keeps_the_stage_order():
    # S = {1, 2, 4} in F_2^3, level 1 discrete, levels 2 and 3 one block
    # each: the projection of S^2 is S, no level-1 block, so P1 fails, and
    # the arity-1 atom {1} is no arity-2 atom
    inst = SchemeInstance(Field(2, 3), (1, 2, 4))
    sch = Scheme(inst, 3, levels=[
        TuplePartition.from_raw(inst, 1, np.arange(3)),
        TuplePartition.from_raw(inst, 2, np.zeros(9, dtype=np.int64)),
        TuplePartition.from_raw(inst, 3, np.zeros(27, dtype=np.int64)),
    ])
    assert not sch.validate().ok
    assert decide_constructible(sch, [1], 1) is not None
    assert decide_constructible(sch, [1], 2) is None
    found = find_constructible(sch, [1], 2, 1)
    assert (found["prefix"], found["arity"]) == ((), 1)
    assert _cert_key(found["cert"]) == _cert_key(atom_oracle.decide(sch, [1], 1))
    # deciding arity 2 first would miss {1} at arity 1: without a backend,
    # so without P1, the search decides each stage on its own
    assert find_constructible_arities(sch, [1], (1, 2), 0) is None


def test_prefix_zero_decides_each_arity_and_walks_one_cover(monkeypatch):
    # on GL(4, 2), {0} and F_2^4 hit at arity 2 and at arity 1 without a
    # prefix: both arities are decided, and only the arity-1 cover is walked
    targets = ([0], list(range(16)))
    fresh = gl_orbit_scheme(2, 4, 30)
    want = [atom_oracle.find_constructible_in_order(fresh, t, 2, 0) for t in targets]
    sch = gl_orbit_scheme(2, 4, 30)
    walked = []
    greedy = constructible._greedy_entries

    def counted(index, *args):
        walked.append(index)
        return greedy(index, *args)

    monkeypatch.setattr(constructible, "_greedy_entries", counted)
    for target, hit in zip(targets, want):
        k, x, cert = find_constructible_arities(sch, target, (1, 2), 0)
        assert (x, k) == (hit["prefix"], hit["arity"]) == ((), 1)
        assert _cert_key(cert) == _cert_key(hit["cert"])
        assert walked == [sch.atom_indexes[1]] and 2 in sch.atom_indexes
        walked.clear()


def _search_outcome(search, sch, target, max_arity, max_prefix, cap):
    """What a search returns, as (prefix, arity, certificate), or the type
    of the library error it raises."""
    try:
        found = search(sch, sorted(target), max_arity, max_prefix, cap)
    except MSchemeError as exc:
        return type(exc)
    if found is None:
        return None
    cert = found["cert"]
    return found["prefix"], found["arity"], cert.describe(), cert.points


ORACLE_SCHEMES = {
    "gl42-m30": lambda: gl_orbit_scheme(2, 4, 30),
    "gl23-m6": lambda: gl_orbit_scheme(2, 3, 6),
    "gl32-m6": lambda: gl_orbit_scheme(3, 2, 6),
    "gl25-m8": lambda: gl_orbit_scheme(2, 5, 8),
    "affine-m6": lambda: affine_coset_scheme(4, [0, 1], 2, 6),
}


@pytest.mark.parametrize("label", sorted(ORACLE_SCHEMES))
def test_search_matches_stage_order_oracle(label):
    make = ORACLE_SCHEMES[label]
    sch, oracle_sch = make(), make()
    rng = random.Random(f"search:{label}")
    q, s = sch.field.q, list(sch.s_codes)
    span = span_points(sch.field, s).tolist()
    targets = enumerate_subspaces(sch.field, s)
    targets += [frozenset(), frozenset({-1}), frozenset({q}), frozenset({s[0], q})]
    outside = sorted(set(range(q)) - set(span))
    if outside:
        targets.append(frozenset({s[0], outside[0]}))
    for _ in range(12):
        targets.append(frozenset(rng.sample(span, rng.randint(1, len(span)))))
    seen = set()
    for max_arity in (2, 3):
        for max_prefix in (0, 1, 2):
            # a prefix cap changes nothing when no prefix is scanned
            for cap in (None, 0, 1, 24) if max_prefix else (None,):
                for target in targets:
                    args = (target, max_arity, max_prefix, cap)
                    want = _search_outcome(atom_oracle.find_constructible_in_order,
                                           oracle_sch, *args)
                    got = _search_outcome(find_constructible, sch, *args)
                    assert got == want, (max_arity, max_prefix, cap, sorted(target))
                    seen.add(want if want is None else want[:2])
    # hits at prefix length 0 and past it, and misses
    assert None in seen and ((), 1) in seen and any(len(hit[0]) for hit in seen if hit)


@pytest.mark.parametrize("cap, max_arity, hit", [
    # admits q = 8 >= |S| but not |S|^2: S hits at (0, 1) before arity 2
    # trips it
    (8, 2, ((), 1)),
    # admits |S|^2 but not |S|^3: {1} hits at (1, 1) before arity 3 trips it
    (49, 3, ((1,), 1)),
])
def test_search_decides_in_stage_order_where_a_larger_arity_trips_a_cap(cap, max_arity,
                                                                        hit):
    def make():
        return build_orbit_scheme(gl_group(Field(2, 3, cap_tuples=cap)), [1], 4)

    target = frozenset(make().s_codes) if hit == ((), 1) else frozenset({1})
    for points in (target, frozenset({2, 3, 4})):
        args = (points, max_arity, 1, None)
        want = _search_outcome(atom_oracle.find_constructible_in_order, make(), *args)
        assert _search_outcome(find_constructible, make(), *args) == want
        if points == target:
            assert want[:2] == hit
        else:  # a miss reaches the stage whose arity trips the cap
            assert want is CapExceeded
