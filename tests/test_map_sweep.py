"""The map x block sweep against its per-block oracle: `validate` and
`generator_maps` agree with `scheme_oracle` on every instance builder, on
corrupted levels that show all four violation kinds, and at every early
stop, also when the chunk bound puts one map in each sweep record or splits
a (k, k') group mid-way.  Corruptions that keep a nontrivial group H_k of
block-preserving coordinate permutations give `validate` groups with a bad
orbit representative, which it then sweeps map by map; H_k, the orbit
representatives and the maps each group sweeps are checked directly."""
import itertools
import random

import numpy as np
import pytest

import scheme_oracle as oracle
from mschemes import gf_linalg, group_orbits, instances, scheme_core
from mschemes.antisym import GenStep, generator_maps, strong_antisym_check
from mschemes.errors import CapExceeded
from mschemes.gf_linalg import Field, enumerate_linmaps
from mschemes.scheme_core import Scheme, SchemeInstance, TuplePartition

BUILDERS = {
    "gl2-m3": lambda: instances.gl_orbit_scheme(2, 2, 3),
    # a backend-free copy: every level given, fibres sliced from them
    "gl2-lazy-m3": lambda: Scheme.from_json(instances.gl_orbit_scheme(2, 2, 3).to_json()),
    "gl3-m2": lambda: instances.gl_orbit_scheme(2, 3, 2),
    "gl-f3-m2": lambda: instances.gl_orbit_scheme(3, 2, 2),
    "singer7-m3": lambda: instances.singer_scheme(2, 3, 3),
    "trivial-m3": lambda: instances.trivial_scheme(2, 2, 3),
    "c11c5-m2": lambda: instances.c11_c5_scheme(2),
    "c31c5-m2": lambda: instances.c31_c5_scheme(2),
    "signed-perm-m2": lambda: instances.signed_perm_scheme(2, 2),
    "affine-coset-m2": lambda: instances.affine_coset_scheme(4, [1, 2], 0, 2),
    "mul-coset-m2": lambda: instances.mul_coset_scheme(5, 2, 6, 1, 0, 2),
}

KINDS = ("but also leaves it", "straddles", "covers only part", "fibre sizes")



def _key(v):
    return (v.k, v.kp, v.tau, v.src_block, v.describe())


def _same_report(got, want):
    assert (got.ok, got.checked_maps) == (want.ok, want.checked_maps)
    assert [_key(v) for v in got.violations] == [_key(v) for v in want.violations]


def _as_tuple_indices(sch, gens):
    """Generators in the oracle's shape: each mapping read back from
    positions in the destination block to the tuple indices there, and the
    coefficients as a forward GenStep."""
    return [(src, dst, tuple(sch.level(dst[0]).block(dst[1])[positions].tolist()),
             GenStep(gf_linalg.linmap(coeffs).coeffs, "fwd", src, dst))
            for src, dst, positions, coeffs in gens]


def _with_level(sch, k, raw):
    """sch with its level k replaced by the partition with block ids raw."""
    levels = {j: sch.level(j) for j in range(1, sch.m + 1)}
    levels[k] = TuplePartition.from_raw(sch.instance, k, raw)
    return Scheme(sch.instance, sch.m, levels=list(levels.values()))


def _corrupt(sch, seed):
    """Move a few tuples of one random level to other (or new) blocks."""
    rng = random.Random(seed)
    k = rng.choice(range(1, sch.m + 1))
    raw = sch.level(k).bid.copy()
    for _ in range(rng.choice([1, 2, 5])):
        raw[rng.randrange(len(raw))] = rng.randrange(sch.level(k).num_blocks + 1)
    return _with_level(sch, k, raw)


def _orbit_moved(sch, seed):
    """Move the whole Sym(k)-orbit of a random tuple of a random level
    k >= 2 to a new block: every coordinate permutation still carries
    blocks onto blocks."""
    rng = random.Random(seed)
    k = rng.randrange(2, sch.m + 1)
    n = sch.instance.n
    raw = sch.level(k).bid.copy()
    x = gf_linalg.radix_digits(rng.randrange(n ** k), n, k)
    orbit = [int(x[list(sigma)] @ gf_linalg.radix_weights(n, k))
             for sigma in itertools.permutations(range(k))]
    raw[orbit] = raw.max() + 1
    return _with_level(sch, k, raw)


def _level3_merged(sch, cyclic):
    """Merge a few tuples of S^3, given by S-positions, into one new block:
    (0, 1, 2) and (1, 0, 2), which the transposition (0 1) keeps and the
    other nontrivial permutations carry to tuples of other blocks; or the
    rotations of (0, 1, 2) and (0, 0, 1), which the 3-cycles keep and
    whose image under a transposition meets the merged block without
    being it."""
    members = ([(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
               if cyclic else [(0, 1, 2), (1, 0, 2)])
    raw = sch.level(3).bid.copy()
    raw[np.array(members) @ gf_linalg.radix_weights(sch.instance.n, 3)] = raw.max() + 1
    return _with_level(sch, 3, raw)


SUBGROUPS = {False: {(0, 1, 2), (1, 0, 2)}, True: {(0, 1, 2), (1, 2, 0), (2, 0, 1)}}


def _symmetric_corruptions():
    """(corrupted scheme, H_3 it keeps) on m = 3 builders."""
    gl2 = BUILDERS["gl2-m3"]()
    for seed in (0, 1, 3):  # seed 2 repeats seed 1's tuple
        yield _orbit_moved(gl2, seed), set(itertools.permutations(range(3)))
    for sch in (gl2, BUILDERS["singer7-m3"]()):
        for cyclic in (False, True):
            yield _level3_merged(sch, cyclic), SUBGROUPS[cyclic]


@pytest.mark.parametrize("label", sorted(BUILDERS))
def test_sweep_matches_oracle_on_every_builder(label):
    sch = BUILDERS[label]()
    rep = sch.validate()
    assert rep.ok
    _same_report(rep, oracle.validate(sch))
    assert _as_tuple_indices(sch, generator_maps(sch)) == oracle.generator_maps(sch)


def test_corrupted_levels_match_oracle_at_every_stop():
    _check_corrupted_levels()


def _check_corrupted_levels():
    kinds, early_stops = set(), set()
    for label in ("gl2-m3", "gl3-m2", "gl-f3-m2", "signed-perm-m2", "c11c5-m2"):
        sch = BUILDERS[label]()
        for seed in range(4):
            bad = _corrupt(sch, seed)
            for cap in (1, 3, 16):
                got, want = bad.validate(cap), oracle.validate(bad, cap)
                _same_report(got, want)
                assert len(got.violations) <= cap
            full = bad.validate(10 ** 6)
            _same_report(full, oracle.validate(bad, 10 ** 6))
            early_stops |= {cap for cap in (1, 3, 16) if len(full.violations) > cap}
            kinds |= {kind for v in full.violations for kind in KINDS if kind in v.detail}
            assert _as_tuple_indices(bad, generator_maps(bad)) == oracle.generator_maps(bad)
    assert kinds == set(KINDS) and early_stops == {1, 3, 16}
    for bad, h_3 in _symmetric_corruptions():
        assert set(bad.level(3).coordinate_symmetries) == h_3
        for cap in (1, 3, 16, 10 ** 6):
            _same_report(bad.validate(cap), oracle.validate(bad, cap))
        assert len(bad.validate(10 ** 6).violations) > 16


def test_validate_builds_one_linmap_per_violating_map(monkeypatch):
    bad = _corrupt(BUILDERS["gl2-m3"](), 0)
    want = oracle.validate(bad, 10 ** 6)
    calls = []

    def counted(coeffs):
        calls.append(coeffs)
        return gf_linalg.linmap(coeffs)

    monkeypatch.setattr(scheme_core, "linmap", counted)
    got = bad.validate(10 ** 6)
    _same_report(got, want)
    distinct = {v.tau for v in got.violations}
    assert len(got.violations) > len(distinct) > 1
    assert len(calls) <= len(distinct)


def test_mixed_in_s_violation_names_its_arity():
    # one block per level on S = {1, 2, 3} in F_2^2: x + y sends (1, 1) to
    # 0, outside S, and (1, 2) to 3, inside; (x, x + y) does the same in S^2
    inst = SchemeInstance(Field(2, 2), (1, 2, 3))
    levels = [TuplePartition.from_raw(inst, k, np.zeros(3 ** k, dtype=np.int64))
              for k in (1, 2)]
    bad = Scheme(inst, 2, levels=levels)
    rep = bad.validate(10 ** 6)
    _same_report(rep, oracle.validate(bad, 10 ** 6))
    mixed = [v for v in rep.violations if KINDS[0] in v.detail]
    assert {v.kp for v in mixed} == {1, 2}
    for v in mixed:
        assert v.detail.startswith(f"image meets S^{v.kp} but also leaves it (")


def test_sweep_columns_are_the_maps(gl2_m3):
    _check_sweep_columns(gl2_m3)


def _check_sweep_columns(sch):
    """The records of each (k, k') group cover its maps in order, within the
    chunk bound; their coeffs are enumerate_linmaps and their images tau
    applied with apply_batch, in block order.  Returns the records by group."""
    bound = scheme_core.SWEEP_CHUNK_ENTRIES
    inst = sch.instance
    groups = {}
    for sw in sch.map_sweep():
        groups.setdefault((sw.k, sw.kp), []).append(sw)
    assert list(groups) == [(k, kp) for k in (1, 2, 3) for kp in (1, 2, 3)]
    for (k, kp), sweeps in groups.items():
        n_k = inst.tuple_count(k)
        lens = [len(sw.coeffs) for sw in sweeps]
        assert all(t * n_k * kp <= max(bound, n_k * kp) for t in lens)
        taus = list(enumerate_linmaps(inst.field, k, kp))
        coeffs = np.concatenate([sw.coeffs for sw in sweeps])
        assert [gf_linalg.linmap(c.tolist()) for c in coeffs] == taus
        assert [sw.tau(t) for sw in sweeps for t in range(len(sw.coeffs))] == taus
        tuples = inst.tuples_array(k)[sch.level(k).order]
        want = np.stack([inst.tuple_indices(tau.apply_batch(inst.field, tuples))
                         for tau in taus])
        assert np.array_equal(np.concatenate([sw.images for sw in sweeps]), want)
    return groups


@pytest.mark.parametrize("chunk", [1, 200])
def test_small_chunk_bounds_keep_maps_and_reports(monkeypatch, gl2_m3, chunk):
    """One map per record, and a bound of 200 entries, which splits the
    (k, k') groups of gl2-m3 (n = 3) and gl3-m2 (n = 7) unevenly."""
    monkeypatch.setattr(scheme_core, "SWEEP_CHUNK_ENTRIES", chunk)
    groups = _check_sweep_columns(gl2_m3)
    assert len(groups[(1, 1)]) == (2 if chunk == 1 else 1)
    assert len(groups[(3, 3)]) == (512 if chunk == 1 else 256)
    _check_corrupted_levels()


def test_sweep_counts_against_map_cap(monkeypatch, gl2_m3):
    # 2^(2*2) = 16 maps 2->2 pass the default cap, not a cap of 15
    monkeypatch.setattr(gf_linalg, "DEFAULT_CAP_MAPS", 15)
    for run in (gl2_m3.validate, lambda: list(generator_maps(gl2_m3)),
                lambda: list(enumerate_linmaps(gl2_m3.field, 2, 2))):
        with pytest.raises(CapExceeded) as exc:
            run()
        assert exc.value.what == "linear maps 2->2"
        assert (exc.value.needed, exc.value.cap) == (16, 15)


def test_antisym_stops_before_groups_past_its_witness(monkeypatch, gl2_m3):
    # gl2-m3's witness is the 6th generator, found in the 2->2 group: a cap
    # of 63 stops the 64 maps 2->3 that validate reaches, not the check
    want = strong_antisym_check(gl2_m3)
    monkeypatch.setattr(gf_linalg, "DEFAULT_CAP_MAPS", 63)
    got = strong_antisym_check(gl2_m3)
    assert (got.status, got.maps_explored) == ("witness", 6) == (want.status, want.maps_explored)
    assert (got.witness.to_json(), got.witness.mapping) == \
        (want.witness.to_json(), want.witness.mapping)
    with pytest.raises(CapExceeded) as exc:
        gl2_m3.validate()
    assert exc.value.what == "linear maps 2->3"
    assert (exc.value.needed, exc.value.cap) == (64, 63)


def _gl2_m3_capped(cap):
    """gl2-m3 over a field with this tuple cap."""
    field = Field(2, 2, cap_tuples=cap)
    return group_orbits.build_orbit_scheme(group_orbits.gl_group(field), [1], 3)


def test_map_table_counts_against_tuple_cap():
    # S^3 has 27 tuples, its map table 27 * 2^3 = 216 codes
    capped = _gl2_m3_capped(100)
    assert len(capped.instance.tuples_array(3)) == 27
    with pytest.raises(CapExceeded) as exc:
        capped.validate()
    assert exc.value.what == "map table S^3 x F_2^3"
    assert (exc.value.needed, exc.value.cap) == (216, 100)


def _check_block_maps(part, perms):
    """perms is a group with the identity first, and each perms[s] carries
    every block exactly onto a block of the same size."""
    k = part.arity
    n = part.instance.n
    assert perms[0] == tuple(range(k))
    assert all(tuple(s[i] for i in r) in perms for s in perms for r in perms)
    digits = gf_linalg.radix_digits(np.arange(len(part.bid)), n, k)
    sizes = np.bincount(part.bid)
    for sigma in perms:
        image = part.bid[digits[:, list(sigma)] @ gf_linalg.radix_weights(n, k)]
        # block b goes onto the block of its least tuple's image
        block_map = image[part.order[part.starts]]
        assert sorted(block_map.tolist()) == list(range(part.num_blocks))
        assert np.array_equal(image, block_map[part.bid])
        assert np.array_equal(sizes[block_map], sizes)


@pytest.mark.parametrize("label", sorted(BUILDERS))
def test_coordinate_symmetries_of_every_builder_are_all_permutations(label):
    sch = BUILDERS[label]()
    for k in range(1, sch.m + 1):
        perms = sch.level(k).coordinate_symmetries
        assert perms == tuple(itertools.permutations(range(k)))
        _check_block_maps(sch.level(k), perms)


def test_corruption_shrinks_the_coordinate_symmetries():
    shrunk = 0
    for label in ("gl2-m3", "gl3-m2", "gl-f3-m2", "signed-perm-m2", "c11c5-m2"):
        sch = BUILDERS[label]()
        for seed in range(4):
            bad = _corrupt(sch, seed)
            for k in range(1, bad.m + 1):
                perms = bad.level(k).coordinate_symmetries
                _check_block_maps(bad.level(k), perms)
                shrunk += len(perms) < len(sch.level(k).coordinate_symmetries)
    assert shrunk > 0


def _orbits_by_brute_force(ell, k, kp, h_k, h_kp):
    """Least flat index of each map's orbit under C -> C[sigma][:, pi]."""
    weights = gf_linalg.radix_weights(ell, k * kp)
    coeffs = gf_linalg.radix_digits(np.arange(ell ** (k * kp)), ell, k * kp).reshape(-1, k, kp)
    return np.array([min(int(c[list(s)][:, list(p)].ravel() @ weights)
                         for s in h_k for p in h_kp) for c in coeffs])


def test_map_orbits_are_the_least_maps_of_the_orbits():
    sym = lambda k: tuple(itertools.permutations(range(k)))
    counts = []
    for k, kp in itertools.product((1, 2, 3), repeat=2):
        counts.append(len(scheme_core.map_orbits(Field(2, 2), k, kp, sym(k), sym(kp))))
    # 85 orbits for the 682 maps of depth 3 over F_2
    assert counts == [2, 3, 4, 3, 7, 13, 4, 13, 36]
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for ell, k, kp, h_k, h_kp in ((2, 3, 3, sym(3), sym(3)), (2, 3, 2, cyclic, sym(2)),
                                  (2, 2, 3, sym(2), SUBGROUPS[False]), (3, 2, 2, sym(2), sym(2))):
        h_kp = tuple(sorted(h_kp))
        reps = scheme_core.map_orbits(Field(ell, 1), k, kp, h_k, h_kp)
        assert np.array_equal(reps, np.unique(_orbits_by_brute_force(ell, k, kp, h_k, h_kp)))


def test_orbit_table_is_cached_bounded_and_read_only():
    sym = lambda k: tuple(itertools.permutations(range(k)))
    reps = scheme_core.map_orbits(Field(2, 2), 2, 3, sym(2), sym(3))
    # same ell, k, k' and groups
    assert scheme_core.map_orbits(Field(2, 4), 2, 3, sym(2), sym(3)) is reps
    assert scheme_core._map_orbits.cache_info().maxsize is not None
    with pytest.raises(ValueError):
        reps[0] = 1


def _swept_by_validate(monkeypatch, sch):
    """sch.validate(10 ** 6), and the flat indices of the maps that each
    (k, k') group swept, in the order swept."""
    swept = {}
    sweep = scheme_core._MapGroup.sweep

    def recording(group, flat):
        swept.setdefault((group.k, group.kp), []).append(flat.copy())
        return sweep(group, flat)

    with monkeypatch.context() as patch:
        patch.setattr(scheme_core._MapGroup, "sweep", recording)
        report = sch.validate(10 ** 6)
    return report, {key: np.concatenate(flats) for key, flats in swept.items()}


def _representatives(sch, k, kp):
    return scheme_core.map_orbits(sch.field, k, kp, sch.level(k).coordinate_symmetries,
                                  sch.level(kp).coordinate_symmetries)


def test_validate_sweeps_only_the_representatives_of_clean_groups(monkeypatch, gl2_m3):
    report, swept = _swept_by_validate(monkeypatch, gl2_m3)
    assert (report.ok, report.checked_maps) == (True, 682)
    assert list(swept) == [(k, kp) for k in (1, 2, 3) for kp in (1, 2, 3)]
    assert sum(len(flat) for flat in swept.values()) == 85
    for (k, kp), flat in swept.items():
        assert np.array_equal(flat, _representatives(gl2_m3, k, kp))


def test_validate_sweeps_every_map_of_a_dirty_group_once(monkeypatch):
    bad, _ = next(_symmetric_corruptions())
    report, swept = _swept_by_validate(monkeypatch, bad)
    _same_report(report, oracle.validate(bad, 10 ** 6))
    dirty = {(v.k, v.kp) for v in report.violations}
    assert dirty and len(dirty) < len(swept) == 9
    for (k, kp), flat in swept.items():
        reps = _representatives(bad, k, kp)
        if (k, kp) not in dirty:
            assert np.array_equal(flat, reps)
            continue
        # representatives up to the first bad one's chunk, then every map
        total = bad.field.ell ** (k * kp)
        head = len(flat) - total
        assert 0 < head <= len(reps) and np.array_equal(flat[:head], reps[:head])
        assert np.array_equal(flat[head:], np.arange(total))


def test_warm_orbit_table_still_checks_the_caps(monkeypatch, gl2_m3):
    # every (k, k') table of gl2-m3 is cached after one validate
    assert gl2_m3.validate().ok
    monkeypatch.setattr(gf_linalg, "DEFAULT_CAP_MAPS", 15)
    sym2 = tuple(itertools.permutations(range(2)))
    for run in (gl2_m3.validate, lambda: scheme_core.map_orbits(gl2_m3.field, 2, 2, sym2, sym2)):
        with pytest.raises(CapExceeded) as exc:
            run()
        assert (exc.value.what, exc.value.needed, exc.value.cap) == ("linear maps 2->2", 16, 15)
    monkeypatch.undo()
    with pytest.raises(CapExceeded) as exc:
        _gl2_m3_capped(100).validate()
    assert (exc.value.what, exc.value.needed, exc.value.cap) == ("map table S^3 x F_2^3", 216, 100)
