"""The map x block sweep against its per-block oracle: `validate` and
`generator_maps` agree with `scheme_oracle` on every instance builder, on
corrupted levels that show all four violation kinds, and at every early
stop, also when the chunk bound puts one map in each sweep record or splits
a (k, k') group mid-way."""
import random

import numpy as np
import pytest

import scheme_oracle as oracle
from mschemes import gf_linalg, instances, scheme_core
from mschemes.antisym import generator_maps, strong_antisym_check
from mschemes.errors import CapExceeded
from mschemes.gf_linalg import Field, enumerate_linmaps
from mschemes.scheme_core import Scheme, SchemeInstance, TuplePartition

BUILDERS = {
    "gl2-m3": lambda: instances.gl_orbit_scheme(2, 2, 3, lazy=False),
    "gl2-lazy-m3": lambda: instances.gl_orbit_scheme(2, 2, 3),
    "gl3-m2": lambda: instances.gl_orbit_scheme(2, 3, 2, lazy=False),
    "gl-f3-m2": lambda: instances.gl_orbit_scheme(3, 2, 2, lazy=False),
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
    assert (got.ok, got.checked_maps, got.partial) == \
        (want.ok, want.checked_maps, want.partial)
    assert [_key(v) for v in got.violations] == [_key(v) for v in want.violations]


def _as_tuple_indices(sch, gens):
    """Generators with each mapping read back from positions in the
    destination block to the tuple indices there."""
    return [(src, dst, tuple(sch.level(dst[0]).blocks()[dst[1]][list(mapping)].tolist()), step)
            for src, dst, mapping, step in gens]


def _corrupt(sch, seed):
    """Move a few tuples of one random level to other (or new) blocks."""
    rng = random.Random(seed)
    levels = {k: sch.level(k) for k in range(1, sch.m + 1)}
    k = rng.choice(sorted(levels))
    raw = levels[k].bid.copy()
    for _ in range(rng.choice([1, 2, 5])):
        raw[rng.randrange(len(raw))] = rng.randrange(levels[k].num_blocks + 1)
    levels[k] = TuplePartition.from_raw(sch.instance, k, raw)
    return Scheme(sch.instance, sch.m, levels=list(levels.values()))


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
        tuples = inst.tuples_array(k)[np.concatenate(sch.level(k).blocks())]
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


def test_map_table_counts_against_tuple_cap(monkeypatch, gl2_m3):
    # S^3 has 27 tuples, its map table 27 * 2^3 = 216 codes
    monkeypatch.setenv("MSCHEME_CAP_TUPLES", "100")
    assert len(gl2_m3.instance.tuples_array(3)) == 27
    with pytest.raises(CapExceeded) as exc:
        gl2_m3.validate()
    assert exc.value.what == "map table S^3 x F_2^3"
    assert (exc.value.needed, exc.value.cap) == (216, 100)
