"""Partition-system core: axioms, fibres, block layout, serialization."""
import itertools
import json

import numpy as np
import pytest

import point_oracle as oracle
import scheme_oracle

from mschemes.errors import (
    CapExceeded,
    IndexOutOfRange,
    InputError,
    NotBlockUnion,
)
from mschemes.gf_linalg import Field
from mschemes import instances
from mschemes.group_orbits import build_orbit_scheme, trivial_group
from mschemes.instances import gl_orbit_scheme
from mschemes.scheme_core import (
    Scheme,
    SchemeInstance,
    TuplePartition,
    canonical_block_ids,
)


def test_instance_validation():
    f = Field(2, 3)
    with pytest.raises(InputError):
        SchemeInstance(f, (3, 1, 2))  # unsorted
    inst = SchemeInstance(f, (1, 2, 3))
    assert inst.n == 3
    assert oracle.tuple_points(inst, scheme_oracle.tuple_index(inst, (2, 3, 1)), 3) == (2, 3, 1)
    assert inst.span_dim() == 2


def test_canonical_block_ids_first_occurrence_order():
    raw = np.array([7, 7, 2, 9, 2, 7])
    canon = canonical_block_ids(raw)
    assert canon.tolist() == [0, 0, 1, 2, 1, 0]


def test_finest_scheme_validates_and_is_discrete():
    f = Field(2, 2)
    sch = build_orbit_scheme(trivial_group(f), (1, 2, 3), 2)
    assert sch.validate().ok
    assert sch.is_discrete()
    for k in (1, 2):
        part = sch.level(k)
        assert part.num_blocks == 3 ** k
        assert part.is_discrete()


def test_json_roundtrip(gl2_m3):
    back = Scheme.from_json(gl2_m3.to_json())
    assert back.instance == gl2_m3.instance and back.m == gl2_m3.m
    for k in range(1, back.m + 1):
        assert np.array_equal(back.level(k).bid, gl2_m3.level(k).bid)
    # canonical form: serialization is a fixed point
    assert back.to_json() == gl2_m3.to_json()


def test_from_json_rejects_garbage():
    with pytest.raises(InputError):
        Scheme.from_json("{\"m\": 2}")
    obj = json.loads(gl_orbit_scheme(2, 2, 2).to_json())
    level1 = obj["levels"][0]
    assert level1["k"] == 1 and max(level1["block_of"]) == 0  # one orbit
    # a second level 1, discrete, must not replace the first
    obj["levels"].append({"k": 1, "block_of": [-1, 0, 1, 2]})
    with pytest.raises(InputError, match="level 1 repeated"):
        Scheme.from_json(json.dumps(obj))


def test_validation_catches_seeded_corruption(gl3_m2):
    sch = gl3_m2
    levels = {k: sch.level(k) for k in range(1, sch.m + 1)}
    raw = levels[2].bid.copy()
    raw[5] = (raw[5] + 1) % levels[2].num_blocks
    bad = Scheme(sch.instance, sch.m, levels=[
        levels[1], TuplePartition.from_raw(sch.instance, 2, raw)])
    report = bad.validate()
    assert not report.ok
    v = report.first()
    assert v is not None and v.describe()


def test_tuple_cap_env_override(monkeypatch, gl2_m3):
    # the tuple cap is the field's value: the environment no longer overrides it
    monkeypatch.setenv("MSCHEME_CAP_TUPLES", "5")
    assert len(gl2_m3.instance.tuples_array(2)) == 9
    assert gl_orbit_scheme(2, 2, 3).validate().ok
    capped = SchemeInstance(Field(2, 2, cap_tuples=5), gl2_m3.s_codes)
    with pytest.raises(CapExceeded):
        capped.tuples_array(2)
    with pytest.raises(CapExceeded):
        Scheme.from_json(gl2_m3.to_json(), cap_tuples=5)


def test_ids_as_union_rejects_indices_outside_tuple_space(trivial_m3):
    from mschemes.refine import _level1_union_ids

    lev1, lev2 = trivial_m3.level(1), trivial_m3.level(2)
    assert lev1.ids_as_union([0, 2]) == frozenset({0, 2})
    # -1 would index the last tuple and pass as its block
    for part, bad in ((lev1, [-1]), (lev1, [3]), (lev2, [0, 9]), (lev2, [-1, 8])):
        with pytest.raises(NotBlockUnion):
            part.ids_as_union(bad)
    # point 0 is outside the carrier (1, 2, 3): pos() gives it -1
    with pytest.raises(NotBlockUnion):
        _level1_union_ids(trivial_m3, [0])


def test_pos_maps_codes_outside_the_field_to_minus_one(trivial_m3):
    from mschemes.refine import _level1_union_ids

    inst = trivial_m3.instance  # S = (1, 2, 3) in F_2^2, q = 4
    # -1 used to wrap to the last code and 4 to raise a raw IndexError
    assert inst.tuple_indices(np.array([[-1]])).tolist() == [-1]
    assert inst.tuple_indices(np.array([[4], [3]])).tolist() == [-1, 2]
    assert inst.tuple_indices(np.array([[1, -1], [3, 2]])).tolist() == [-1, 7]
    for bad in ([-1], [4], [1, 4]):
        with pytest.raises(NotBlockUnion):
            _level1_union_ids(trivial_m3, bad)
    lazy = gl_orbit_scheme(2, 2, 3)  # its fibres come from stabilizers, not tuple indices
    for bad in ((-1,), (4,)):
        for sch in (trivial_m3, lazy):
            with pytest.raises(IndexOutOfRange):
                sch.fiber(bad)
    with pytest.raises(IndexOutOfRange):
        lazy.fiber((0,))  # in the field, not in S
    assert inst.pos([-2 ** 62, -4, -2, -1, 0, 1, 2, 3, 4, 2 ** 62]).tolist() == \
        [-1, -1, -1, -1, -1, 0, 1, 2, -1, -1]
    assert inst.pos([-4, -2]).tolist() == [-1, -1]  # below 0 but not above q


def test_sliced_fibres_match_orbit_fibres(axiom_suite):
    # a JSON copy has no group, so its fibres are sliced from its levels
    for label, sch in axiom_suite:
        copy = Scheme.from_json(sch.to_json())
        assert copy.backend is None and sch.backend is not None
        for t in (1, 2) if sch.m >= 3 else (1,):
            for x in itertools.product(sch.s_codes, repeat=t):
                for k in range(1, sch.m - t + 1):
                    assert np.array_equal(copy.fiber(x).level(k).bid,
                                          sch.fiber(x).level(k).bid), (label, x, k)


def test_pos_table_is_built_once_and_read_only(gl2_m3):
    inst = gl2_m3.instance
    first = inst.pos(list(inst.s_codes))
    assert first.tolist() == list(range(inst.n))
    table = inst._pos_table
    assert inst._pos_table is table and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tuples_array_matches_scalar_tuple_points(k, gl2_m3, trivial_m3):
    rng = np.random.default_rng(k)
    for sch in (gl2_m3, trivial_m3):
        inst = sch.instance
        rows = inst.tuples_array(k)
        assert [tuple(r) for r in rows.tolist()] == \
            [oracle.tuple_points(inst, i, k) for i in range(inst.tuple_count(k))]
        assert inst.tuple_indices(rows).tolist() == list(range(inst.tuple_count(k)))
        # a gather of some rows, repeats and any order allowed, or of one row
        for size in (0, 1, 5, 40):
            idx = rng.integers(0, inst.tuple_count(k), size)
            assert inst.tuples_array(k, idx).tolist() == \
                [list(oracle.tuple_points(inst, int(i), k)) for i in idx]
        assert inst.tuples_array(k, 2).tolist() == list(oracle.tuple_points(inst, 2, k))
        capped = SchemeInstance(Field(2, 2, cap_tuples=inst.tuple_count(k) - 1), inst.s_codes)
        with pytest.raises(CapExceeded, match=f"tuple space S\\^{k}"):
            capped.tuples_array(k, np.array([0]))


# one scheme from every builder in `instances`
LAYOUT_BUILDERS = {
    "gl2-m3": lambda: instances.gl_orbit_scheme(2, 2, 3),
    # a backend-free copy: every level given, fibres sliced from them
    "gl2-lazy-m3": lambda: Scheme.from_json(instances.gl_orbit_scheme(2, 2, 3).to_json()),
    "singer7-m3": lambda: instances.singer_scheme(2, 3, 3),
    "trivial-m3": lambda: instances.trivial_scheme(2, 2, 3),
    "c11c5-m3": lambda: instances.c11_c5_scheme(3),
    "c31c5-lazy-m3": lambda: instances.c31_c5_scheme(3),
    "signed-perm-m2": lambda: instances.signed_perm_scheme(2, 2),
    "affine-coset-m2": lambda: instances.affine_coset_scheme(4, [1, 2], 0, 2),
    "mul-coset-m2": lambda: instances.mul_coset_scheme(5, 2, 6, 1, 0, 2),
}


def _layout_partitions(sch):
    """Every level of sch and of its fibres at the first and last point."""
    schemes = [sch] + [sch.fiber((c,)) for c in (sch.s_codes[0], sch.s_codes[-1])]
    return [s.level(k) for s in schemes for k in range(1, s.m + 1)]


@pytest.mark.parametrize("label", sorted(LAYOUT_BUILDERS))
def test_block_layout_groups_bid(label):
    for part in _layout_partitions(LAYOUT_BUILDERS[label]()):
        bid, order, starts, sizes = part.bid, part.order, part.starts, part.sizes
        for arr in (order, starts, sizes):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        assert np.array_equal(np.sort(order), np.arange(len(bid)))
        assert np.array_equal(sizes, np.bincount(bid)) and part.num_blocks == len(sizes)
        assert starts[0] == 0 and np.array_equal(starts[1:], np.cumsum(sizes)[:-1])
        for b, members in enumerate(oracle.block_members(bid)):
            run = order[starts[b]:starts[b] + sizes[b]]
            assert np.all(np.diff(run) > 0) and (bid[run] == b).all()
            assert np.array_equal(part.block(b), members)


def test_blocks_are_ascending_and_level1_block_set_reads_them(gl2_m3, singer7_m3):
    for sch in (gl2_m3, singer7_m3):
        for k in range(1, sch.m + 1):
            part = sch.level(k)
            for b in range(part.num_blocks):
                rows = part.block(b)
                assert np.all(np.diff(rows) > 0)
                assert (part.bid[rows] == b).all()
        s_array = sch.instance.s_array
        assert s_array.dtype == np.int64 and not s_array.flags.writeable
        assert s_array.tolist() == list(sch.s_codes)
        lev1 = sch.level(1)
        for b in range(lev1.num_blocks):
            codes = sch.level1_block_set(b)
            assert codes.dtype == np.int64 and not codes.flags.writeable
            assert np.all(np.diff(codes) > 0)
            assert codes.tolist() == sorted(c for c in sch.s_codes
                                            if lev1.bid[scheme_oracle.tuple_index(sch.instance, (c,))] == b)


def test_block_ids_outside_the_level_are_rejected(trivial_m3):
    # trivial_scheme(2, 2, 3): S = {1, 2, 3}, three singleton level-1 blocks
    sch = trivial_m3
    for bad in (-1, 3):
        with pytest.raises(IndexOutOfRange, match=f"block id {bad} outside"):
            sch.level1_block_set(bad)
        with pytest.raises(IndexOutOfRange):
            sch.blockset_indices(1, {0, bad})
    for bad in (-1, 9):  # level 2 has nine blocks
        with pytest.raises(IndexOutOfRange, match="at arity 2"):
            sch.level(2).block(bad)
    assert sch.level1_block_set(2).tolist() == [3]
    assert sch.blockset_indices(1, {0, 2}).tolist() == [0, 2]

