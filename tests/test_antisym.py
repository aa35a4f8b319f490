"""Partial self-bijection saturation, witness replay, and depth measures."""
import json

import pytest

from mschemes.antisym import (
    GenStep,
    Witness,
    _forward_restriction,
    depth_bounds_check,
    depth_measure,
    halving_step,
    replay_witness,
    strong_antisym_check,
)
from mschemes.errors import DepthExhausted, InputError, PreconditionUnmet
from mschemes.gf_linalg import linmap, projection, swap_map


def test_gl2_witness_is_short_and_replays(gl2_m3):
    res = strong_antisym_check(gl2_m3)
    assert res.status == "witness"
    assert len(res.witness.word) == 1
    assert replay_witness(gl2_m3, res.witness)


def test_singer7_witness_replays(singer7_m3):
    res = strong_antisym_check(singer7_m3)
    assert res.status == "witness"
    assert replay_witness(singer7_m3, res.witness)


def test_finest_scheme_is_antisymmetric(trivial_m3):
    res = strong_antisym_check(trivial_m3)
    assert res.status == "antisymmetric"
    assert res.witness is None


def test_frobenius_instances_antisymmetric_at_depth_2(c11_m2, c31_m2):
    for sch in (c11_m2, c31_m2):
        res = strong_antisym_check(sch)
        assert res.status == "antisymmetric"
        assert res.maps_explored <= res.budget


def test_witness_json_roundtrip(gl2_m3):
    res = strong_antisym_check(gl2_m3)
    obj = json.loads(res.witness.to_json())
    steps = [GenStep.from_obj(s) for s in obj["word"]]
    block = (obj["block"]["k"], obj["block"]["block"])
    assert steps == res.witness.word
    assert block == res.witness.block


def test_tampered_witness_rejected(gl2_m3):
    res = strong_antisym_check(gl2_m3)
    w = res.witness
    # identity mapping is not a valid witness
    members = sorted(
        int(i) for i in gl2_m3.level(w.block[0]).blocks()[w.block[1]])
    fake = Witness(w.block, w.word, tuple(members))
    assert not replay_witness(gl2_m3, fake)
    # empty word is not a valid witness
    assert not replay_witness(gl2_m3, Witness(w.block, [], w.mapping))


def test_depth_bounds_require_antisymmetry(gl2_m3, c11_m2):
    with pytest.raises(PreconditionUnmet):
        depth_bounds_check(gl2_m3)
    strong_antisym_check(c11_m2)
    rep = depth_bounds_check(c11_m2)
    assert rep.ok and rep.m < rep.span_dim and 2 ** rep.m <= rep.largest_block


def test_halving_step(c11_m2):
    block = sorted(c11_m2.level1_block_set(0))
    assert len(block) == 11
    fib, bp, size = halving_step(c11_m2, 0, block[0], block[1])
    assert 1 < size <= len(block) // 2
    assert fib.m == c11_m2.m - 1
    with pytest.raises(InputError):
        halving_step(c11_m2, 0, block[0], block[0])


def test_depth_measure_partial_trace(c11_m2, c31_m2):
    # depth 2 runs out before the 11/31-point blocks shrink to singletons:
    # the partial trace still satisfies the count and halving bounds
    for sch in (c11_m2, c31_m2):
        n = len(sch.level1_block_set(0))
        with pytest.raises(DepthExhausted) as exc:
            depth_measure(sch, 0)
        trace = exc.value.trace
        assert not trace.completed
        assert trace.start_size == n
        prev = n
        for step in trace.steps:
            assert 1 < step.tracked and 2 * step.tracked <= prev
            prev = step.tracked
        assert 2 ** trace.count <= n
        assert trace.count < sch.instance.span_dim()


def test_depth_measure_completes_on_singleton_blocks(trivial_m3):
    trace = depth_measure(trivial_m3, 0)
    assert trace.completed and trace.count == 0


def test_forward_restriction_is_a_bijection_onto_dst(gl2_m3):
    # GL(2,2) on its 3 nonzero vectors: level-2 block 0 is the diagonal
    # (3 tuples), block 1 the 6 pairs of distinct points
    assert gl2_m3.level(2).num_blocks == 2
    assert _forward_restriction(gl2_m3, projection(2, 1), (2, 0), (1, 0)) is not None
    # onto the block but 2-to-1
    assert _forward_restriction(gl2_m3, projection(2, 1), (2, 1), (1, 0)) is None
    # a bijection of block 1, so not onto block 0
    assert _forward_restriction(gl2_m3, swap_map(2, 1, 2), (2, 1), (2, 1)) is not None
    assert _forward_restriction(gl2_m3, swap_map(2, 1, 2), (2, 1), (2, 0)) is None
    # every image leaves S: the zero vector is not a point of S
    assert _forward_restriction(gl2_m3, linmap([[0], [0]]), (2, 0), (1, 0)) is None
