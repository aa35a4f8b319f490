"""Partial self-bijection saturation, witness replay, and depth measures."""
import json

import numpy as np
import pytest

import antisym_oracle
import scheme_oracle
from point_oracle import projection, swap_map
from mschemes import instances
from mschemes.antisym import (
    GenStep,
    Witness,
    _forward_restriction,
    _schreier_loops,
    _spanning_forest,
    _tree_word,
    depth_bounds_check,
    depth_measure,
    generator_maps,
    replay_witness,
    strong_antisym_check,
)
from mschemes.caps import DEFAULT_BUDGET_SATURATION
from mschemes.errors import DepthExhausted, PreconditionUnmet
from mschemes.gf_linalg import linmap


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
    steps = [antisym_oracle.gen_step(s) for s in obj["word"]]
    block = (obj["block"]["k"], obj["block"]["block"])
    assert steps == res.witness.word
    assert block == res.witness.block


def test_tampered_witness_rejected(gl2_m3):
    res = strong_antisym_check(gl2_m3)
    w = res.witness
    # identity mapping is not a valid witness
    members = sorted(
        int(i) for i in gl2_m3.level(w.block[0]).block(w.block[1]))
    fake = Witness(w.block, w.word, tuple(members))
    assert not replay_witness(gl2_m3, fake)
    # empty word is not a valid witness
    assert not replay_witness(gl2_m3, Witness(w.block, [], w.mapping))


def test_witness_naming_no_block_is_rejected(singer7_m3):
    # singer7-m3's witness is one forward self-map of a level-3 block
    w = strong_antisym_check(singer7_m3).witness
    step = w.word[0]
    assert replay_witness(singer7_m3, w)
    assert w.block[0] == 3 and singer7_m3.level(3).num_blocks < 99
    for ref in [(3, 99), (3, -1), (3, singer7_m3.level(3).num_blocks), (7, 0), (0, 0)]:
        for direction in ("fwd", "inv"):
            # the claimed block, or a step's source or destination, is not a block
            steps = [GenStep(step.tau, direction, ref, ref),
                     GenStep(step.tau, direction, w.block, ref),
                     GenStep(step.tau, direction, ref, w.block)]
            assert not replay_witness(singer7_m3, Witness(ref, steps[:1], w.mapping))
            assert not replay_witness(singer7_m3, Witness(w.block, steps[1:2], w.mapping))
            assert not replay_witness(singer7_m3, Witness(ref, steps[2:], w.mapping))
    # a map V^1 -> V^1 recorded on a step between level-3 blocks
    short = GenStep(((1,),), "fwd", w.block, w.block)
    assert not replay_witness(singer7_m3, Witness(w.block, [short], w.mapping))


def test_inverse_steps_replay_through_the_inverse_permutation(gl2_m3):
    # a coordinate 3-cycle on the block of triples of distinct points has
    # order 3, so its inverse differs from it
    src, _, mapping, coeffs = next(
        g for g in generator_maps(gl2_m3)
        if g[0] == g[1] and tuple(g[2][i] for i in g[2]) != tuple(range(len(g[2]))))
    members = gl2_m3.level(src[0]).block(src[1])
    inverse = np.argsort(mapping)
    step = GenStep(linmap(coeffs).coeffs, "fwd", src, src)
    inv_step = GenStep(step.tau, "inv", src, src)
    assert replay_witness(gl2_m3, Witness(src, [step], tuple(members[list(mapping)].tolist())))
    assert replay_witness(gl2_m3, Witness(src, [inv_step], tuple(members[inverse].tolist())))
    assert not replay_witness(gl2_m3, Witness(src, [inv_step], tuple(members[list(mapping)].tolist())))


def _depth_oracle(sch, b):
    """The defining greedy, one point lookup at a time: (steps, completed)
    with each step as (x, fibre block sizes, tracked size)."""
    def block_of(lvl, y):
        return int(lvl.bid[scheme_oracle.tuple_index(lvl.instance, (y,))])

    cur, block, steps = sch, sorted(sch.level1_block_set(b)), []
    while len(block) > 1:
        if cur.m < 2:
            return steps, False
        best = None
        for x in block:
            lvl = cur.fiber((x,)).level(1)
            largest = max(int(lvl.sizes[block_of(lvl, y)]) for y in block if y != x)
            if best is None or largest < best[0]:
                best = (largest, x, lvl)
        _, x, lvl = best
        new_ids = {block_of(lvl, y) for y in block if y != x}
        tracked_id = max(new_ids, key=lambda i: (int(lvl.sizes[i]), -i))
        block = [y for y in block if y != x and block_of(lvl, y) == tracked_id]
        steps.append((x, tuple(sorted((int(lvl.sizes[i]) for i in new_ids), reverse=True)),
                      len(block)))
        cur = cur.fiber((x,))
    return steps, True


DEPTH_BUILDERS = {
    "c11c5-m3": lambda: instances.c11_c5_scheme(3),
    "c11c5-m2": lambda: instances.c11_c5_scheme(2),
    "c31c5-m2": lambda: instances.c31_c5_scheme(2),
    "gl3-lazy-m3": lambda: instances.gl_orbit_scheme(2, 3, 3),
    "gl-f3-m2": lambda: instances.gl_orbit_scheme(3, 2, 2),
    "singer7-m3": lambda: instances.singer_scheme(2, 3, 3),
    "signed-perm-m2": lambda: instances.signed_perm_scheme(2, 2),
    "affine-coset-m3": lambda: instances.affine_coset_scheme(4, [1, 2], 0, 3),
    "mul-coset-m2": lambda: instances.mul_coset_scheme(5, 2, 6, 1, 0, 2),
}


# one scheme from every builder in `instances`
ANTISYM_BUILDERS = {
    **DEPTH_BUILDERS,
    "gl2-m3": lambda: instances.gl_orbit_scheme(2, 2, 3),
    "trivial-m3": lambda: instances.trivial_scheme(2, 2, 3),
}


def _same_verdict(sch, got, want):
    """Exactly the oracle's result where its witness is one forward step;
    elsewhere the oracle's status wherever it decides, and a witness that
    replays."""
    if want.witness is not None and len(want.witness.word) == 1:
        assert (got.status, got.maps_explored, got.budget) == \
            (want.status, want.maps_explored, want.budget)
        assert got.witness.to_json() == want.witness.to_json()
        assert got.witness.mapping == want.witness.mapping
        assert got.generators == got.maps_explored <= want.generators
        return
    assert got.budget == want.budget
    if want.status != "inconclusive":
        assert got.status == want.status
    if got.witness is not None:
        assert replay_witness(sch, got.witness)


@pytest.mark.parametrize("label", sorted(ANTISYM_BUILDERS))
def test_streamed_check_matches_eager_oracle(label):
    sch = ANTISYM_BUILDERS[label]()
    for budget in (DEFAULT_BUDGET_SATURATION, 1500, 20):
        want = antisym_oracle.strong_antisym_check(sch, budget)
        got = strong_antisym_check(sch, budget)
        _same_verdict(sch, got, want)
        if got.status != "witness" or len(got.witness.word) > 1:
            # the streamed check read every forward generator
            assert got.generators == want.generators


def test_small_budgets_are_inconclusive_like_the_oracle(trivial_m3):
    # the budget bounds forward generators: 20 stops after reading all 1197
    # of them, as the oracle stops too, while 1500 checks every loop where
    # the oracle's breadth-first search stops at 1503 of its 1521 maps
    for budget, status, explored in ((20, "inconclusive", 1197),
                                     (1500, "antisymmetric", 2 * 1197)):
        got = strong_antisym_check(trivial_m3, budget)
        want = antisym_oracle.strong_antisym_check(trivial_m3, budget)
        assert (got.status, got.maps_explored, got.generators) == (status, explored, 1197)
        assert want.status == "inconclusive"
        _same_verdict(trivial_m3, got, want)


def test_multi_letter_witness_replays():
    # no forward generator of C11:C5 at depth 3 permutes its block, but a
    # loop through a level-3 block does
    sch = instances.c11_c5_scheme(3)
    res = strong_antisym_check(sch)
    assert res.status == "witness" and len(res.witness.word) > 1
    assert res.maps_explored == res.generators + 70  # the 70th loop fails
    assert replay_witness(sch, res.witness)
    members = sch.level(res.witness.block[0]).block(res.witness.block[1])
    assert res.witness.mapping != tuple(members.tolist())
    # any order of the generators gives a forest whose witness replays
    gens = list(generator_maps(sch))
    for seed in range(6):
        order = np.random.default_rng(seed).permutation(len(gens))
        res = _schreier_loops(sch, [gens[i] for i in order], DEFAULT_BUDGET_SATURATION)
        assert res.status == "witness" and replay_witness(sch, res.witness)


def _word_positions(sch, root, word):
    """Positions in the last block of the word of the images of root's
    members, one letter at a time."""
    positions = np.arange(len(sch.level(root[0]).block(root[1])))
    for step in word:
        tau = linmap(step.tau)
        if step.direction == "fwd":
            positions = _forward_restriction(sch, tau, step.src, step.dst)[positions]
        else:
            positions = np.argsort(_forward_restriction(sch, tau, step.dst, step.src))[positions]
    return positions


def test_schreier_loops_close_on_an_antisymmetric_scheme(c31_m2):
    gens = list(generator_maps(c31_m2))
    path, tree = _spanning_forest(gens)
    for src, dst, mapping, _ in gens:
        assert _tree_word(gens, tree, src)[0] == _tree_word(gens, tree, dst)[0]
        assert np.array_equal(mapping[path[src]], path[dst])
    # u_b is where b's tree word carries its root's members
    for b in path:
        root, word = _tree_word(gens, tree, b)
        assert (word[-1].dst if word else root) == b
        assert np.array_equal(_word_positions(c31_m2, root, word), path[b])


@pytest.mark.parametrize("label", sorted(DEPTH_BUILDERS))
def test_depth_measure_matches_scalar_definition(label):
    sch = DEPTH_BUILDERS[label]()
    for b in range(sch.level(1).num_blocks):
        try:
            trace = depth_measure(sch, b)
        except DepthExhausted as exc:
            trace = exc.trace
        got = [(s.x, s.block_sizes, s.tracked) for s in trace.steps]
        assert (got, trace.completed) == _depth_oracle(sch, b)


def test_depth_bounds_require_antisymmetry(gl2_m3, c11_m2):
    with pytest.raises(PreconditionUnmet):
        depth_bounds_check(gl2_m3)
    strong_antisym_check(c11_m2)
    rep = depth_bounds_check(c11_m2)
    assert rep.ok and rep.m < rep.span_dim and 2 ** rep.m <= rep.largest_block


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
