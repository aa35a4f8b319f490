"""Refinement procedures: shrink, sumset loop, powers, extraction, reduction."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import point_oracle as oracle
import scheme_oracle
from mschemes import refine
from mschemes.addcomb import PointSet
from mschemes.errors import (
    CapExceeded,
    EnergyTooLow,
    GateUnmet,
    LemmaViolation,
    PreconditionUnmet,
)
from mschemes.fourier import FourierContext
from mschemes.gf_linalg import Field, span_dim
from mschemes.group_orbits import MatrixGroup, build_orbit_scheme
from mschemes.instances import (
    CASE3_INSTANCES,
    affine_coset_scheme,
    c11_c5_scheme,
    find_shrink_instances,
    gl_orbit_scheme,
    mul_coset_scheme,
    signed_perm_scheme,
)
from mschemes.refine import (
    BlockRef,
    RefineParams,
    TrivialGate,
    _floor_record,
    _le_ell_pow,
    _sqrt_bounds,
    bijectivity_check,
    bsg_extract,
    compute_heavy_set,
    decompose,
    density_reduce,
    find_constructible,
    ineq,
    partial_sumset_search,
    representation_counts,
    require_ineqs,
    scheme_power,
    shrink_weak,
    two_case_check,
    z_slice_sizes,
)
from mschemes.scheme_core import Scheme


def test_ineq_records_and_require():
    rec = ineq(Fraction(1, 3), "<=", Fraction(1, 2), note="demo")
    assert rec["holds"] and rec["note"] == "demo"
    bad = ineq(3, "<", 2)
    assert not bad["holds"]
    with pytest.raises(LemmaViolation):
        require_ineqs("demo", [rec, bad])


@given(st.integers(1, 400), st.integers(1, 40), st.integers(-30, 30),
       st.integers(1, 8), st.sampled_from([2, 3, 5]))
@settings(max_examples=150, deadline=None)
def test_le_ell_pow_matches_float(lhs, rhs, num, den, ell):
    exp = Fraction(num, den)
    got = _le_ell_pow(Fraction(lhs), Fraction(rhs), ell, exp)
    import math
    gap = math.log(lhs / rhs) / math.log(ell) - (num / den)
    if abs(gap) > 1e-9:  # away from ties, float and exact agree
        assert got == (gap < 0)


def test_floor_record_spells_the_density_reduce_floor():
    # bound * ell^-exp <= size: 6 * 2^-1 <= 3 holds, 12/8 * 2^1 <= 2 does not
    assert _floor_record("12/2", Fraction(6), 3, 2, Fraction(1), "|B|/K<=|B'|") == {
        "lhs": "12/2*ell^-(1/eps'^2)", "op": "<=", "rhs": "3", "holds": True,
        "note": "ell^(-1/eps'^2)|B|/K<=|B'|"}
    rec = _floor_record("12/K^3", Fraction(12, 8), 2, 2, Fraction(-1), "|B|/K^3<=|U|")
    assert (rec["lhs"], rec["holds"], rec["note"]) == \
        ("12/K^3*ell^-(1/eps'^2)", False, "ell^(-1/eps'^2)|B|/K^3<=|U|")


@given(st.integers(1, 50), st.integers(4, 25), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_sqrt_bounds_exactness(value, K, base):
    recs = _sqrt_bounds(value, Fraction(K), base)
    both = all(r["holds"] for r in recs)
    assert both == (K <= value * value and value * value * K <= base * base)


@given(st.integers(0, 60), st.fractions(1, 100), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_sqrt_window_is_the_sqrt_bounds(value, K, base):
    lo, hi = refine._sqrt_window(K, base)
    assert (lo <= value <= hi) == all(r["holds"] for r in _sqrt_bounds(value, K, base))


def test_z_slice_sizes_definition():
    f = Field(2, 3)
    sizes = z_slice_sizes(f, [1, 2], [1, 2, 3], {0, 3})
    # x=1: 1+1=0 in Z, 1+2=3 in Z, 1+3=2 not -> 2;  x=2: 2+1=3, 2+2=0 -> 2
    assert sizes == {1: 2, 2: 2}


SLICE_FIELDS = [(2, 4), (3, 3), (5, 2)]


def _codes(f, data, max_size):
    return data.draw(st.lists(st.integers(0, f.q - 1), max_size=max_size,
                              unique=True))


@given(st.integers(0, len(SLICE_FIELDS) - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_z_slice_sizes_match_brute_force(ix, data):
    f = Field(*SLICE_FIELDS[ix])
    ap, b, z = (_codes(f, data, 12), _codes(f, data, 12), _codes(f, data, f.q))
    z_set = set(z)
    expect = {x: sum(1 for y in b if oracle.add(f, x, y) in z_set) for x in ap}
    got = z_slice_sizes(f, ap, b, z_set)
    assert got == expect and list(got) == ap


@given(st.integers(0, len(SLICE_FIELDS) - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_z_complement_mask_matches_brute_force(ix, data):
    # No carrier in the shrink-instance grids reaches the complement branch
    # (every gated carrier has a nu+ value inside the window), so the
    # membership mask it reads its slice sizes and its piece from is
    # checked here against the defining loop, with the piece at an
    # arbitrary x0 in A'.
    f = Field(*SLICE_FIELDS[ix])
    ap = sorted(_codes(f, data, 12)) or [0]
    b = sorted(_codes(f, data, 12))
    z_set = set(_codes(f, data, f.q))
    x0 = data.draw(st.sampled_from(ap))
    ap_arr, b_arr = np.array(ap, dtype=np.int64), np.array(b, dtype=np.int64)
    mask = refine._z_mask(f, ap_arr, b_arr, np.array(sorted(z_set), dtype=np.int64))
    assert mask.tolist() == [[oracle.add(f, x, y) in z_set for y in b] for x in ap]
    assert refine._z_piece(mask, ap_arr, b_arr, x0) == [
        y for y in b if oracle.add(f, x0, y) in z_set]


def test_shrink_weak_gate_unmet_on_subgroup_like_carrier():
    # GL orbit carrier is all nonzero vectors: |A'+B| is tiny, K|A'| is not
    sch = gl_orbit_scheme(2, 3, 6)
    with pytest.raises((GateUnmet, PreconditionUnmet)):
        shrink_weak(sch, 0, BlockRef(2, 0), 4)


def test_shrink_weak_bad_params():
    sch = mul_coset_scheme(3, 4, 20, 1, 0, m=6)
    with pytest.raises(PreconditionUnmet):
        shrink_weak(sch, 0, BlockRef(2, 0), 3)  # K < 4
    shallow = mul_coset_scheme(3, 4, 20, 1, 0, m=3)
    with pytest.raises(PreconditionUnmet):
        shrink_weak(shallow, 0, BlockRef(2, 0), 4)  # m < 2k+2


def test_shrink_weak_outcome_structure():
    (params, sch), = find_shrink_instances(4, 1)
    out = shrink_weak(sch, 0, BlockRef(2, 0), 4)
    n = len(sch.level1_block_set(0))
    assert out.parent_size == n
    assert out.min_ratio ** 2 >= 4
    assert len(out.fiber_prefix) == 3  # k+1 points fixed
    # the returned ids reproduce the points on the fibered scheme
    fib = sch.fiber(out.fiber_prefix)
    got = {c for i in out.result_ids for c in fib.level1_block_set(i)}
    assert got == set(out.points)


def test_bijectivity_check(c11_m2):
    assert bijectivity_check(c11_m2, BlockRef(1, 0))
    with pytest.raises(PreconditionUnmet):
        bijectivity_check(c11_m2, BlockRef(2, 0))  # m < 2k


def _case3_blocks(sch, K):
    """Arity-2 blocks of A x B for A = B = level-1 block 0, split by size
    at sqrt(K)|A| as case 3 splits them: (A rows, small ids, big ids)."""
    inst, part_hi = sch.instance, sch.level(2)
    rows = sch.level(1).block(0)
    prod = (rows[:, None] * inst.n + rows[None, :]).reshape(-1)
    small, big = [], []
    for bid in sorted(set(part_hi.bid[prod].tolist())):
        fits = Fraction(int(part_hi.sizes[bid])) ** 2 <= K * len(rows) ** 2
        (small if fits else big).append(bid)
    return rows, small, big


def _check_records(records, expect):
    """Each record is (lhs, op, rhs) as recomputed, and holds exactly."""
    ops = {"<=": lambda x, y: x <= y, "==": lambda x, y: x == y}
    assert [(Fraction(r["lhs"]), r["op"], Fraction(r["rhs"])) for r in records] == expect
    assert all(r["holds"] and ops[op](x, y) for r, (x, op, y) in zip(records, expect))


@pytest.mark.parametrize("build,args,K,branch", CASE3_INSTANCES,
                         ids=[f"{b.__name__}{a}-K={K}" for b, a, K, _ in CASE3_INSTANCES])
def test_case3_branches_recompute_exactly(build, args, K, branch):
    sch = build(*args)
    out = partial_sumset_search(sch, 0, K)
    step = out.steps[-1]
    assert [s.branch for s in out.steps] == [branch]
    sizes = step.sizes
    n_a, n_b, piece = sizes["|A|"], sizes["|B|"], sizes["|B'|"]
    assert sizes["k"] == 1 and n_a == n_b == len(sch.level1_block_set(0))
    rows, small, big = _case3_blocks(sch, K)
    inst, part_hi = sch.instance, sch.level(2)
    if branch == "case3-trim":
        chosen, tot = [], 0
        for bid in small:
            chosen.append(bid)
            tot += int(part_hi.sizes[bid])
            if Fraction(tot) ** 2 >= K * n_a ** 2:
                break
        assert (sizes["|T|"], sizes["|T'|"]) == (
            sum(int(part_hi.sizes[b]) for b in small), tot)
        _check_records(step.inequalities, [
            (K * n_a ** 2, "<=", Fraction(tot) ** 2),
            (Fraction(tot) ** 2, "<=", 4 * K * n_a ** 2),
            (piece * n_a, "==", tot),
            (K, "<=", piece ** 2),
            (piece ** 2 * K, "<=", n_b ** 2),
        ])
        x_row = int(rows[0])
        expect = oracle.trim_piece_walk(inst, part_hi, chosen, x_row)
        assert out.case == "block-trim"
    else:
        f = sch.field
        for bid in big:
            brows = part_hi.block(bid)
            im = len({oracle.add(f, *oracle.tuple_points(inst, int(r), 2)) for r in brows})
            if len(brows) <= 2 * K * im:
                break
        n_star = sizes["|A*|"]
        assert n_star == len(brows)
        _check_records(step.inequalities, [
            (n_star, "<=", 2 * K * im),
            (n_star, "==", im),
            (piece * n_a, "==", n_star),
            (K, "<=", piece ** 2),
        ])
        assert piece ** 2 * K <= n_b ** 2  # |B'| <= |B|/sqrtK: the exit
        x_row = int(brows[0] // inst.n)
        expect = oracle.exit_piece_walk(inst, brows, x_row)
        assert out.case == "fiber-exit"
    assert out.fiber_prefix == step.prefix == oracle.tuple_points(inst, x_row, 1)
    assert list(out.points) == expect and len(expect) == piece
    assert all(type(c) is int for c in out.fiber_prefix + out.points)
    # the piece is the union of the reported level-1 blocks of the fibre
    fib = sch.fiber(out.fiber_prefix)
    assert sorted(c for i in out.result_ids for c in fib.level1_block_set(i)) == expect


@pytest.mark.parametrize("x_row", [0, 1, 2])
def test_fibre_piece_sorts_interleaved_blocks(c11_m2, x_row):
    # C11:C5 on 11 points: the two 55-tuple level-2 blocks meet each prefix
    # in 5 tuples whose last points interleave, so their rows gathered block
    # by block are out of order
    inst, part = c11_m2.instance, c11_m2.level(2)
    n = inst.n
    pair = [b for b in range(part.num_blocks) if part.sizes[b] == 55]
    rows = np.concatenate([part.block(b) for b in pair])
    last = rows[rows // n == x_row] % n
    assert len(pair) == 2 and (np.diff(last) < 0).any()
    piece = refine._fibre_piece(inst, rows, x_row)
    assert piece == oracle.trim_piece_walk(inst, part, pair, x_row)
    assert piece == [c for c in inst.s_codes if c != inst.s_codes[x_row]]
    assert refine._fibre_piece(inst, part.block(pair[0]), x_row) == \
        oracle.exit_piece_walk(inst, part.block(pair[0]), x_row)


def test_blocks_inside_takes_whole_blocks_only():
    # the fibre of C11:C5 at 85 has blocks {85}, {93, ...} and {150, ...}
    fib = c11_c5_scheme(4).fiber((85,))
    blocks = [fib.level1_block_set(i).tolist() for i in range(fib.level(1).num_blocks)]
    for codes in ([85, 150, 172, 565, 846, 990], [85, 93, 150], blocks[1], []):
        expect = [i for i, blk in enumerate(blocks) if set(blk) <= set(codes)]
        assert refine._blocks_inside(fib, np.array(codes, dtype=np.int64)).tolist() == expect


def test_scheme_power_preconditions(c11_m2):
    with pytest.raises(PreconditionUnmet):
        scheme_power(c11_m2, BlockRef(1, 0), 3)  # m < 2*k*m'
    power = scheme_power(c11_m2, BlockRef(1, 0), 1)
    assert power.m == 1
    assert power.validate().ok


def test_scheme_power_carrier_is_sum_image():
    base = c11_c5_scheme(8)
    a = BlockRef(2, 1)
    power = scheme_power(base, a, 2)
    assert power.m == 2
    assert power.validate().ok
    # carrier points are coordinate sums of tuples of A
    f = base.field
    rows = base.level(2).block(a.b)
    sums = {oracle.add(f, *oracle.tuple_points(base.instance, int(i), 2)) for i in rows}
    assert set(power.s_codes) <= sums


def test_representation_counts_vs_loop():
    f = Field(2, 2)
    bset = PointSet.from_codes(f, [0, 1, 3])
    conv = representation_counts(bset)
    codes = bset.codes
    expect = {}
    for x1 in codes:
        for y1 in codes:
            d1 = oracle.sub(f, x1, y1)
            for x2 in codes:
                for y2 in codes:
                    d2 = oracle.sub(f, d1, oracle.sub(f, x2, y2))
                    for x3 in codes:
                        for y3 in codes:
                            d3 = oracle.sub(f, d2, oracle.sub(f, x3, y3))
                            for x4 in codes:
                                for y4 in codes:
                                    w = oracle.add(f, d3, oracle.sub(f, x4, y4))
                                    expect[w] = expect.get(w, 0) + 1
    assert conv == expect


def _count_vector(f, hist: dict) -> np.ndarray:
    vec = np.zeros(f.q, dtype=np.int64)
    vec[list(hist)] = list(hist.values())
    return vec


def test_group_convolve_matches_loop():
    f = Field(3, 2)
    rng = random.Random(5)
    for big in (1, 2 ** 40):  # the second overflows int64: exact ints
        for _ in range(20):
            fa, fb = ({z: big * rng.randint(1, 9)
                       for z in rng.sample(range(f.q), rng.randint(0, 6))}
                      for _ in range(2))
            expect = {}
            for z1, c1 in fa.items():
                for z2, c2 in fb.items():
                    z = oracle.add(f, z1, z2)
                    expect[z] = expect.get(z, 0) + c1 * c2
            got = refine._group_convolve(f, _count_vector(f, fa), _count_vector(f, fb))
            assert got.dtype == (object if big > 1 and fa and fb else np.int64)
            support = np.flatnonzero(got)
            hist = dict(zip(support.tolist(), got[support].tolist()))
            assert hist == expect == oracle.group_convolve(f, fa, fb)
            assert all(type(k) is int and type(v) is int for k, v in hist.items())


@given(st.sampled_from([Field(2, 4), Field(3, 2), Field(5, 2), Field(7, 2), Field(2, 16)]),
       st.data())
@settings(max_examples=40, deadline=None)
def test_representation_counts_match_dict_convolution(f, data):
    codes = st.one_of(st.sampled_from([0, f.q - 1]), st.integers(0, f.q - 1))
    bset = PointSet.from_codes(f, data.draw(st.lists(codes, max_size=5)))
    got = representation_counts(bset)
    assert got == oracle.representation_counts(bset)
    assert list(got) == sorted(got)
    assert all(type(w) is int and type(c) is int for w, c in got.items())


def _bsg_oracle(sch, gamma):
    """Neighbourhoods, piece and worst representation count of bsg_extract
    on block 0, by the defining set loops."""
    f = sch.field
    b = sorted(sch.level1_block_set(0))
    n = len(b)
    nu = {}
    for x in b:
        for y in b:
            d = oracle.sub(f, x, y)
            nu[d] = nu.get(d, 0) + 1
    t_set = {z for z, c in nu.items() if c >= gamma * n / 2}
    neigh = {x: frozenset(y for y in b if oracle.sub(f, x, y) in t_set) for x in b}
    coneigh = {y: frozenset(x for x in b if oracle.sub(f, x, y) in t_set) for y in b}
    thresh = gamma * gamma * n / 36
    verts = sorted(coneigh[b[0]])
    deg = {y: sum(1 for z in verts if z != y and len(neigh[y] & neigh[z]) <= thresh)
           for y in verts}
    piece = sorted(y for y in verts if 3 * deg[y] <= len(neigh[b[0]]))
    conv = representation_counts(PointSet.from_codes(f, b))
    worst = min(conv.get(oracle.sub(f, a1, a2), 0) for a1 in piece for a2 in piece)
    return t_set, neigh, coneigh, piece, worst


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_low_degree_piece_matches_set_loops(data):
    # on the desk-scale carriers gamma^2|B|/36 < 1 and no two neighbourhoods
    # in N'(x0) are disjoint, so the filter is checked on drawn graphs
    n = data.draw(st.integers(1, 9))
    adj = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                      min_size=n, max_size=n)), dtype=bool)
    b = sorted(data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n,
                                  unique=True)))
    thresh = Fraction(data.draw(st.integers(0, 2 * n)), data.draw(st.integers(1, 2)))
    big_n = data.draw(st.integers(0, 3 * n))
    neigh = {x: frozenset(b[j] for j in range(n) if adj[i, j]) for i, x in enumerate(b)}
    verts = sorted(b[i] for i in range(n) if adj[i, 0])
    deg = {y: sum(1 for z in verts if z != y and len(neigh[y] & neigh[z]) <= thresh)
           for y in verts}
    expect = sorted(y for y in verts if 3 * deg[y] <= big_n)
    assert refine._low_degree_piece(adj, np.array(b), thresh, big_n) == expect


def test_low_degree_piece_counts_ties():
    # |N(1) ∩ N(2)| = 1 = thresh counts as low, so 1 and 2 have degree 1
    adj = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=bool)
    assert refine._low_degree_piece(adj, np.array([1, 2, 3]), Fraction(3, 2), 2) == [3]


@pytest.mark.parametrize("params,gamma", [
    ((3, 4, 10, 1, 0), Fraction(27, 100)),
    ((5, 2, 6, 1, 0), Fraction(5, 12)),
    ((7, 2, 12, 0, 1), Fraction(49, 144)),
])
def test_bsg_extract_matches_brute_force(params, gamma):
    # carriers whose popular-difference graph is not complete, so N'(x0)
    # leaves points out
    sch = mul_coset_scheme(*params, m=4)
    f = sch.field
    b = sorted(sch.level1_block_set(0))
    _, neigh, coneigh, piece, worst = _bsg_oracle(sch, gamma)
    adj = refine._popular_difference_graph(f, np.array(b), gamma)
    for i, x in enumerate(b):
        assert {b[j] for j in range(len(b)) if adj[i, j]} == neigh[x]
        assert {b[j] for j in range(len(b)) if adj[j, i]} == coneigh[x]
    res = bsg_extract(sch, 0, gamma)
    assert len(piece) < len(b)
    assert res.points == tuple(piece) and res.x == b[0]
    assert res.inequalities[-1]["rhs"] == str(worst)


def test_popular_difference_graph_threshold_is_inclusive():
    # gamma|B|/2 set to each count nu(z) in turn: z with nu(z) equal to it is in T
    sch = mul_coset_scheme(3, 4, 10, 1, 0, m=4)
    f = sch.field
    b = sch.level1_block_set(0).tolist()
    nu = {}
    for x in b:
        for y in b:
            nu[oracle.sub(f, x, y)] = nu.get(oracle.sub(f, x, y), 0) + 1
    for c in sorted(set(nu.values())):
        adj = refine._popular_difference_graph(f, np.array(b), Fraction(2 * c, len(b)))
        assert adj.tolist() == [[nu[oracle.sub(f, x, y)] >= c for y in b] for x in b]


def test_bsg_energy_gate():
    sch = mul_coset_scheme(3, 4, 10, 1, 0, m=4)
    with pytest.raises(EnergyTooLow):
        bsg_extract(sch, 0, Fraction(1, 2))


def test_bsg_extract_bounds():
    sch = gl_orbit_scheme(2, 3, 4)
    res = bsg_extract(sch, 0, Fraction(1, 2))
    n = res.parent_size
    assert all(r["holds"] for r in res.inequalities)
    assert 3 * len(res.points) >= Fraction(1, 2) * n


# block 0 of lazy orbit schemes at m = 4, with the gammas bsg_extract runs
# at: GL(2, ell) and GL(d, 2) on V \ {0}, and the mul_coset carriers above,
# whose highest gamma E(B)/|B|^3 leaves the popular-difference graph
# incomplete
BSG_CASES = [
    (("gl", 3, 2), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    (("gl", 5, 2), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    (("gl", 7, 2), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    (("gl", 2, 3), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    (("gl", 2, 4), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    (("mc", 3, 4, 10, 1, 0), (Fraction(27, 100), Fraction(81, 400), Fraction(27, 200))),
    (("mc", 5, 2, 6, 1, 0), (Fraction(5, 12), Fraction(5, 16), Fraction(5, 24))),
    (("mc", 7, 2, 12, 0, 1), (Fraction(49, 144), Fraction(49, 192), Fraction(49, 288))),
]


def _bsg_scheme(case):
    kind, *params = case
    return gl_orbit_scheme(*params, 4) if kind == "gl" else mul_coset_scheme(*params, m=4)


def _backend_free_copy(sch):
    """The scheme with its levels and no group: its JSON copy while the
    dense export fits the tuple cap, else its levels, built from the group."""
    if sch.field.q ** sch.m <= sch.field.cap_tuples:
        return Scheme.from_json(sch.to_json())
    return Scheme(sch.instance, sch.m, levels=[sch.level(k) for k in range(1, sch.m + 1)])


def _case_id(case):
    return "-".join(map(str, case))


@pytest.mark.parametrize("case,gammas", BSG_CASES, ids=[_case_id(c) for c, _ in BSG_CASES])
def test_bsg_neighbourhoods_pass_on_every_point(case, gammas):
    for gamma in gammas:
        sch = _bsg_scheme(case)
        res = bsg_extract(sch, 0, gamma)
        assert scheme_oracle.bsg_neighbourhood_scan(sch, 0, gamma) == res.parent_size


# GL(2, 7) is left out: its dense export at m = 4 has 49^4 entries (about
# 6 s and 800 MB), and its per-point check runs in the test above
BSG_COPY_CASES = [c for c in BSG_CASES if c[0] != ("gl", 7, 2)]


@pytest.mark.parametrize("case,gammas", BSG_COPY_CASES,
                         ids=[_case_id(c) for c, _ in BSG_COPY_CASES])
def test_bsg_extract_same_without_backend(case, gammas):
    lazy = _bsg_scheme(case)
    results = [bsg_extract(lazy, 0, gamma).to_obj() for gamma in gammas]
    copy = _backend_free_copy(lazy)
    assert copy.backend is None
    assert [bsg_extract(copy, 0, gamma).to_obj() for gamma in gammas] == results


def test_bsg_extract_checks_every_point_only_without_backend(monkeypatch):
    lazy = mul_coset_scheme(7, 2, 12, 0, 1, m=4)
    copy = _backend_free_copy(lazy)
    b = lazy.level1_block_set(0)
    fibres = []
    real = Scheme.fiber

    def spy(self, pts):
        fibres.append(tuple(pts))
        return real(self, pts)

    monkeypatch.setattr(Scheme, "fiber", spy)
    bsg_extract(lazy, 0, Fraction(49, 144))
    assert fibres == [(b[0],), (b[0],)]
    fibres.clear()
    bsg_extract(copy, 0, Fraction(49, 144))
    assert fibres == [(x,) for x in b] + [(b[0],)]


def test_bsg_extract_rejects_generators_that_break_the_graph():
    sch = mul_coset_scheme(7, 2, 12, 0, 1, m=4)
    gamma = Fraction(49, 144)
    _, neigh, _, _, _ = _bsg_oracle(sch, gamma)
    b = sch.level1_block_set(0)  # all of S
    # the first transposition of S that does not carry N(x) to N(g x)
    for i, j in ((i, j) for i in range(len(b)) for j in range(i + 1, len(b))):
        swap = dict(zip(b, b))
        swap[b[i]], swap[b[j]] = b[j], b[i]
        if any(frozenset(swap[y] for y in neigh[x]) != neigh[swap[x]] for x in b):
            break
    else:
        pytest.fail("every transposition preserves the graph")
    perm = np.arange(len(b))
    perm[[i, j]] = perm[[j, i]]
    sch.backend.perms = np.vstack([sch.backend.perms, perm])
    with pytest.raises(LemmaViolation, match="popular-difference graph"):
        bsg_extract(sch, 0, gamma)


def test_two_case_check_depth_precondition():
    sch = gl_orbit_scheme(2, 4, 3)
    with pytest.raises(PreconditionUnmet):
        two_case_check(sch, 0, 2, Fraction(1, 4))


def test_decompose_eps_range():
    sch = gl_orbit_scheme(2, 4, 30)
    with pytest.raises(PreconditionUnmet):
        decompose(sch, 0, 2, Fraction(3, 2))


def test_density_reduce_strict_aborts_on_bad_k():
    sch = gl_orbit_scheme(2, 4, 30)
    params = RefineParams(K=2, k=8, r=0, eps=Fraction(1, 4),
                          gamma=Fraction(19, 20), strict=True, r_shrink=2)
    with pytest.raises(PreconditionUnmet) as exc:
        density_reduce(sch, 0, params)
    assert exc.value.name


def test_density_reduce_case1_search_recomputes():
    # B is all 15 nonzero vectors of F_2^4; its fibre at x = 1 splits it
    # into {1} and a block B' of 14 > |B|/K = 15/2, and B' fails to halve,
    # so the dichotomy's small fibre piece is searched for
    sch = gl_orbit_scheme(2, 4, 30)
    K, eps = Fraction(2), Fraction(1, 4)
    params = RefineParams(K=K, k=1, r=2, eps=eps, gamma=Fraction(19, 20),
                          strict=False, r_shrink=0)
    res = density_reduce(sch, 0, params)
    assert (res.outcome, res.fiber_prefix, res.points) == ("case1", (1, 1), (1,))
    step, = res.steps
    assert step.branch == "case1-search" and step.prefix == (1, 1)
    b = sch.level1_block_set(0)
    n0 = len(b)
    # eps' = eps/ell^k = 1/8 and no character of B is that heavy, so
    # W = span(B) = F_2^4; W' has 16 points, so it is F_2^4 too
    ctx = FourierContext.for_generators(sch.field, b)
    assert not ctx.heavy_characters(ctx.all_coeffs(b), 1 / 8)
    mu_w = Fraction(n0, 16)
    blk = step.sizes["|B'|"]
    assert (n0, blk, step.sizes["|W'|"]) == (15, 14, 16) and blk > n0 / K
    mu_wp = Fraction(blk, 16)
    assert (step.sizes["mu_W(B)"], step.sizes["mu_W'(B')"]) == (str(mu_w), str(mu_wp))
    halve, size, floor = step.inequalities
    assert (halve["lhs"], halve["rhs"]) == (str(mu_wp), str((mu_w + eps) / 2))
    assert not halve["holds"] and mu_wp > (mu_w + eps) / 2
    piece = len(res.points)
    assert (size["lhs"], size["rhs"], size["holds"]) == ("1", "15/2", True)
    assert Fraction(piece) <= n0 / K
    assert floor["holds"] and _le_ell_pow(n0 / K, Fraction(piece), 2, Fraction(8) ** 2)
    # the piece is a union of level-1 blocks of the fibre at the prefix
    fib = sch.fiber(res.fiber_prefix)
    ids = {int(fib.level(1).bid[scheme_oracle.tuple_index(fib.instance, (c,))])
           for c in res.points}
    union = sorted(c for i in ids for c in fib.level1_block_set(i).tolist())
    assert union == sorted(res.points) and set(union) <= set(b.tolist())


@pytest.mark.parametrize("build", [
    lambda: gl_orbit_scheme(2, 4, 3), lambda: gl_orbit_scheme(3, 2, 3),
    lambda: c11_c5_scheme(3), lambda: mul_coset_scheme(2, 6, 9, 1, 0, m=3),
], ids=["gl-2-4", "gl-3-2", "c11-c5", "mul-coset"])
def test_search_small_union_returns_min_point_singleton(build):
    # at m >= 3 and hi >= 1 the first fibre, (x, x) with x = min B, holds
    # {x} as its least block inside B; at m = 2 or hi < 1 the scan finds none
    sch = build()
    b = sch.level1_block_set(0)
    x = int(b[0])
    for hi in (Fraction(1), Fraction(len(b))):
        assert refine._search_small_union(sch, b, x, Fraction(1), hi) == ((x, x), (x,))
    assert refine._search_small_union(sch, b, x, Fraction(1), Fraction(1, 2)) is None
    two = Scheme(sch.instance, 2, levels=[sch.level(1), sch.level(2)])
    assert refine._search_small_union(two, b, x, Fraction(1), Fraction(len(b))) is None


@pytest.mark.parametrize("m, K", [(2, 2), (30, 16)])
def test_density_reduce_case1_search_fails_at_m2_or_k_above_b(m, K):
    # the pinned case1-search instance at m = 2, or with K = 16 > |B| = 15
    # (hi = 15/16 < 1): halving still fails and the fibre search finds no piece
    sch = gl_orbit_scheme(2, 4, m)
    params = RefineParams(K=K, k=1, r=2, eps=Fraction(1, 4), gamma=Fraction(19, 20),
                          strict=False, r_shrink=0)
    with pytest.raises(LemmaViolation, match="halving failed and no fibre piece"):
        density_reduce(sch, 0, params)


def test_heavy_count_is_taken_before_the_kernel_filter():
    sch = gl_orbit_scheme(2, 3, 8)
    b = sch.level1_block_set(0)
    eps = Fraction(1, 9)
    ctx = FourierContext.for_generators(sch.field, b)
    want = len(ctx.heavy_characters(ctx.all_coeffs(b), float(eps)))
    total, heavy = compute_heavy_set(sch, 0, eps, 2, 2, 8)
    assert (total, len(heavy)) == (want, 3) and want == 7
    # no kernel passes at arity 1 without a prefix: the gate reports the count
    gate = decompose(affine_coset_scheme(4, (0, 1), 2, m=40), 0, kp=10,
                     eps_prime=Fraction(1, 4), max_arity=1, max_prefix=0)
    assert isinstance(gate, TrivialGate) and gate.heavy_total == 1
    assert gate.to_obj()["heavy_before_kernel_filter"] == 1


def _translation_scheme(ell, dim, sub_dims, shift, m):
    """The orbit of e_shift + e_(dim-1) under the translations by e_j,
    j in sub_dims, through the marker coordinate dim - 1: a coset of the
    span of those e_j (`affine_coset_scheme` over F_ell)."""
    field = Field(ell, dim)
    gens = []
    for j in sub_dims:
        t = np.eye(dim, dtype=np.int64)
        t[j, dim - 1] = 1
        gens.append(t)
    vec = np.zeros(dim, dtype=np.int64)
    vec[shift] = vec[dim - 1] = 1
    seed = int(field.encode_batch(vec[None, :])[0])
    return build_orbit_scheme(MatrixGroup.from_matrices(field, gens), [seed], m)


HEAVY_CASES = {
    # the four shapes of decompose in the structure benchmark
    "affine-f2^4": (lambda: affine_coset_scheme(4, [1, 2], 0, 40), Fraction(1, 4)),
    "affine-f2^5": (lambda: affine_coset_scheme(5, [1, 3], 2, 40), Fraction(1, 4)),
    "affine-f3^4": (lambda: _translation_scheme(3, 4, [2], 0, 40), Fraction(1, 4)),
    "signed-perm-f3^2": (lambda: signed_perm_scheme(2, 200), Fraction(1, 9)),
    # a line's coset in F_5^3: its four heavy duals share one kernel
    "affine-f5^3": (lambda: _translation_scheme(5, 3, [0], 1, 8), Fraction(1, 9)),
}


@pytest.mark.parametrize("label", sorted(HEAVY_CASES))
def test_heavy_set_searches_each_kernel_once(label, monkeypatch):
    make, eps = HEAVY_CASES[label]
    # the definition: one search per heavy dual, on a scheme of its own
    sch = make()
    b = sch.level1_block_set(0)
    ctx = FourierContext.for_generators(sch.field, b)
    heavy = ctx.heavy_characters(ctx.all_coeffs(b), float(eps))
    want = []
    for dual, coeff in heavy:
        kernel = frozenset(ctx.kernel(dual))
        found = find_constructible(sch, kernel, 2, 2)
        if found is not None:
            want.append((tuple(dual), coeff, kernel, found["arity"], found["prefix"],
                         found["cert"].describe()))
    kernels = {frozenset(ctx.kernel(dual)) for dual, _ in heavy}
    searched = []

    def counted(sch, points, *args):
        searched.append(frozenset(points))
        return find_constructible(sch, points, *args)

    monkeypatch.setattr(refine, "find_constructible", counted)
    total, got = compute_heavy_set(make(), 0, eps)
    assert total == len(heavy)
    assert [(h.dual, h.coeff, h.kernel, h.search_arity, h.prefix, h.certificate.describe())
            for h in got] == want
    assert sorted(searched, key=sorted) == sorted(kernels, key=sorted)
    # on these carriers every nonzero multiple of a heavy dual is heavy
    assert len(heavy) == (sch.field.ell - 1) * len(kernels)


# (ell, dim, generators, number of subgroups of their span)
SUBSPACE_CASES = [
    (2, 4, [1, 2, 4, 8], 67),
    (3, 3, [1, 3, 9], 28),
    (5, 2, [1, 5], 8),
    (2, 5, [3, 6, 12, 17], 67),  # a rank-4 span inside F_2^5
    (3, 4, [1, 10, 31], 28),  # a rank-3 span inside F_3^4
    (2, 3, [0], 1),
]


def gaussian_binomial(r, s, ell):
    """Number of s-dimensional subspaces of F_ell^r."""
    num = den = 1
    for i in range(s):
        num *= ell ** (r - i) - 1
        den *= ell ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("ell, dim, gens, count", SUBSPACE_CASES)
def test_enumerate_subspaces_matches_bfs_oracle(ell, dim, gens, count):
    f = Field(ell, dim)
    got = refine.enumerate_subspaces(f, gens)
    assert got == oracle.subspaces_bfs(f, gens)
    r = span_dim(f, gens)
    per_dim = [gaussian_binomial(r, s, ell) for s in range(r + 1)]
    assert len(got) == count == sum(per_dim)
    assert [sum(len(w) == ell ** s for w in got) for s in range(r + 1)] == per_dim


@pytest.mark.parametrize("ell, dim, gens, count", SUBSPACE_CASES)
def test_enumerate_subspaces_caps_match_bfs_oracle(ell, dim, gens, count):
    # one below the span size, and one below each running count of
    # subgroups of dimension <= s
    f = Field(ell, dim)
    r = span_dim(f, gens)
    running = [sum(gaussian_binomial(r, j, ell) for j in range(s + 1))
               for s in range(1, r + 1)]
    for cap in [ell ** r - 1] + [c - 1 for c in running]:
        with pytest.raises(CapExceeded) as want:
            oracle.subspaces_bfs(f, gens, cap=cap)
        with pytest.raises(CapExceeded) as got:
            refine.enumerate_subspaces(f, gens, cap=cap)
        assert str(got.value) == str(want.value)
        assert (got.value.what, got.value.needed, got.value.cap) == (
            want.value.what, want.value.needed, want.value.cap)
    cap = max(count, ell ** r)  # the least cap that lets the enumeration finish
    assert len(refine.enumerate_subspaces(f, gens, cap=cap)) == count
