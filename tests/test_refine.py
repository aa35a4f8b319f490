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
from mschemes.caps import cap_tuples
from mschemes.errors import (
    CapExceeded,
    EnergyTooLow,
    GateUnmet,
    LemmaViolation,
    PreconditionUnmet,
)
from mschemes.fourier import FourierContext
from mschemes.gf_linalg import Field, span_dim
from mschemes.instances import (
    affine_coset_scheme,
    c11_c5_scheme,
    find_shrink_instances,
    gl_orbit_scheme,
    mul_coset_scheme,
)
from mschemes.refine import (
    BlockRef,
    RefineParams,
    TrivialGate,
    _le_ell_pow,
    _sqrt_bounds,
    bijectivity_check,
    bsg_extract,
    compute_heavy_set,
    decompose,
    density_reduce,
    ineq,
    key_lemma_search,
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


@given(st.integers(1, 50), st.integers(4, 25), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_sqrt_bounds_exactness(value, K, base):
    recs = _sqrt_bounds(value, Fraction(K), base)
    both = all(r["holds"] for r in recs)
    assert both == (K <= value * value and value * value * K <= base * base)


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
    # (every gated carrier has a nu+ value inside the window), so its reads
    # of the membership mask are checked here against the defining loops.
    f = Field(*SLICE_FIELDS[ix])
    ap = sorted(_codes(f, data, 12)) or [0]
    b = sorted(_codes(f, data, 12))
    z_set = set(_codes(f, data, f.q))
    x0 = data.draw(st.sampled_from(ap))
    sizes, piece = refine._z_slices(f, ap, b, z_set, x0)
    assert sizes == [sum(1 for y in b if oracle.add(f, x, y) in z_set) for x in ap]
    assert piece == sorted(y for y in b if oracle.add(f, x0, y) in z_set)


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


def test_scheme_power_preconditions(c11_m2):
    with pytest.raises(PreconditionUnmet):
        scheme_power(c11_m2, BlockRef(1, 0), 3)  # m < 2*k*m'
    power = scheme_power(c11_m2, BlockRef(1, 0), 1)
    assert power.m == 1
    assert power.validate().ok


def test_scheme_power_carrier_is_sum_image():
    base = c11_c5_scheme(8, lazy=True)
    a = BlockRef(2, 1)
    power = scheme_power(base, a, 2)
    assert power.m == 2
    assert power.validate().ok
    # carrier points are coordinate sums of tuples of A
    f = base.field
    rows = base.level(2).blocks()[a.b]
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
            got = refine._group_convolve(f, fa, fb)
            assert list(got.items()) == list(expect.items())
            assert all(type(k) is int and type(v) is int for k, v in got.items())


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
    t_set, neigh, coneigh, piece, worst = _bsg_oracle(sch, gamma)
    adj = refine._difference_adjacency(f, b, t_set)
    for i, x in enumerate(b):
        assert {b[j] for j in range(len(b)) if adj[i, j]} == neigh[x]
        assert {b[j] for j in range(len(b)) if adj[j, i]} == coneigh[x]
    res = bsg_extract(sch, 0, gamma)
    assert len(piece) < len(b)
    assert res.points == tuple(piece) and res.x == b[0]
    assert res.inequalities[-1]["rhs"] == str(worst)


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
    dense export fits the tuple cap, else its materialized levels."""
    if sch.field.q ** sch.m <= cap_tuples():
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


def test_key_lemma_search_cap_and_best(c11_m2):
    res = key_lemma_search(c11_m2, 0, max_prefix_len=1)
    assert res.best is not None and not res.capped
    assert set(res.best.points) < set(c11_m2.level1_block_set(0))
    capped = key_lemma_search(c11_m2, 0, max_prefix_len=1, prefix_cap=2)
    assert capped.prefixes_tried == 2 and capped.capped
    from mschemes.instances import trivial_scheme

    with pytest.raises(PreconditionUnmet):
        key_lemma_search(trivial_scheme(2, 2, 3), 0, 1)  # singleton block


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
