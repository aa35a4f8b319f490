"""Acceptance gate: fourteen numbered criteria, one pass/fail line each.

Every criterion re-verifies the library's claims with independent
recomputation (set arithmetic, quadruple loops, subspace enumeration) rather
than trusting recorded flags, and pins the stated tolerances and runtime
budgets exactly.
"""
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import point_oracle
import scheme_oracle
from mschemes import refine
from mschemes.addcomb import (
    PointSet,
    additive_energy,
    check_covering,
    check_freiman_ruzsa,
    check_plunnecke,
    is_coset,
    subgroup_generated,
    sumset,
    difference_set,
    sum_histogram,
)
from mschemes.antisym import (
    depth_bounds_check,
    depth_measure,
    replay_witness,
    strong_antisym_check,
)
from mschemes.caps import DEFAULT_BUDGET_SATURATION
from mschemes.errors import DepthExhausted, EnergyTooLow, PreconditionUnmet
from mschemes.fourier import FourierContext
from mschemes.gf_linalg import Field, enumerate_linmaps, span_points
from mschemes.group_orbits import DEFAULT_PRIMITIVE_POLY, companion_matrix, frobenius_matrix
from mschemes.instances import (
    affine_coset_scheme,
    c11_c5_scheme,
    c31_c5_scheme,
    find_shrink_instances,
    gl_orbit_scheme,
    mul_coset_scheme,
    signed_perm_scheme,
    singer_scheme,
    trivial_scheme,
)
from mschemes.scheme_core import Scheme, TuplePartition


def _line(capfd, n: int, ok: bool, msg: str):
    """One pass/fail line per criterion, emitted outside pytest's capture."""
    with capfd.disabled():
        sys.stdout.write(f"criterion-{n:02d} {'PASS' if ok else 'FAIL'}: {msg}\n")
        sys.stdout.flush()
    assert ok, f"criterion {n}: {msg}"


# ---------------------------------------------------------------------------
# 1. axiom soundness + seeded corruption
# ---------------------------------------------------------------------------

def test_criterion_01_axiom_soundness(capfd, axiom_suite):
    t0 = time.monotonic()
    for label, sch in axiom_suite:
        rep = sch.validate()
        assert rep.ok, f"{label}: {rep.first() and rep.first().describe()}"

    rng = random.Random(101)
    caught = []
    for label, sch in axiom_suite:
        levels = {k: sch.level(k) for k in range(1, sch.m + 1)}
        raw = levels[2].bid.copy()
        idx = rng.randrange(len(raw))
        raw[idx] = (raw[idx] + 1) % levels[2].num_blocks
        levels[2] = TuplePartition.from_raw(sch.instance, 2, raw)
        bad = Scheme(sch.instance, sch.m, levels=list(levels.values()))
        rep = bad.validate()
        assert not rep.ok, f"{label}: corruption not caught"
        v = rep.first()
        # the witness names the map and both blocks involved
        assert v.tau is not None and v.src_block >= 0 and v.detail
        caught.append(label)

    dt = time.monotonic() - t0
    _line(capfd, 1, len(caught) == 4 and dt < 30,
          f"4/4 schemes valid, 4/4 corruptions caught with named "
          f"(tau,B,B') witnesses in {dt:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 2. linear-relation constancy, per tuple
# ---------------------------------------------------------------------------

def test_criterion_02_linear_relation_constancy(capfd, axiom_suite):
    checked = 0
    for label, sch in axiom_suite:
        f = sch.field
        zero = f.zero
        for k in range(1, sch.m + 1):
            tuples = sch.instance.tuples_array(k)
            bid = sch.level(k).bid
            order = np.argsort(bid, kind="stable")
            sb = bid[order]
            boundaries = np.flatnonzero(np.diff(sb)) + 1
            for tau in enumerate_linmaps(f, k, 1):
                vals = tau.apply_batch(f, tuples)[:, 0]
                mask = (vals == zero)[order]
                # per-tuple: within every block the relation tau(x)=0 is
                # constant
                segs = np.split(mask, boundaries)
                assert all(seg.all() or not seg.any() for seg in segs), \
                    f"{label} k={k}: relation not block-constant"
                checked += 1
    _line(capfd, 2, True, f"{checked} (scheme, arity, relation) triples "
                   f"block-constant per tuple")


# ---------------------------------------------------------------------------
# 3. fiber laws
# ---------------------------------------------------------------------------

def test_criterion_03_fiber_laws(capfd, axiom_suite):
    t0 = time.monotonic()
    pairs = 0
    for label, sch in axiom_suite:
        for x in sch.s_codes:
            fib = sch.fiber((x,))
            assert fib.m == sch.m - 1
            assert fib.validate().ok, f"{label}: fibre at {x} invalid"
            assert scheme_oracle.refines(fib.level(1), sch.level(1))
            if sch.m < 3:
                continue
            for y in sch.s_codes:
                two_step = fib.fiber((y,))
                one_shot = sch.fiber((x, y))
                for k in range(1, sch.m - 1):
                    assert np.array_equal(two_step.level(k).bid,
                                          one_shot.level(k).bid), \
                        f"{label}: iterated != one-shot at ({x},{y}) level {k}"
                pairs += 1
    dt = time.monotonic() - t0
    _line(capfd, 3, dt < 60, f"fibres valid+refining for all x; iterated = one-shot "
                      f"on {pairs} (x,y) prefixes in {dt:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 4. antisymmetry engine
# ---------------------------------------------------------------------------

def test_criterion_04_antisym_engine(capfd, gl2_m3):
    v = strong_antisym_check(gl2_m3)
    assert v.status == "witness"
    assert len(v.witness.word) == 1, "expected a single-letter (swap) word"
    assert replay_witness(gl2_m3, v.witness)

    finest = trivial_scheme(2, 2, 3)
    assert strong_antisym_check(finest).status == "antisymmetric"

    suite = [
        ("gl2-m3", lambda: gl_orbit_scheme(2, 2, 3)),
        ("singer7-m3", lambda: singer_scheme(2, 3, 3)),
        ("finest", lambda: trivial_scheme(2, 2, 3)),
        ("c11c5-m2", lambda: c11_c5_scheme(2)),
        ("c31c5-m2", lambda: c31_c5_scheme(2)),
    ]
    stable = True
    for label, build in suite:
        statuses = [strong_antisym_check(build(), budget).status
                    for budget in (DEFAULT_BUDGET_SATURATION,
                                   2 * DEFAULT_BUDGET_SATURATION,
                                   4 * DEFAULT_BUDGET_SATURATION)]
        assert len(set(statuses)) == 1, f"{label}: budget doubling flipped " \
                                        f"{statuses}"
        stable = stable and len(set(statuses)) == 1
    _line(capfd, 4, stable, "swap witness word length 1 replayed; finest scheme "
                     "Antisymmetric; verdicts stable under budget x2 and x4")


# ---------------------------------------------------------------------------
# 5. depth bounds
# ---------------------------------------------------------------------------

def test_criterion_05_depth_bounds(capfd, c11_m2, c31_m2):
    results = []
    for label, sch in (("c11c5-m2", c11_m2), ("c31c5-m2", c31_m2)):
        assert strong_antisym_check(sch).status == "antisymmetric"
        rep = depth_bounds_check(sch)
        assert rep.ok
        n_b = int(sch.level(1).sizes[0])
        try:
            trace = depth_measure(sch, 0)
        except DepthExhausted as exc:
            trace = exc.trace  # isolation always outruns the declared depth
        assert trace.count <= math.floor(math.log2(n_b))
        assert trace.count < rep.span_dim
        prev = n_b
        for step in trace.steps:
            assert 1 < step.tracked and 2 * step.tracked <= prev, \
                f"{label}: halving failed {prev}->{step.tracked}"
            prev = step.tracked
        results.append(f"{label} |B|={n_b} fixings={trace.count}")
    _line(capfd, 5, True, "; ".join(results) +
          " — each <= floor(log2|B|), < span_dim, halving at every step")


# ---------------------------------------------------------------------------
# 6. additive-combinatorics oracles
# ---------------------------------------------------------------------------

def _addcomb_sweep_checks(a: PointSet):
    assert additive_energy(a) == point_oracle.energy_quadruple_loop(a)
    if len(a) == 0:
        return
    if is_coset(a):
        assert additive_energy(a) == len(a) ** 3
    h, bound, cov_ok = check_covering(a)
    mu = Fraction(len(a), len(subgroup_generated(a)))
    assert cov_ok and h <= max(2, int(Fraction(3) / (2 * mu)))
    _, fr_ok = check_freiman_ruzsa(a)
    assert fr_ok
    _, pl_ok = check_plunnecke(a, a, 2)
    assert pl_ok


def test_criterion_06_addcomb_oracles(capfd):
    f3 = Field(2, 3)
    universe = list(range(1, 8))
    cosets = 0
    for bits in range(2 ** 7):
        codes = [c for i, c in enumerate(universe) if bits >> i & 1]
        a = PointSet.from_codes(f3, codes)
        cosets += 1 if codes and is_coset(a) else 0
        _addcomb_sweep_checks(a)

    f4 = Field(2, 4)
    rng = random.Random(1604)
    for _ in range(200):
        codes = rng.sample(range(1, 16), rng.randint(1, 15))
        _addcomb_sweep_checks(PointSet.from_codes(f4, codes))

    _line(capfd, 6, cosets > 0,
          f"energy = quadruple count on 128 exhaustive + 200 random sets; "
          f"E=|A|^3 on {cosets} cosets; covering/Freiman-Ruzsa/Plunnecke "
          f"exact throughout")


# ---------------------------------------------------------------------------
# 7. Fourier
# ---------------------------------------------------------------------------

def test_criterion_07_fourier(capfd):
    rng = random.Random(7)
    worst = 0.0
    for ell, dim, trials in [(2, 4, 8), (2, 6, 6), (3, 4, 6), (5, 3, 6),
                             (2, 12, 2)]:
        f = Field(ell, dim)
        gens = [int(f.encode_batch(np.eye(dim, dtype=np.int64)[i][None, :])[0])
                for i in range(dim)]
        ctx = FourierContext.for_generators(f, gens)
        assert ctx.order == ell ** dim <= 2 ** 12
        group = list(range(ctx.order))
        for _ in range(trials):
            subset = rng.sample(group, rng.randint(1, min(64, ctx.order)))
            coeffs = ctx.all_coeffs(subset)
            _, _, perr = ctx.parseval_check(subset, coeffs)
            ierr = ctx.inversion_check(subset, coeffs)
            worst = max(worst, perr, ierr)
            assert perr <= 1e-9 and ierr <= 1e-9

    f22 = Field(2, 2)
    ctx = FourierContext.for_generators(f22, [1, 2, 3])
    table = {}
    for dual in point_oracle.dual_vectors(ctx):
        table[tuple(dual)] = point_oracle.coeff(ctx, {1, 2, 3}, dual)
    triv = tuple([0] * len(next(iter(table))))
    assert abs(table[triv] - 0.75) <= 1e-12
    for dual, c in table.items():
        if dual != triv:
            assert abs(c - (-0.25)) <= 1e-12
    _line(capfd, 7, True, f"Parseval/inversion residuals <= 1e-9 (worst {worst:.2e}) "
                   f"on groups up to 2^12; worked 4-entry table "
                   f"{{3/4,-1/4,-1/4,-1/4}} within 1e-12")


# ---------------------------------------------------------------------------
# 8. shrink_weak on 50 gated instances
# ---------------------------------------------------------------------------

def test_criterion_08_shrink_weak(capfd):
    branches = {"nu-window": 0, "z-complement": 0}
    total = 0
    for K in (4, 9):
        found = find_shrink_instances(K, 25)
        assert len(found) == 25, f"only {len(found)} instances pass the gate"
        for params, sch in found:
            out = refine.shrink_weak(sch, 0, refine.BlockRef(1, 0), K)
            # exact sqrt(K) bound, by squaring
            assert out.min_ratio ** 2 >= K, f"{params}: ratio {out.min_ratio}"
            branches[out.case] += 1
            total += 1
            # |Z_x|-constancy is asserted inside the complement branch; the
            # slice-size machinery is probed directly on every instance
            b_codes = [int(c) for c in sorted(sch.s_codes)]
            hist = sum_histogram(PointSet.from_codes(sch.field, b_codes),
                                 PointSet.from_codes(sch.field, b_codes))
            z_set = {z for z, c in hist.items() if c * c < K}
            sizes = set(refine.z_slice_sizes(sch.field, b_codes, b_codes,
                                             z_set).values())
            assert len(sizes) == 1, f"{params}: |Z_x| not constant"
    _line(capfd, 8, total == 50,
          f"50/50 instances (25 per K in {{4,9}}) meet min{{|B'|,|B|/|B'|}} "
          f">= sqrt(K) exactly; branches {branches}; |Z_x| constant on every "
          f"carrier (complement branch asserted in-code when taken)")


# ---------------------------------------------------------------------------
# 9. partial_sumset_search
# ---------------------------------------------------------------------------

def test_criterion_09_sumset_search(capfd):
    # case 1: the gate holds, a fibre shrink comes back
    sch1 = mul_coset_scheme(3, 4, 20, 1, 0, m=10)
    res1 = refine.partial_sumset_search(sch1, 0, Fraction(4))
    assert isinstance(res1, (refine.ShrinkOutcome, refine.SumsetCase2))
    assert isinstance(res1, refine.ShrinkOutcome)
    assert res1.min_ratio ** 2 >= 4
    assert all(r["holds"] for st in res1.steps for r in st.inequalities)

    # case 2: a coset block with bijective sums and tiny doubling
    sch2 = affine_coset_scheme(6, (0, 1, 2, 3), 4, m=20)
    K = Fraction(2)
    res2 = refine.partial_sumset_search(sch2, 0, K)
    assert isinstance(res2, (refine.ShrinkOutcome, refine.SumsetCase2))
    assert isinstance(res2, refine.SumsetCase2)
    k = res2.a.k
    n_b = len(sch2.s_codes)
    n_a = int(sch2.level(k).sizes[res2.a.b])
    ap = PointSet.from_codes(sch2.field, res2.aprime)
    # |A'+A'| <= K^{2k}|A'|, recomputed by direct set arithmetic
    assert Fraction(len(sumset(ap, ap))) <= K ** (2 * k) * len(ap)
    # loop invariant |B|^{2k} <= |A|^2 K^{k-1}
    assert Fraction(n_b) ** (2 * k) <= Fraction(n_a) ** 2 * K ** (k - 1)
    assert refine.bijectivity_check(sch2, res2.a)
    assert all(r["holds"] for st in res2.steps for r in st.inequalities)

    _line(capfd, 9, True,
          f"case-1 shrink ratio {res1.min_ratio} (>= sqrt(4)); case-2 at "
          f"arity {k}: |A'+A'| <= K^(2k)|A'| and invariants recomputed "
          f"exactly; no third outcome type")


# ---------------------------------------------------------------------------
# 10. scheme_power
# ---------------------------------------------------------------------------

def test_criterion_10_scheme_power(capfd, c11_m2, c31_m2):
    # witness-verdict base: power validates and sigma is bijective per block
    base = c11_c5_scheme(8)
    a = refine.BlockRef(2, 1)
    assert refine.bijectivity_check(base, a)
    power = refine.scheme_power(base, a, 2)  # m = 8 >= 2*k*m' = 8
    assert power.validate().ok
    # sigma bijectivity, recomputed: block rows have pairwise distinct sums
    lvl = base.level(2)
    rows = base.instance.tuples_array(2)[lvl.block(1)]
    f = base.field
    sums = f.encode_batch((f.decode_batch(rows[:, 0]) +
                           f.decode_batch(rows[:, 1])) % f.ell)
    assert len(set(int(s) for s in sums)) == len(rows)
    # round trip: fibre blocks of the power lift to base fibre blocks
    x0 = power.s_codes[0]
    fib = power.fiber((x0,))
    y1 = scheme_oracle.tuple_index(power.instance, (power.s_codes[1],))
    bid0 = int(fib.level(1).bid[y1])
    y_prefix, ids, lifted = refine.lift_block(base, a, power, (x0,), [bid0])
    assert len(y_prefix) == a.k and len(lifted) >= 1

    # antisymmetric bases: the verdict carries over to the power
    preserved = []
    for label, sch in (("c11c5-m2", c11_m2), ("c31c5-m2", c31_m2)):
        assert strong_antisym_check(sch).status == "antisymmetric"
        pw = refine.scheme_power(sch, refine.BlockRef(1, 0), 1)
        assert pw.validate().ok
        assert strong_antisym_check(pw).status == "antisymmetric"
        preserved.append(label)
    _line(capfd, 10, len(preserved) == 2,
          "powers validate; sigma bijective per block (recomputed); "
          "Antisymmetric verdicts preserved on " + ", ".join(preserved))


# ---------------------------------------------------------------------------
# 11. bsg_extract
# ---------------------------------------------------------------------------

def test_criterion_11_bsg_extract(capfd):
    lines = []
    for ell, dim in ((2, 4), (2, 3)):
        sch = gl_orbit_scheme(ell, dim, 4)
        f = sch.field
        b_codes = sorted(sch.s_codes)
        bset = PointSet.from_codes(f, b_codes)
        n = len(bset)
        for gamma in (Fraction(1, 2), Fraction(1, 4)):
            assert additive_energy(bset) >= gamma * n ** 3
            res = refine.bsg_extract(sch, 0, gamma)
            piece = PointSet.from_codes(f, res.points)
            assert Fraction(len(piece)) >= gamma * n / 3
            assert Fraction(len(difference_set(piece, piece))) \
                < 2 ** 17 * gamma ** -9 * n
            assert all(r["holds"] for r in res.inequalities)
            lines.append(f"F_{ell}^{dim} gamma={gamma}: |B'|={len(piece)}")
    # low-energy blocks refuse instead of emitting junk
    low = mul_coset_scheme(3, 4, 10, 1, 0, m=4)
    with pytest.raises(EnergyTooLow):
        refine.bsg_extract(low, 0, Fraction(1, 2))
    _line(capfd, 11, True, "; ".join(lines) +
          " — |B'|>=gamma|B|/3 and |B'-B'|<2^17 gamma^-9 |B| exact")


# ---------------------------------------------------------------------------
# 12. decompose
# ---------------------------------------------------------------------------

def _all_subspaces(field, max_span_subset):
    """Every subspace of the ambient space, as frozensets of codes, by
    brute-force span enumeration over small generator subsets."""
    codes = [c for c in range(field.q) if c != field.zero]
    out = {frozenset([field.zero])}
    for r in range(1, max_span_subset + 1):
        for gens in itertools.combinations(codes, r):
            out.add(frozenset(int(c) for c in span_points(field, gens)))
    return out


def _verify_sunflower(sch, dec, eps_prime, kp, spaces):
    eps_prime = Fraction(eps_prime)
    f = sch.field
    b = set(sch.level1_block_set(0))
    hub = frozenset(dec.hub)
    leaves = [frozenset(w) for w in dec.leaves]
    assert hub in spaces                                   # (1) hub subspace
    assert not (b & hub)                                   # (2) B ∩ H = ∅
    for w in leaves:                                       # (3) hyperplanes
        assert w in spaces and hub < w and len(w) == f.ell * len(hub)
    for w1, w2 in itertools.combinations(leaves, 2):       # (4) intersections
        assert w1 & w2 == hub
    covered = [b & w for w in leaves]                      # (5) partition
    assert set().union(*covered) == b
    assert sum(len(c) for c in covered) == len(b)
    counts = {len(c) for c in covered}                     # (6) equal counts
    assert len(counts) == 1
    inv = Fraction(1) / eps_prime ** 2                     # (7) |C| bound
    assert refine._le_ell_pow(Fraction(len(leaves)), Fraction(1), f.ell, inv)
    # density dichotomy, recomputed from raw intersections
    span_size = len(span_points(f, sorted(b)))
    mu = Fraction(len(b), span_size)
    t = int(Fraction(3, 2) / mu) + 1
    family = [(frozenset(h.kernel), h.search_arity + len(h.prefix))
              for h in dec.heavy] + [(w, t + 1) for w in leaves]
    pairs = 0
    for w in leaves:
        mu_w = Fraction(len(b & w), len(w))
        for wp, kpp in family:
            inter = w & wp
            d = 0
            while len(inter) * f.ell ** d < span_size:
                d += 1
            if kp < kpp + d * t + 1:
                continue  # outside the arity budget of the family at k'
            mu_i = Fraction(len(b & inter), len(inter))
            near = abs(mu_i - mu_w) <= Fraction(f.ell) ** d * eps_prime
            zero = mu_i == 0 and inter <= hub
            assert near or zero, f"dichotomy fails on |W∩W'|={len(inter)}"
            pairs += 1
    assert pairs > 0, "dichotomy vacuous: no pair passed the arity gate"
    assert all(p["holds"] for p in dec.properties)


def test_criterion_12_decompose(capfd):
    t0 = time.monotonic()
    # hyperplane-concentrated over F_2^4: a coset of a 2-dim subspace
    sch2 = affine_coset_scheme(4, (0, 1), 2, m=40)
    dec2 = refine.decompose(sch2, 0, kp=10, eps_prime=Fraction(1, 4),
                            full_w_family=True)
    assert isinstance(dec2, refine.Decomposition)
    assert dec2.heavy, "X must be nonempty"
    spaces2 = _all_subspaces(sch2.field, 4)
    assert len(spaces2) <= 2 ** 12
    _verify_sunflower(sch2, dec2, Fraction(1, 4), 10, spaces2)

    # hyperplane-concentrated over F_3^3: the signed cross-polytope
    sch3 = signed_perm_scheme(3, m=200)
    dec3 = refine.decompose(sch3, 0, kp=50, eps_prime=Fraction(1, 9))
    assert isinstance(dec3, refine.Decomposition)
    assert dec3.heavy
    spaces3 = _all_subspaces(sch3.field, 3)
    assert len(spaces3) <= 2 ** 12
    _verify_sunflower(sch3, dec3, Fraction(1, 9), 50, spaces3)

    # flat set: the full GL-orbit is pseudorandom at this threshold
    flat = gl_orbit_scheme(2, 4, 30)
    gate = refine.decompose(flat, 0, kp=2, eps_prime=Fraction(1, 4))
    assert isinstance(gate, refine.TrivialGate)
    kind, records = refine.two_case_check(flat, 0, 1, Fraction(1, 4))
    assert kind == "pseudorandom" and records
    assert all(rec["holds"] for rec in records)
    # independent recomputation over the same enumerated family
    f = flat.field
    b = set(flat.level1_block_set(0))
    mu_b = Fraction(len(b), len(span_points(f, sorted(b))))
    fam = list(refine.enumerate_w_family(flat, 0, 1))
    assert len(fam) == len(records)
    for sub, _ in fam:
        mu_w = Fraction(len(b & sub), len(sub))
        assert abs(mu_w - mu_b) <= Fraction(1, 4)
    dt = time.monotonic() - t0
    _line(capfd, 12, dt < 300,
          f"sunflowers over F_2^4 ({len(dec2.leaves)} leaf) and F_3^3 "
          f"({len(dec3.leaves)} leaves): 7/7 properties re-verified against "
          f"{len(spaces2)}/{len(spaces3)} enumerated subspaces; flat set -> "
          f"TrivialGate + pseudorandom family checks; {dt:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# 13. density_reduce
# ---------------------------------------------------------------------------

def test_criterion_13_density_reduce(capfd):
    # completed run: density rounds off, two cardinality rounds, sandwich
    sch = gl_orbit_scheme(2, 4, 30)
    p_done = refine.RefineParams(K=2, k=1, r=0, eps=Fraction(1, 4),
                                 gamma=Fraction(19, 20), strict=False,
                                 r_shrink=2)
    done = refine.density_reduce(sch, 0, p_done)
    assert done.outcome == "completed"
    assert all(r["holds"] for st in done.steps for r in st.inequalities)
    n0, n_u = done.parent_size, len(done.points)
    K, g, r2 = Fraction(2), Fraction(19, 20), 2
    inv = (Fraction(2) ** 1 / Fraction(1, 4)) ** 2  # (1/eps')^2, eps'=eps/ell^k
    assert Fraction(n_u) <= max(1 / K, (2 * g) ** r2) * n0
    assert refine._le_ell_pow(Fraction(n0) / K ** 3, Fraction(n_u), 2, inv)

    # case-1 run: the split branch fires with N/2 <= |B'| <= N
    schA = c11_c5_scheme(40)
    p_a = refine.RefineParams(K=2, k=1, r=2, eps=Fraction(1, 4),
                              gamma=Fraction(1, 2), strict=False)
    res_a = refine.density_reduce(schA, 0, p_a)
    assert res_a.outcome == "case1"
    split = [s for s in res_a.steps if s.branch == "case1-split"]
    assert split
    n = Fraction(res_a.parent_size, 2)
    assert n / 2 <= len(res_a.points) <= n
    assert all(r["holds"] for st in res_a.steps for r in st.inequalities)

    # halving run: one density round halves mu, then a direct exit
    p_h = refine.RefineParams(K=2, k=1, r=2, eps=Fraction(1, 4),
                              gamma=Fraction(19, 20), strict=False,
                              r_shrink=0, search_arity=2, search_prefix=2)
    res_h = refine.density_reduce(sch, 0, p_h)
    branches = [s.branch for s in res_h.steps]
    assert branches[0] == "halving" and "case1" in res_h.outcome
    halve = res_h.steps[0].inequalities[0]
    assert halve["holds"] and "mu" in halve["note"]
    assert all(r["holds"] for st in res_h.steps for r in st.inequalities)

    # bad-parameter matrix: named aborts in strict mode
    matrix = [
        (dict(K=1, k=8, r=1, eps=Fraction(1, 4), gamma=Fraction(1, 2)), "K>1"),
        (dict(K=2, k=8, r=1, eps=Fraction(3, 2), gamma=Fraction(1, 2)),
         "0<eps<1"),
        (dict(K=2, k=8, r=1, eps=Fraction(1, 4), gamma=Fraction(0)),
         "0<gamma"),
        (dict(K=2, k=1, r=1, eps=Fraction(1, 4), gamma=Fraction(1, 2)),
         "k>=2t"),
        (dict(K=2, k=8, r=1, eps=Fraction(1, 4), gamma=Fraction(1, 2)),
         "m>=4k'+2"),
    ]
    for kw, expected in matrix:
        with pytest.raises(PreconditionUnmet) as exc:
            refine.density_reduce(sch, 0, refine.RefineParams(strict=True,
                                                              **kw))
        assert exc.value.name == expected, \
            f"expected abort {expected!r}, got {exc.value.name!r}"
    _line(capfd, 13, True,
          "halving / split / sandwich inequalities recomputed exactly on "
          "three traces; 5/5 bad parameter sets abort with the correctly "
          "named inequality")


# ---------------------------------------------------------------------------
# 14. CLI determinism
# ---------------------------------------------------------------------------

def _matrix_spec(mats):
    return json.dumps({"kind": "custom",
                       "generators": [[[int(v) for v in row] for row in m]
                                      for m in mats]})


def test_criterion_14_cli_determinism(capfd, tmp_path):
    from mschemes.cli import main as cli_main

    f5 = Field(2, 5)
    c31_spec = _matrix_spec([companion_matrix(f5, DEFAULT_PRIMITIVE_POLY[(2, 5)]),
                             frobenius_matrix(f5)])
    scheme_json = tmp_path / "scheme.json"
    commands = {
        "gen-orbit": ["gen-orbit", "--ell", "2", "--dim", "3", "--group",
                      '{"kind":"gl"}', "--seed-set", "1", "--m", "2",
                      "--out", str(scheme_json)],
        "validate": ["validate", "--in", str(scheme_json)],
        "antisym": ["antisym", "--in", str(scheme_json)],
        "fiber": ["fiber", "--in", str(scheme_json), "--fix", "1"],
        "depth": ["depth", "--ell", "2", "--dim", "5", "--group", c31_spec,
                  "--seed-set", "16", "--m", "2"],
        "addcomb": ["addcomb", "--ell", "2", "--dim", "3", "--set",
                    "1 2 3 4 5 6 7"],
        "fourier": ["fourier", "--ell", "2", "--dim", "2", "--set", "1 2 3",
                    "--eps-prime", "1/8"],
        "decompose": ["decompose", "--ell", "2", "--dim", "4", "--group",
                      '{"kind":"gl"}', "--seed-set", "1", "--m", "8",
                      "--k", "2", "--eps-prime", "1/4"],
        "shrink": ["shrink", "--ell", "2", "--dim", "4", "--group",
                   '{"kind":"gl"}', "--seed-set", "1", "--m", "7",
                   "--K", "2", "--search"],
    }
    identical = 0
    for name, argv in commands.items():
        reports = []
        for run in (1, 2):
            rp = tmp_path / f"{name}-{run}.json"
            rc = cli_main(argv + ["--report", str(rp)])
            assert rc == 0, f"{name}: exit {rc}"
            reports.append(rp.read_bytes())
        assert reports[0] == reports[1], f"{name}: reports differ"
        identical += 1

    # and across separate processes, through the module entry point of the
    # package under test, each child under its own hash seed
    import mschemes

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        mschemes.__file__)))
    pythonpath = os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    out = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "mschemes", "addcomb", "--ell", "2",
             "--dim", "4", "--set", "1 2 3 4 5 6 7 8 9"],
            capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        out.append(proc.stdout)
    assert out[0], "entry point wrote nothing to stdout"
    assert json.loads(out[0])["size"] == 9
    assert out[0] == out[1]
    _line(capfd, 14, identical == 9,
          f"{identical}/9 subcommand reports byte-identical across repeated "
          f"in-process runs; entry-point output byte-identical across "
          f"processes")
