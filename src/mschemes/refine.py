"""Constructive refinement engines on partition schemes.

Every routine here executes a constructive argument step by step and
re-verifies each claimed inequality exactly (integers / fractions.Fraction);
when a claim that should follow from the checked preconditions fails, the
run aborts with LemmaViolation rather than papering over it.  Each driver
returns a trace: an ordered list of steps with the branch taken and the
inequalities checked, suitable for byte-stable JSON reports.

Contents:
  * nu_plus / shrink_weak         - sumset-window fibre shrinking
  * bijectivity_check             - when the coordinate sum is injective on a block
  * partial_sumset_search         - the three-case growth loop
  * scheme_power / lift_block     - power schemes on summed blocks, and lifting
  * bsg_extract                   - dense-piece extraction from high additive energy
  * decompose / two_case_check    - heavy characters, sunflower decomposition
  * density_reduce                - iterated density / cardinality reduction
  * key_lemma_search              - bounded search for the best shrinking fibre
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .addcomb import (
    PointSet,
    additive_energy,
    diff_histogram,
    difference_set,
    subgroup_generated,
    sum_histogram,
    sumset,
)
from .constructible import Certificate, decide_constructible, find_constructible_prefix
from .errors import (
    CapExceeded,
    DepthExhausted,
    EmptyReference,
    EnergyTooLow,
    GateUnmet,
    InputError,
    LemmaViolation,
    PreconditionUnmet,
)
from .fourier import FourierContext
from .gf_linalg import (digit_rows, member_mask, radix_digits, span_basis, span_dim,
                        span_points, summation, unique_sorted)
from .scheme_core import Scheme, SchemeInstance, TuplePartition

__all__ = [
    "BlockRef",
    "RefineParams",
    "ShrinkOutcome",
    "SumsetCase2",
    "Decomposition",
    "TrivialGate",
    "nu_plus",
    "shrink_weak",
    "bijectivity_check",
    "partial_sumset_search",
    "scheme_power",
    "lift_block",
    "bsg_extract",
    "compute_heavy_set",
    "enumerate_w_family",
    "two_case_check",
    "decompose",
    "density_reduce",
    "key_lemma_search",
]


# ---------------------------------------------------------------------------
# shared record types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockRef:
    """A block at a given arity: (arity k, block id in the level-k partition)."""

    k: int
    b: int


def ineq(lhs, op: str, rhs, note: str = "") -> dict:
    """Exact comparison record.  lhs/rhs are ints or Fractions."""
    lhs_f, rhs_f = Fraction(lhs), Fraction(rhs)
    holds = {
        "<=": lhs_f <= rhs_f,
        "<": lhs_f < rhs_f,
        ">=": lhs_f >= rhs_f,
        ">": lhs_f > rhs_f,
        "==": lhs_f == rhs_f,
    }[op]
    rec = {"lhs": str(lhs_f), "op": op, "rhs": str(rhs_f), "holds": bool(holds)}
    if note:
        rec["note"] = note
    return rec


def require_ineqs(lemma: str, records: Sequence[dict]):
    for rec in records:
        if not rec["holds"]:
            raise LemmaViolation(
                f"{lemma}: {rec.get('note', '')} {rec['lhs']} {rec['op']} {rec['rhs']} fails"
            )


@dataclass
class TraceStep:
    lemma: str
    branch: str
    prefix: tuple
    sizes: dict
    inequalities: list

    def to_obj(self):
        return {
            "lemma": self.lemma,
            "branch": self.branch,
            "prefix": list(self.prefix),
            "sizes": dict(self.sizes),
            "inequalities": list(self.inequalities),
        }


@dataclass
class ShrinkOutcome:
    """A shrunken level-1 piece inside a fibre of the scheme."""

    case: str
    fiber_prefix: tuple  # point codes fixed, in order
    result_ids: frozenset  # block ids at level 1 of the fibered scheme
    points: tuple  # the piece itself, sorted point codes
    parent_size: int
    steps: list

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def min_ratio(self) -> Fraction:
        return min(Fraction(self.size), Fraction(self.parent_size, self.size))

    def to_obj(self):
        return {
            "case": self.case,
            "prefix": list(self.fiber_prefix),
            "result_ids": sorted(self.result_ids),
            "size": self.size,
            "parent_size": self.parent_size,
            "min_ratio": str(self.min_ratio),
            "steps": [s.to_obj() for s in self.steps],
        }


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def _level1_union_ids(sch: Scheme, codes) -> frozenset:
    """Express a point set as a union of level-1 blocks (or raise)."""
    return sch.level(1).ids_as_union(sch.instance.pos(codes))


def _le_ell_pow(lhs: Fraction, rhs: Fraction, ell: int, exp: Fraction) -> bool:
    """Exact check of lhs <= rhs * ell**exp for rational exp, positive rhs."""
    lhs, rhs, exp = Fraction(lhs), Fraction(rhs), Fraction(exp)
    if rhs <= 0:
        raise InputError("power comparison against non-positive rhs")
    if lhs <= 0:
        return True
    num, den = exp.numerator, exp.denominator
    if abs(num) > 10 ** 6 or den > 10 ** 3:
        raise CapExceeded("exact power comparison exponent", abs(num), 10 ** 6)
    # lhs/rhs <= ell^(num/den)  <=>  (lhs/rhs)^den <= ell^num
    return (lhs / rhs) ** den <= Fraction(ell) ** num


def _sqrt_bounds(value: int, K: Fraction, upper_base: int):
    """Records for sqrt(K) <= value <= upper_base / sqrt(K), exactly (squared)."""
    v = Fraction(value)
    return [
        ineq(K, "<=", v * v, note="sqrtK<=value (squared)"),
        ineq(v * v * K, "<=", Fraction(upper_base) ** 2,
             note="value<=base/sqrtK (squared)"),
    ]


# ---------------------------------------------------------------------------
# nu^+ counting and the weak shrink
# ---------------------------------------------------------------------------


def nu_plus(aprime: PointSet, b: PointSet, z: int) -> int:
    """#{(x, y) in A' x B : x + y = z}, exact."""
    return sum_histogram(aprime, b).get(int(z), 0)


def _codes_array(codes) -> np.ndarray:
    return np.fromiter(map(int, codes), dtype=np.int64)


def _z_mask(field, ap_codes, b_codes, z_set) -> np.ndarray:
    """|A'| x |B| boolean mask of x + y in Z."""
    sums = field.add_codes(_codes_array(ap_codes)[:, None],
                           _codes_array(b_codes)[None, :])
    return member_mask(sums, _codes_array(z_set))


def _z_slices(field, ap_codes, b_codes, z_set, x0):
    """The complement branch's reads of one membership mask: |Z_x| for each
    x in A' in order, and the piece {y in B : x0 + y in Z} in B's order."""
    mask = _z_mask(field, ap_codes, b_codes, z_set)
    piece = _codes_array(b_codes)[mask[list(ap_codes).index(x0)]].tolist()
    return mask.sum(axis=1).tolist(), piece


def z_slice_sizes(field, ap_codes, b_codes, z_set) -> dict:
    """x -> |{y in B : x + y in Z}| for every x in A'.

    The complement branch of the fibre shrink relies on these sizes being
    equal for all x; exposing the computation lets that claim be probed
    independently of the branch logic."""
    ap_codes = list(ap_codes)
    counts = _z_mask(field, ap_codes, b_codes, z_set).sum(axis=1)
    return dict(zip(ap_codes, counts.tolist()))


def shrink_weak(sch: Scheme, b: int, a: BlockRef, K) -> ShrinkOutcome:
    """Shrink B through a fibre found by nu^+ counting on A' + B.

    A is an arity-k block with A ⊆ B^k, A' its coordinate-sum image.  Under
    the gate K|A'| <= |A'+B| <= |A'||B|/K (K >= 4, m >= 2k+2) produces
    x_1..x_{k+1} in B and a level-1 piece B' of the fibered scheme with
    sqrt(K) <= |B'| <= |B|/sqrt(K), via one of two branches: a sum value z
    whose fibre count lands in the window, else the complement construction
    whose per-point slice sizes are constant (checked).
    """
    K = Fraction(K)
    k = a.k
    if K < 4:
        raise PreconditionUnmet("K>=4", f"K={K}")
    if sch.m < 2 * k + 2:
        raise PreconditionUnmet("m>=2k+2", f"m={sch.m}, k={k}")
    inst = sch.instance
    f = inst.field
    b_codes = sch.level1_block_set(b)
    b_set = set(b_codes)
    part = sch.level(k)
    rows = part.block(a.b)
    a_tuples = inst.tuples_array(k)[rows]
    if not all(int(c) in b_set for c in a_tuples.reshape(-1)):
        raise PreconditionUnmet("A⊆B^k", "block A has coordinates outside B")
    sig = summation(k).apply_batch(f, a_tuples)[:, 0]
    ap_codes = sorted(set(int(c) for c in sig))
    b_ps = PointSet.from_codes(f, b_codes)
    ap_ps = PointSet.from_codes(f, ap_codes)
    hist = sum_histogram(ap_ps, b_ps)
    n_b, n_ap, n_sum = len(b_codes), len(ap_codes), len(hist)

    gate_lo = ineq(K * n_ap, "<=", n_sum, note="K|A'|<=|A'+B|")
    gate_hi = ineq(n_sum, "<=", Fraction(n_ap * n_b) / K, note="|A'+B|<=|A'||B|/K")
    if not gate_lo["holds"]:
        raise GateUnmet("K|A'|<=|A'+B|", f"{K * n_ap} > {n_sum}")
    if not gate_hi["holds"]:
        raise GateUnmet("|A'+B|<=|A'||B|/K", f"{n_sum} > {Fraction(n_ap * n_b) / K}")
    if sum(hist.values()) != n_ap * n_b:
        raise LemmaViolation("nu+ mass: sum_z nu+(z) != |A'||B|")

    # sqrt(K) <= nu+(z) <= |B|/sqrt(K), squared and cleared of K's denominator
    kn, kd = K.numerator, K.denominator
    window = [z for z in sorted(hist)
              if hist[z] ** 2 * kd >= kn and hist[z] ** 2 * kn <= n_b ** 2 * kd]
    steps = [TraceStep("shrink_weak", "gate", (), {
        "|B|": n_b, "|A'|": n_ap, "|A'+B|": n_sum, "k": k,
    }, [gate_lo, gate_hi])]

    if window:
        z = window[0]
        b_arr = _codes_array(b_codes)
        xk1s = f.sub_codes(z, sig)
        hits = np.flatnonzero(member_mask(xk1s, b_arr))
        if not len(hits):
            raise LemmaViolation("shrink_weak: no tuple of A sums with B to z")
        i = int(hits[0])
        prefix = tuple(int(c) for c in a_tuples[i]) + (int(xk1s[i]),)
        in_ap = member_mask(f.sub_codes(z, b_arr), _codes_array(ap_codes))
        t_codes = b_arr[in_ap].tolist()
        recs = [ineq(len(t_codes), "==", hist[z], note="|T|=nu+(z)")]
        recs += _sqrt_bounds(len(t_codes), K, n_b)
        require_ineqs("shrink_weak/nu-window", recs)
        fib = sch.fiber(prefix)
        ids = _level1_union_ids(fib, t_codes)
        steps.append(TraceStep("shrink_weak", "nu-window", prefix, {
            "z": z, "nu+(z)": hist[z], "|B'|": len(t_codes),
        }, recs))
        return ShrinkOutcome("nu-window", prefix, ids, tuple(t_codes), n_b, steps)

    # complement branch: every z has nu+(z) < sqrt(K) or > |B|/sqrt(K)
    z_set = {z for z in hist if hist[z] ** 2 * kd < kn}
    x0 = int(sig[0])
    slice_sizes, piece = _z_slices(f, ap_codes, b_codes, z_set, x0)
    sizes = set(slice_sizes)
    if len(sizes) != 1:
        raise LemmaViolation(
            f"shrink_weak: |Z_x| not constant over A' (saw sizes {sorted(sizes)})"
        )
    size = sizes.pop()
    recs = _sqrt_bounds(size, K, n_b)
    require_ineqs("shrink_weak/z-complement", recs)
    prefix = tuple(int(c) for c in a_tuples[0]) + (b_codes[0],)
    fib_full = sch.fiber(prefix)
    ids_full = _level1_union_ids(fib_full, piece)
    steps.append(TraceStep("shrink_weak", "z-complement", prefix, {
        "|Z|": len(z_set), "|Z_x|": size, "constant": True,
    }, recs))
    return ShrinkOutcome("z-complement", prefix, ids_full, tuple(piece), n_b, steps)


# ---------------------------------------------------------------------------
# bijectivity of the coordinate sum on a block
# ---------------------------------------------------------------------------


def bijectivity_check(sch: Scheme, a: BlockRef) -> bool:
    """Whether the coordinate sum is injective on block A (direct check).

    When m >= 2k and m > k + log2(|A|/|A'|) hold and the scheme is strongly
    antisymmetric, injectivity is a theorem; in that situation a failed
    direct check raises LemmaViolation instead of returning False.
    """
    k = a.k
    inst = sch.instance
    rows = sch.level(k).block(a.b)
    sig = summation(k).apply_batch(inst.field, inst.tuples_array(k)[rows])[:, 0]
    n_a = len(rows)
    n_ap = len(set(int(c) for c in sig))
    injective = n_a == n_ap
    pre_depth = sch.m >= 2 * k
    # m > k + log2(|A|/|A'|)  <=>  2^(m-k) |A'| > |A|
    pre_log = 2 ** (sch.m - k) * n_ap > n_a if sch.m > k else False
    if not pre_depth:
        raise PreconditionUnmet("m>=2k", f"m={sch.m}, k={k}")
    if not pre_log:
        raise PreconditionUnmet("m>k+log(|A|/|A'|)",
                                f"m={sch.m}, k={k}, |A|={n_a}, |A'|={n_ap}")
    if getattr(sch.antisym_verdict, "status", None) == "antisymmetric" and not injective:
        raise LemmaViolation(
            f"sum map not injective on antisymmetric block: |A|={n_a} > |A'|={n_ap}"
        )
    return injective


# ---------------------------------------------------------------------------
# the three-case partial sumset loop
# ---------------------------------------------------------------------------


@dataclass
class SumsetCase2:
    """Small-doubling outcome: a block A at arity k with bijective sum."""

    a: BlockRef
    aprime: tuple  # sorted codes of the sum image
    steps: list

    def to_obj(self):
        return {
            "case": "small-doubling",
            "k": self.a.k,
            "block": self.a.b,
            "|A'|": len(self.aprime),
            "steps": [s.to_obj() for s in self.steps],
        }


def partial_sumset_search(sch: Scheme, b: int, K):
    """Iterate the growth trichotomy on B until a shrink or a small-doubling set.

    Maintains a block A at arity k with A ⊆ B^k, sum image A', and the size
    invariant |A| >= |B|^k / K^((k-1)/2).  Per round:
      case 1  (sum window gate)        -> shrink_weak outcome;
      case 2  (|A'+B| < K|A'|)         -> A' has doubling at most K^{2k};
      case 3  (|A'+B| > |A'||B|/K)     -> pass to arity k+1 (small-block trim
               exit, fibre exit, or a larger block A* and another round).
    """
    K = Fraction(K)
    inst = sch.instance
    f = inst.field
    b_codes = sch.level1_block_set(b)
    n_b = len(b_codes)
    span_size = f.ell ** span_dim(f, b_codes)
    if n_b < 2 * K * K:
        raise PreconditionUnmet("|B|>=2K^2", f"|B|={n_b}, K={K}")
    rho = math.log2(n_b) / math.log2(span_size) if span_size > 1 else 1.0
    if not sch.m > 4 / rho + math.log2(float(K)) + 1:
        raise PreconditionUnmet("m>4/rho(B)+logK+1",
                                f"m={sch.m}, rho={rho:.4f}, K={K}")
    b_ps = PointSet.from_codes(f, b_codes)
    n = inst.n

    k = 1
    a = BlockRef(1, b)
    steps: list = []
    while True:
        part = sch.level(k)
        rows = part.blocks()[a.b]
        n_a = len(rows)
        inv = ineq(Fraction(n_b) ** (2 * k), "<=",
                   Fraction(n_a) ** 2 * K ** (k - 1),
                   note="|A|>=|B|^k/K^((k-1)/2) (squared)")
        require_ineqs("partial_sumset_search/invariant", [inv])
        sig = summation(k).apply_batch(f, inst.tuples_array(k)[rows])[:, 0]
        ap_codes = sorted(set(int(c) for c in sig))
        n_ap = len(ap_codes)
        ap_ps = PointSet.from_codes(f, ap_codes)
        n_sum = len(sumset(ap_ps, b_ps))
        sizes = {"k": k, "|A|": n_a, "|A'|": n_ap, "|A'+B|": n_sum, "|B|": n_b}

        if K * n_ap <= n_sum and Fraction(n_sum) <= Fraction(n_ap * n_b) / K:
            steps.append(TraceStep("partial_sumset", "case1-gate", (), sizes, []))
            out = shrink_weak(sch, b, a, K)
            out.steps = steps + out.steps
            return out
        if n_sum < K * n_ap:
            dbl = len(sumset(ap_ps, ap_ps))
            recs = [
                ineq(dbl, "<=", K ** (2 * k) * n_ap, note="|A'+A'|<=K^(2k)|A'|"),
                ineq(n_a, "==", n_ap, note="sum map bijective on A"),
                inv,
            ]
            require_ineqs("partial_sumset_search/case2", recs)
            if not bijectivity_check(sch, a):
                raise LemmaViolation("case-2 block not sum-bijective")
            steps.append(TraceStep("partial_sumset", "case2", (), sizes, recs))
            return SumsetCase2(a, tuple(ap_codes), steps)

        # case 3: pass to arity k+1
        if k + 1 > sch.m:
            raise DepthExhausted(f"case-3 round needs level {k + 1} > m={sch.m}")
        inst.check_tuple_cap(k + 1)
        part_hi = sch.level(k + 1)
        b_rows = inst.pos(b_codes)
        prod_rows = (rows[:, None] * n + b_rows[None, :]).reshape(-1)
        prod_ids = part_hi.ids_as_union(prod_rows)  # A x B is a block union
        small, big = [], []
        for bid in sorted(prod_ids):
            sz = part_hi.block_size(bid)
            if Fraction(sz) ** 2 <= K * Fraction(n_a) ** 2:  # sz <= sqrtK |A|
                small.append(bid)
            else:
                big.append(bid)
        t_total = sum(part_hi.block_size(i) for i in small)

        if Fraction(t_total) ** 2 >= K * Fraction(n_a) ** 2:  # |T| >= sqrtK |A|
            chosen, tot = [], 0
            for bid in small:
                chosen.append(bid)
                tot += part_hi.block_size(bid)
                if Fraction(tot) ** 2 >= K * Fraction(n_a) ** 2:
                    break
            recs = [
                ineq(K * Fraction(n_a) ** 2, "<=", Fraction(tot) ** 2,
                     note="sqrtK|A|<=|T'| (squared)"),
                ineq(Fraction(tot) ** 2, "<=", 4 * K * Fraction(n_a) ** 2,
                     note="|T'|<=2sqrtK|A| (squared)"),
            ]
            x_row = int(rows[0])
            x_pts = tuple(int(c) for c in inst.tuples_array(k)[x_row])
            keep = np.zeros(inst.tuple_count(k + 1), dtype=bool)
            for bid in chosen:
                keep[part_hi.blocks()[bid]] = True
            piece = sorted(inst.s_codes[int(r % n)]
                           for r in np.nonzero(keep)[0] if r // n == x_row)
            recs.append(ineq(len(piece) * n_a, "==", tot,
                             note="|B'|=|T'|/|A| (fibre constancy)"))
            recs += _sqrt_bounds(len(piece), K, n_b)
            require_ineqs("partial_sumset_search/case3-trim", recs)
            fib = sch.fiber(x_pts)
            ids = _level1_union_ids(fib, piece)
            steps.append(TraceStep("partial_sumset", "case3-trim", x_pts, {
                **sizes, "|T|": t_total, "|T'|": tot, "|B'|": len(piece),
            }, recs))
            return ShrinkOutcome("block-trim", x_pts, ids, tuple(piece), n_b, steps)

        # |T| < sqrtK |A|: work in the complement U = (A x B) \ T
        u_rows_mask = np.zeros(inst.tuple_count(k + 1), dtype=bool)
        for bid in big:
            u_rows_mask[part_hi.blocks()[bid]] = True
        u_rows = np.nonzero(u_rows_mask)[0]
        sum_hi = summation(k + 1)
        tuples_hi = inst.tuples_array(k + 1)
        sig_u = sum_hi.apply_batch(f, tuples_hi[u_rows])[:, 0]
        n_sig_u = len(set(int(c) for c in sig_u))
        rec_u = ineq(len(u_rows), "<=", 2 * K * n_sig_u,
                     note="|U|<=2K|sigma(U)|")
        require_ineqs("partial_sumset_search/case3-U", [rec_u])
        a_star = None
        for bid in big:
            brows = part_hi.blocks()[bid]
            im = len(set(int(c) for c in sum_hi.apply_batch(f, tuples_hi[brows])[:, 0]))
            if len(brows) <= 2 * K * im:
                a_star = (bid, brows, im)
                break
        if a_star is None:
            raise LemmaViolation("case 3: averaging produced no block with "
                                 "|A*|<=2K|sigma(A*)|")
        bid, brows, im = a_star
        recs = [
            ineq(len(brows), "<=", 2 * K * im, note="|A*|<=2K|sigma(A*)|"),
            ineq(len(brows), "==", im, note="sum map bijective on A*"),
        ]
        require_ineqs("partial_sumset_search/case3-A*", recs)
        x_row = int(brows[0] // n)
        x_pts = tuple(int(c) for c in inst.tuples_array(k)[x_row])
        piece = sorted(inst.s_codes[int(r % n)] for r in brows if r // n == x_row)
        recs.append(ineq(len(piece) * n_a, "==", len(brows),
                         note="|B'|=|A*|/|A| (fibre constancy)"))
        require_ineqs("partial_sumset_search/case3-A*", recs[-1:])
        lo_rec = ineq(K, "<=", Fraction(len(piece)) ** 2,
                      note="sqrtK<=|B'| (squared)")
        require_ineqs("partial_sumset_search/case3-A*", [lo_rec])
        recs.append(lo_rec)
        hi = Fraction(len(piece)) ** 2 * K <= n_b ** 2  # |B'| <= |B|/sqrtK
        steps.append(TraceStep("partial_sumset",
                               "case3-exit" if hi else "case3-grow", x_pts, {
                                   **sizes, "|A*|": len(brows), "|B'|": len(piece),
                               }, recs))
        if hi:
            fib = sch.fiber(x_pts)
            ids = _level1_union_ids(fib, piece)
            return ShrinkOutcome("fiber-exit", x_pts, ids, tuple(piece), n_b, steps)
        k += 1
        a = BlockRef(k, bid)


# ---------------------------------------------------------------------------
# power schemes on a summed block, and lifting
# ---------------------------------------------------------------------------


def scheme_power(sch: Scheme, a: BlockRef, mp: int) -> Scheme:
    """The depth-m' scheme on A' = sums of A, blocks pushed through the sum map.

    Level i of the result is {sigma^(i)(D) : D a block at arity k*i, D ⊆ A^i};
    requires m >= 2*k*m' and the sum map injective on A.  Per-block
    injectivity of sigma^(i) is asserted during construction.
    """
    k = a.k
    if sch.m < 2 * k * mp:
        raise PreconditionUnmet("m>=2km'", f"m={sch.m}, k={k}, m'={mp}")
    if not bijectivity_check(sch, a):
        raise PreconditionUnmet("sum map bijective on A", "direct check failed")
    inst = sch.instance
    n = inst.n
    rows = sch.level(k).block(a.b)
    sig = summation(k).apply_batch(inst.field, inst.tuples_array(k)[rows])[:, 0]
    ap_codes = tuple(sorted(int(c) for c in sig))
    new_inst = SchemeInstance(inst.field, ap_codes)
    npp = new_inst.n
    img_of_row = new_inst.pos(sig)  # position of each A-row's image in the new carrier

    levels = []
    for i in range(1, mp + 1):
        part = sch.level(k * i)
        cur = rows.copy()
        cur_img = img_of_row.copy()
        for _ in range(i - 1):
            cur = (cur[:, None] * n ** k + rows[None, :]).reshape(-1)
            cur_img = (cur_img[:, None] * npp + img_of_row[None, :]).reshape(-1)
        bids = part.bid[cur]
        # every block touching A^i must lie inside it
        vals, counts = np.unique(bids, return_counts=True)
        for v, c in zip(vals, counts):
            if part.block_size(int(v)) != int(c):
                raise LemmaViolation(
                    f"power level {i}: block {int(v)} at arity {k * i} "
                    "straddles the boundary of A^i"
                )
        raw = np.full(npp ** i, -1, dtype=np.int64)
        raw[cur_img] = bids
        if (raw < 0).any():
            raise LemmaViolation(f"power level {i}: image does not cover A'^{i}")
        # per-block injectivity of the i-fold sum map
        for v, c in zip(vals, counts):
            sel = cur_img[bids == v]
            if len(unique_sorted(sel)) != int(c):
                raise LemmaViolation(
                    f"power level {i}: sum map not injective on block {int(v)}"
                )
        levels.append(TuplePartition.from_raw(new_inst, i, raw))
    return Scheme(new_inst, mp, levels=levels)


def lift_block(sch: Scheme, a: BlockRef, power: Scheme, x_prefix: Sequence[int],
               block_ids: Sequence[int]):
    """Pull a fibre-level piece of the power scheme back through the sum map.

    x_prefix lists points of A' fixed in the power scheme; block_ids names
    blocks of its level-1 fibre partition whose union A'' we lift.  Returns
    (y_prefix, block ids at arity k of the fibered base scheme, T codes...)
    with sigma(T) = A'' and |T| = |A''| (both checked).
    """
    k = a.k
    r = len(x_prefix)
    inst = sch.instance
    rows = sch.level(k).block(a.b)
    sigma = summation(k)
    tuples = inst.tuples_array(k)
    sig = sigma.apply_batch(inst.field, tuples[rows])[:, 0]
    pre = {}
    for row, c in zip(rows, sig):
        pre.setdefault(int(c), int(row))
    if len(pre) != len(rows):
        raise PreconditionUnmet("sum map bijective on A", "image collides")
    if r == 0:
        raise InputError("lift needs a nonempty fibre prefix in the power scheme")
    for c in x_prefix:
        if int(c) not in pre:
            raise PreconditionUnmet("prefix⊆A'", f"point {c} not in A'")
    y_tuples = [tuple(int(v) for v in tuples[pre[int(c)]])
                for c in x_prefix]
    y_prefix = tuple(v for tup in y_tuples for v in tup)
    if k * r + k > sch.m:
        raise DepthExhausted(
            f"lift needs level {k * (r + 1)} > m={sch.m}")
    fib = sch.fiber(y_prefix)
    pfib = power.fiber(tuple(int(c) for c in x_prefix))
    a_rows = set(int(v) for v in rows)

    out_ids = set()
    out_rows = []
    total = 0
    for bid in sorted(set(int(i) for i in block_ids)):
        u_codes = pfib.level1_block_set(bid)
        total += len(u_codes)
        z0p = pre[min(u_codes)]
        fpart = fib.level(k)
        blk = int(fpart.bid[z0p])
        blk_rows = fpart.blocks()[blk]
        if not all(int(v) in a_rows for v in blk_rows):
            raise LemmaViolation("lifted block leaves A")
        img = sorted(set(sigma.apply_batch(inst.field, tuples[blk_rows])[:, 0].tolist()))
        if img != u_codes or len(blk_rows) != len(u_codes):
            raise LemmaViolation(
                f"lifted block maps to {len(img)} points, expected the "
                f"{len(u_codes)}-point fibre block"
            )
        out_ids.add(blk)
        out_rows.extend(int(v) for v in blk_rows)
    if len(out_rows) != len(set(out_rows)) or len(out_rows) != total:
        raise LemmaViolation("lift produced overlapping blocks")
    return y_prefix, frozenset(out_ids), tuple(sorted(out_rows))


# ---------------------------------------------------------------------------
# dense-piece extraction from high additive energy
# ---------------------------------------------------------------------------


@dataclass
class BsgResult:
    x: int
    result_ids: frozenset
    points: tuple
    parent_size: int
    inequalities: list

    def to_obj(self):
        return {
            "x": self.x,
            "result_ids": sorted(self.result_ids),
            "size": len(self.points),
            "parent_size": self.parent_size,
            "inequalities": list(self.inequalities),
        }


def _group_convolve(field, fa: dict, fb: dict) -> dict:
    """z -> sum of fa(z1) fb(z2) over z1 + z2 = z, keyed in first-hit order
    of the (z1, z2) scan in the dicts' order."""
    sums = field.add_codes(_codes_array(fa)[:, None], _codes_array(fb)[None, :])
    # int64 is exact while the total mass fits; exact Python ints beyond it
    dtype = np.int64 if sum(fa.values()) * sum(fb.values()) < 2 ** 63 else object
    weights = (np.array(list(fa.values()), dtype=dtype)[:, None]
               * np.array(list(fb.values()), dtype=dtype)[None, :])
    keys, first, inverse = np.unique(sums.reshape(-1), return_index=True,
                                     return_inverse=True)
    totals = np.zeros(len(keys), dtype=dtype)
    np.add.at(totals, inverse, weights.reshape(-1))
    return {int(keys[j]): int(totals[j]) for j in np.argsort(first)}


def representation_counts(bset: PointSet) -> dict:
    """w -> #{(x_i, y_i)_{i<=4} in B^8 : (x1-y1)-(x2-y2)-(x3-y3)+(x4-y4) = w}."""
    f = bset.field
    d = diff_histogram(bset, bset)
    dm = dict(zip(f.neg_codes(_codes_array(d)).tolist(), d.values()))
    conv = _group_convolve(f, d, dm)
    conv = _group_convolve(f, conv, dm)
    conv = _group_convolve(f, conv, d)
    return conv


def _difference_adjacency(field, b_codes, t_set) -> np.ndarray:
    """|B| x |B| mask of b_i - b_j in T: row i is N(b_i), column j is N'(b_j)."""
    b_arr = _codes_array(b_codes)
    return member_mask(field.sub_codes(b_arr[:, None], b_arr[None, :]), _codes_array(t_set))


def _low_degree_piece(adj, b_arr, thresh, big_n) -> list:
    """The y in N'(b_0) with 3 deg(y) <= big_n, ascending when B is, where
    deg(y) = #{z in N'(b_0), z != y : |N(y) ∩ N(z)| <= thresh}."""
    verts = adj[:, 0]
    vrows = adj[verts].astype(np.int64)
    low = vrows @ vrows.T <= math.floor(thresh)
    np.fill_diagonal(low, False)
    return b_arr[verts][3 * low.sum(axis=1) <= big_n].tolist()


def _require_invariant_graph(sch: Scheme, b_arr, adj):
    """Raise LemmaViolation unless each generator of the scheme's group
    maps B onto itself and permutes the graph adj on B."""
    pos = sch.instance.pos(b_arr)
    row = np.full(sch.instance.n, -1, dtype=np.int64)
    row[pos] = np.arange(len(b_arr))
    gens = row[sch.backend.perms[:, pos]]  # (g, |B|): row of g(x) for row x
    if (gens < 0).any():
        raise LemmaViolation("bsg_extract: a generator moves B off itself")
    for g in gens:
        if not np.array_equal(adj[g][:, g], adj):
            raise LemmaViolation(
                "bsg_extract: a generator does not permute the popular-difference graph")


def bsg_extract(sch: Scheme, b: int, gamma, check_representations: bool = True) -> BsgResult:
    """Extract a dense piece with small difference set from high energy.

    Follows the popular-difference argument: threshold the difference
    histogram at gamma|B|/2, form the neighbourhoods N(x), filter by
    co-neighbourhood degree, and keep the low-degree part.  The output piece
    B' is a fibre-level block union with |B'| >= gamma|B|/3 and
    |B'-B'| < 2^17 gamma^-9 |B| (checked exactly); optionally the
    representation count behind the second bound is re-verified by exact
    convolution.

    Every N(x) and N'(x) must be a union of level-1 blocks of the fibre at
    x.  A scheme without a group backend (materialized, or loaded from
    JSON) checks every x in B.  With a backend, each generator g must map B
    onto itself and permute the popular-difference graph (else
    LemmaViolation); then N(g x) = g N(x), N'(g x) = g N'(x), and the fibre
    at g x is g applied to the fibre at x, since its blocks are the orbits
    of Stab(g x) = g Stab(x) g^-1.  So g x passes exactly when x does, and
    as B, a level-1 block, is one orbit, only x0 = min B is checked.  It is
    the first x the full check reads, so a failure raises the same error.
    """
    gamma = Fraction(gamma)
    if sch.m < 4:
        raise PreconditionUnmet("m>=4", f"m={sch.m}")
    f = sch.field
    b_codes = sch.level1_block_set(b)
    n = len(b_codes)
    b_ps = PointSet.from_codes(f, b_codes)
    energy = additive_energy(b_ps)
    if energy < gamma * n ** 3:
        raise EnergyTooLow("E(B)>=gamma|B|^3",
                           f"E(B)={energy} < {gamma * Fraction(n) ** 3}")
    nu = diff_histogram(b_ps, b_ps)
    t_set = {z for z, c in nu.items() if c >= gamma * n / 2}
    b_arr = _codes_array(b_codes)
    adj = _difference_adjacency(f, b_arr, t_set)
    n_sizes = set(adj.sum(axis=1).tolist())
    np_sizes = set(adj.sum(axis=0).tolist())
    if len(n_sizes) != 1 or len(np_sizes) != 1:
        raise LemmaViolation("fibre constancy of |N(x)| / |N'(x)| failed")
    big_n = n_sizes.pop()
    if big_n != np_sizes.pop():
        raise LemmaViolation("|N(x)| != |N'(x)|")
    recs = [ineq(gamma * n, "<=", 2 * big_n, note="N>=gamma|B|/2")]
    require_ineqs("bsg_extract", recs)
    # every neighbourhood must be a fibre-level block union; with a group
    # backend, x0 = min B stands for its orbit B
    if sch.backend is None:
        rows = range(n)
    else:
        _require_invariant_graph(sch, b_arr, adj)
        rows = range(1)
    for i in rows:
        fibx = sch.fiber((b_codes[i],))
        _level1_union_ids(fibx, b_arr[adj[i]])
        _level1_union_ids(fibx, b_arr[adj[:, i]])

    x0 = b_codes[0]
    piece = _low_degree_piece(adj, b_arr, gamma * gamma * n / 36, big_n)
    recs.append(ineq(2 * big_n, "<=", 3 * len(piece), note="|B'|>=2N/3"))
    recs.append(ineq(gamma * n, "<=", 3 * len(piece), note="|B'|>=gamma|B|/3"))
    piece_ps = PointSet.from_codes(f, piece)
    dsize = len(difference_set(piece_ps, piece_ps))
    recs.append(ineq(dsize, "<", Fraction(2 ** 17) * gamma ** -9 * n,
                     note="|B'-B'|<2^17 gamma^-9 |B|"))
    require_ineqs("bsg_extract", recs)
    fib = sch.fiber((x0,))
    ids = _level1_union_ids(fib, piece)
    if check_representations:
        conv = representation_counts(b_ps)
        bound = Fraction(gamma ** 9 * Fraction(n) ** 7, 2 ** 17)
        p_arr = _codes_array(piece)
        diffs = unique_sorted(f.sub_codes(p_arr[:, None], p_arr[None, :]))
        worst = min(conv.get(d, 0) for d in diffs.tolist())
        recs.append(ineq(bound, "<", worst,
                         note="representation count > 2^-17 gamma^9 |B|^7"))
        require_ineqs("bsg_extract/representations", recs[-1:])
    return BsgResult(x0, ids, tuple(piece), n, recs)


# ---------------------------------------------------------------------------
# heavy characters with constructible kernels; the sunflower decomposition
# ---------------------------------------------------------------------------


@dataclass
class HeavyChar:
    dual: tuple
    coeff: complex
    kernel: frozenset
    search_arity: int
    prefix: tuple
    certificate: Certificate

    def to_obj(self):
        return {
            "dual": list(self.dual),
            "abs_coeff": abs(self.coeff),
            "kernel_size": len(self.kernel),
            "arity": self.search_arity,
            "prefix": list(self.prefix),
        }


def find_constructible(sch: Scheme, points, max_arity: int, max_prefix: int,
                       prefix_cap: Optional[int] = None):
    """Bounded search for a (fiber, arity) pair making `points` constructible.

    Tries prefix lengths 0..max_prefix and arities 1..max_arity in increasing
    total depth; a hit at any depth certifies membership at every larger
    nominal arity (extra fixed points and arities only add atoms).
    """
    tried = sorted(
        ((p + a, p, a) for p in range(max_prefix + 1)
         for a in range(1, max_arity + 1) if p + a <= sch.m),
    )
    for _, plen, arity in tried:
        res = find_constructible_prefix(sch, points, arity, plen, prefix_cap)
        if res:
            prefix, cert = res
            return {"prefix": tuple(prefix), "arity": arity, "cert": cert}
    return None


def compute_heavy_set(sch: Scheme, b: int, eps_prime, max_arity: int = 2,
                      max_prefix: int = 2, prefix_cap: Optional[int] = None):
    """Nontrivial heavy characters of the block indicator whose kernels are
    constructible (bounded search).  Returns (number of heavy characters
    before the kernel filter, [HeavyChar])."""
    eps_prime = Fraction(eps_prime)
    f = sch.field
    b_codes = sch.level1_block_set(b)
    ctx = FourierContext.for_generators(f, b_codes)
    heavy = ctx.heavy_characters(ctx.all_coeffs(b_codes), float(eps_prime))
    out = []
    for dual, coeff in heavy:
        kernel = frozenset(int(c) for c in ctx.kernel(dual))
        found = find_constructible(sch, kernel, max_arity, max_prefix, prefix_cap)
        if found is not None:
            out.append(HeavyChar(tuple(dual), coeff, kernel,
                                 found["arity"], found["prefix"], found["cert"]))
    return len(heavy), out


def enumerate_subspaces(field, group_codes, cap: int = 4096):
    """All subgroups of the span of group_codes, ascending by (dim, points).

    Over the rref basis of the span (rank r), each subgroup of dimension s
    is the row space of exactly one s x r reduced-echelon matrix: a pivot
    set, and free entries right of each pivot outside the pivot columns.  So
    dimension s holds the Gaussian binomial [r, s]_ell of them.  Before
    dimension s is built, CapExceeded fires when the count of subgroups of
    dimension <= s exceeds cap."""
    ell = field.ell
    basis = span_basis(field, group_codes)
    r = basis.shape[0]
    if ell ** r > cap:
        raise CapExceeded("subspace enumeration ground set", ell ** r, cap)
    out, count = [], 0
    for s in range(r + 1):
        shapes = []
        for pivots in itertools.combinations(range(r), s):
            free = [(i, j) for i, p in enumerate(pivots)
                    for j in range(p + 1, r) if j not in pivots]
            shapes.append((list(pivots), free))
        count += sum(ell ** len(free) for _, free in shapes)
        if count > cap:
            raise CapExceeded("subspace enumeration", count, cap)
        for pivots, free in shapes:
            # every value of the free entries; this grid is bounded by the
            # subspace cap (ell^len(free) <= count <= cap), not the tuple cap
            values = radix_digits(np.arange(ell ** len(free)), ell, len(free))
            mats = np.zeros((len(values), s, r), dtype=np.int64)
            mats[:, np.arange(s), pivots] = 1
            for col, (i, j) in enumerate(free):
                mats[:, i, j] = values[:, col]
            pts = field.encode_batch(digit_rows(ell, s) @ mats @ basis)
            out.extend(frozenset(row) for row in pts.tolist())
    return sorted(out, key=lambda sub: (len(sub), sorted(sub)))


def enumerate_w_family(sch: Scheme, b: int, k: int, max_arity: int = 2,
                       max_prefix: int = 2, prefix_cap: Optional[int] = None,
                       subspace_cap: int = 4096):
    """Subspaces of span(B) with codimension <= k that pass the bounded
    constructibility search.  Returns [(subspace frozenset, search record)]."""
    f = sch.field
    b_codes = sch.level1_block_set(b)
    full = f.ell ** span_dim(f, b_codes)
    out = []
    for sub in enumerate_subspaces(f, b_codes, cap=subspace_cap):
        codim_ok = len(sub) * f.ell ** k >= full
        if not codim_ok:
            continue
        found = find_constructible(sch, sub, max_arity, max_prefix, prefix_cap)
        if found is not None:
            out.append((sub, found))
    return out


@dataclass
class TrivialGate:
    """No heavy character with a constructible kernel: B is pseudorandom
    against the whole constructible-subspace family at this threshold."""

    eps_prime: Fraction
    heavy_total: int  # heavy characters before the kernel filter
    steps: list

    def to_obj(self):
        return {
            "outcome": "trivial-gate",
            "eps_prime": str(self.eps_prime),
            "heavy_before_kernel_filter": self.heavy_total,
            "steps": [s.to_obj() for s in self.steps],
        }


@dataclass
class Decomposition:
    hub: tuple  # sorted codes of H
    hub_certificate: Optional[Certificate]
    leaves: list  # sorted list of sorted-code tuples, the subspaces H + F x
    leaf_counts: list  # |B ∩ W| per leaf
    heavy: list  # HeavyChar records
    properties: list  # per-property check records
    steps: list

    def to_obj(self):
        return {
            "outcome": "decomposition",
            "hub_size": len(self.hub),
            "leaves": len(self.leaves),
            "leaf_counts": list(self.leaf_counts),
            "heavy": [h.to_obj() for h in self.heavy],
            "properties": list(self.properties),
            "steps": [s.to_obj() for s in self.steps],
        }


def _prop(name: str, holds: bool, detail: str = "") -> dict:
    return {"property": name, "holds": bool(holds), "detail": detail}


def decompose(sch: Scheme, b: int, kp: int, eps_prime,
              max_arity: int = 2, max_prefix: int = 2,
              prefix_cap: Optional[int] = None,
              check_dichotomy: bool = True,
              full_w_family: bool = False):
    """Sunflower decomposition of span(B) driven by heavy characters.

    Computes the heavy characters at threshold eps_prime whose kernels pass
    the bounded constructibility search; if none exist returns TrivialGate.
    Otherwise forms the hub H (intersection of the kernels) and the leaves
    {H + F·x : x in B}, then checks the seven structure properties:
    hub constructibility, B ∩ H = ∅, hub-as-hyperplane, pairwise leaf
    intersections, equal leaf counts, the leaf-count bound, and (on the
    sampled or full subspace family) the density dichotomy.
    """
    eps_prime = Fraction(eps_prime)
    if not 0 < eps_prime < 1:
        raise PreconditionUnmet("0<eps'<1", f"eps'={eps_prime}")
    f = sch.field
    b_codes = sch.level1_block_set(b)
    span_size = f.ell ** span_dim(f, b_codes)
    mu = Fraction(len(b_codes), span_size)
    t = int(Fraction(3, 2) / mu) + 1
    if sch.m < 2 * t + 2:
        raise PreconditionUnmet("m>=2t+2", f"m={sch.m}, t={t}")
    if not 1 <= kp <= sch.m // 4:
        raise PreconditionUnmet("k'<=m/4", f"k'={kp}, m={sch.m}")
    steps = [TraceStep("decompose", "gate", (), {
        "|B|": len(b_codes), "mu": str(mu), "t": t, "k'": kp,
        "eps'": str(eps_prime),
    }, [])]
    total_heavy, heavy = compute_heavy_set(sch, b, eps_prime, max_arity, max_prefix,
                                           prefix_cap)
    if not heavy:
        steps.append(TraceStep("decompose", "trivial-gate", (), {
            "heavy_before_kernel_filter": total_heavy,
        }, []))
        return TrivialGate(eps_prime, total_heavy, steps)

    hub = frozenset.intersection(*[h.kernel for h in heavy])
    leaves = sorted(
        {frozenset(span_points(f, set(hub) | {x})) for x in b_codes},
        key=lambda s: sorted(s),
    )
    b_set = set(b_codes)
    counts = [len(b_set & w) for w in leaves]
    props = []

    # (1) hub constructibility
    t_arity = min(t, sch.m)
    cert = decide_constructible(sch, hub, t_arity)
    props.append(_prop("hub-constructible", cert is not None,
                       f"arity {t_arity}"))
    # (2) B ∩ H = ∅
    props.append(_prop("B∩H=∅", not (b_set & hub), f"|B∩H|={len(b_set & hub)}"))
    # (3) hub is a hyperplane of every leaf
    ok3 = all(hub < w and len(w) == len(hub) * f.ell for w in leaves)
    props.append(_prop("hub-hyperplane-of-leaf", ok3, f"|H|={len(hub)}"))
    # (4) pairwise leaf intersections equal the hub; leaves partition B
    ok4 = all(leaves[i] & leaves[j] == hub
              for i in range(len(leaves)) for j in range(i + 1, len(leaves)))
    covered = set()
    for w in leaves:
        covered |= (b_set & w)
    ok4 = ok4 and covered == b_set
    props.append(_prop("leaf-intersections=hub,partition", ok4, ""))
    # (5) equal leaf counts
    props.append(_prop("equal-leaf-counts", len(set(counts)) == 1,
                       f"counts={sorted(set(counts))}"))
    # (6) |C| <= ell^(1/eps'^2)
    ok6 = _le_ell_pow(Fraction(len(leaves)), Fraction(1), f.ell,
                      1 / eps_prime ** 2)
    props.append(_prop("leaf-count-bound", ok6,
                       f"|C|={len(leaves)}, eps'={eps_prime}"))
    # (7) density dichotomy against the sampled (or full) subspace family
    if check_dichotomy:
        family = []
        for h in heavy:
            family.append((h.kernel, h.search_arity + len(h.prefix)))
        for w in leaves:
            family.append((w, t + 1))
        if full_w_family:
            for sub, found in enumerate_w_family(sch, b, kp, max_arity,
                                                 max_prefix, prefix_cap):
                family.append((sub, found["arity"] + len(found["prefix"])))
        checked = skipped = 0
        ok7 = True
        detail7 = ""
        for w in leaves:
            mu_w = Fraction(len(b_set & w), len(w))
            for wp, kpp in family:
                inter = w & wp
                d = 0
                while len(inter) * f.ell ** d < span_size:
                    d += 1
                if kp < kpp + d * t + 1:
                    skipped += 1
                    continue
                checked += 1
                mu_i = Fraction(len(b_set & inter), len(inter))
                near = abs(mu_i - mu_w) <= Fraction(f.ell) ** d * eps_prime
                zero = mu_i == 0 and inter <= hub
                if not (near or zero):
                    ok7 = False
                    detail7 = (f"|W∩W'|={len(inter)}: mu={mu_i} vs {mu_w}, "
                               f"d={d}")
        props.append(_prop("density-dichotomy", ok7,
                           detail7 or f"checked={checked}, gate-skipped={skipped}"))

    for p in props:
        if not p["holds"]:
            raise LemmaViolation(f"decomposition property {p['property']}: "
                                 f"{p['detail']}")
    steps.append(TraceStep("decompose", "sunflower", (), {
        "|H|": len(hub), "leaves": len(leaves), "heavy": len(heavy),
    }, []))
    return Decomposition(tuple(sorted(hub)), cert, [tuple(sorted(w)) for w in leaves],
                         counts, heavy, props, steps)


def two_case_check(sch: Scheme, b: int, k: int, eps,
                   max_arity: int = 2, max_prefix: int = 2,
                   prefix_cap: Optional[int] = None,
                   subspace_cap: int = 4096):
    """Either B is pseudorandom against every enumerated constructible
    subspace of codimension <= k (|mu_W(B) - mu(B)| <= eps), or a heavy
    character at threshold eps/ell^k with constructible kernel exists.

    Returns ("heavy", [HeavyChar]) or ("pseudorandom", per-subspace records).
    """
    eps = Fraction(eps)
    f = sch.field
    b_codes = sch.level1_block_set(b)
    mu = Fraction(len(b_codes), f.ell ** span_dim(f, b_codes))
    t = int(Fraction(3, 2) / mu) + 1
    kp = k * (t + 1)
    eps_prime = eps / f.ell ** k
    if sch.m < 2 * kp:
        raise PreconditionUnmet("m>=2k'", f"m={sch.m}, k'={kp}")
    _, heavy = compute_heavy_set(sch, b, eps_prime, max_arity, max_prefix,
                                 prefix_cap)
    if heavy:
        return "heavy", heavy
    b_set = set(b_codes)
    records = []
    for sub, found in enumerate_w_family(sch, b, k, max_arity, max_prefix,
                                         prefix_cap, subspace_cap):
        mu_w = Fraction(len(b_set & sub), len(sub))
        rec = ineq(abs(mu_w - mu), "<=", eps,
                   note=f"|mu_W(B)-mu(B)|<=eps, |W|={len(sub)}")
        records.append(rec)
    require_ineqs("two_case_check/pseudorandom", records)
    return "pseudorandom", records


# ---------------------------------------------------------------------------
# density reduction
# ---------------------------------------------------------------------------


@dataclass
class RefineParams:
    """Caller-supplied parameters for the reduction drivers.

    The derived relations (t from K and the density, k' = k(t+2),
    eps' = eps/ell^k) are asserted against the supplied values; `strict`
    controls whether an unmet precondition aborts (the default) or is
    recorded in the trace while the desk-scale run proceeds."""

    K: Fraction
    k: int
    r: int
    eps: Fraction
    gamma: Fraction
    t: Optional[int] = None
    kp: Optional[int] = None
    eps_prime: Optional[Fraction] = None
    strict: bool = True
    r_shrink: Optional[int] = None  # cardinality-reduction rounds (default r)
    search_arity: int = 1
    search_prefix: int = 1
    prefix_cap: Optional[int] = None

    def __post_init__(self):
        self.K = Fraction(self.K)
        self.eps = Fraction(self.eps)
        self.gamma = Fraction(self.gamma)
        if self.eps_prime is not None:
            self.eps_prime = Fraction(self.eps_prime)


@dataclass
class ReduceResult:
    outcome: str  # "case1" | "completed"
    fiber_prefix: tuple
    points: tuple
    parent_size: int
    steps: list
    precondition_checks: list

    def to_obj(self):
        return {
            "outcome": self.outcome,
            "prefix": list(self.fiber_prefix),
            "size": len(self.points),
            "parent_size": self.parent_size,
            "preconditions": list(self.precondition_checks),
            "steps": [s.to_obj() for s in self.steps],
        }


def _compute_w(sch: Scheme, b: int, x: int, params: RefineParams):
    """(W, hub-or-None, heavy list) for the pseudorandomness subspace at x."""
    f = sch.field
    eps_prime = params.eps_prime if params.eps_prime is not None else (
        params.eps / f.ell ** params.k)
    _, heavy = compute_heavy_set(sch, b, eps_prime, params.search_arity,
                                 params.search_prefix, params.prefix_cap)
    b_codes = sch.level1_block_set(b)
    if heavy:
        hub = frozenset.intersection(*[h.kernel for h in heavy])
        w = frozenset(span_points(f, set(hub) | {x}))
        return w, hub, heavy
    w = frozenset(span_points(f, b_codes))
    return w, None, heavy


def _size_split(sch: Scheme, codes, n_lo: Fraction, n_hi: Fraction):
    """Size split on a level-1 block union: a sub-union in [n_lo, n_hi], or a
    single block of size > n_hi; mirrors the minimal-union argument.

    Returns ("window", union codes) or ("block", block id, codes)."""
    part = sch.level(1)
    ids = sorted(_level1_union_ids(sch, codes))
    sized = [(i, part.block_size(i)) for i in ids]
    # a single block already at least n_lo: window if <= n_hi, else carry it
    for i, sz in sized:
        if Fraction(sz) >= n_lo:
            pts = tuple(sch.level1_block_set(i))
            if Fraction(sz) <= n_hi:
                return "window", pts
            return "block", i, pts
    chosen, total = [], 0
    for i, sz in sized:
        chosen.append(i)
        total += sz
        if Fraction(total) >= n_lo:
            break
    if Fraction(total) < n_lo or Fraction(total) > n_hi:
        raise LemmaViolation(
            f"size split failed: reached {total} outside [{n_lo}, {n_hi}]")
    pts = tuple(sorted(p for i in chosen for p in sch.level1_block_set(i)))
    return "window", pts


def _search_small_union(sch: Scheme, b_codes, x: int, lo: Fraction, hi: Fraction):
    """Scan fibres (x, y) for a level-1 block union inside B sized in [lo, hi]."""
    b_set = set(b_codes)
    for y in b_codes:
        if sch.m < 3:
            break
        fib = sch.fiber((x, y))
        usable = []
        for i in range(fib.level(1).num_blocks):
            pts = fib.level1_block_set(i)
            if set(pts) <= b_set and Fraction(len(pts)) <= hi:
                usable.append((i, pts))
        total, chosen = 0, []
        for i, pts in usable:  # first-fit under the cap
            if Fraction(total + len(pts)) <= hi:
                chosen.extend(pts)
                total += len(pts)
            if Fraction(total) >= lo:
                return (x, y), tuple(sorted(chosen))
    return None


def density_reduce(sch: Scheme, b: int, params: RefineParams) -> ReduceResult:
    """Iterated density halving followed by sum-count cardinality reduction.

    Runs r density rounds (each either finds a small fibre piece — "case 1" —
    or passes to a fibre block whose density relative to its pseudorandomness
    subspace at most halves) and then r cardinality rounds driven by the
    sum-count histogram.  Every branch's inequality is recorded and checked
    exactly; the terminal set satisfies the sandwich
    ell^(-1/eps'^2) |B| / K^3 <= |U| <= max{1/K, (2 gamma)^r} |B|.
    """
    f = sch.field
    K, k, r, eps, gamma = params.K, params.k, params.r, params.eps, params.gamma
    b_codes = sch.level1_block_set(b)
    n0 = len(b_codes)
    span0 = f.ell ** span_dim(f, b_codes)
    mu = Fraction(n0, span0)
    t_expected = int(3 * K / (2 * mu)) + 1
    t = params.t if params.t is not None else t_expected
    kp = params.kp if params.kp is not None else k * (t + 2)
    eps_prime = params.eps_prime if params.eps_prime is not None else eps / f.ell ** k
    checks = []

    def require(name: str, holds: bool, detail: str = ""):
        checks.append({"name": name, "holds": bool(holds), "detail": detail})
        if params.strict and not holds:
            raise PreconditionUnmet(name, detail)

    ratio = K / mu  # K / mu(B), for the log precondition
    require("K>1", K > 1, f"K={K}")
    require("0<eps<1", 0 < eps < 1, f"eps={eps}")
    require("0<gamma", gamma > 0, f"gamma={gamma}")
    require("t=floor(3K/(2mu(B)))+1", t == t_expected,
            f"t={t}, expected {t_expected}")
    require("k>=2t", k >= 2 * t, f"k={k}, t={t}")
    require("k'=k(t+2)", kp == k * (t + 2), f"k'={kp}")
    require("eps'=eps/ell^k", eps_prime == eps / f.ell ** k, f"eps'={eps_prime}")
    require("m>=4k'+2", sch.m >= 4 * kp + 2, f"m={sch.m}, k'={kp}")
    require("|B|>K", n0 > K, f"|B|={n0}")
    require("|B|>=|<B>|/K", Fraction(n0) * K >= span0,
            f"|B|={n0}, |<B>|={span0}")
    require("k>=(t+1)log_ell(K/mu(B))",
            Fraction(f.ell) ** k >= ratio ** (t + 1),
            f"ell^k={f.ell ** k}, (K/mu)^(t+1)")

    inv_exp = 1 / eps_prime ** 2
    steps: list = []
    prefix: tuple = ()
    cur, cur_b, cur_codes = sch, b, b_codes
    x = cur_codes[0]
    w_sub, hub, heavy = _compute_w(cur, cur_b, x, params)
    mu_w = Fraction(len(set(cur_codes) & w_sub), len(w_sub))
    require("eps<=mu_W(B)/2", eps <= mu_w / 2, f"eps={eps}, mu_W(B)={mu_w}")

    outcome = None
    final_pts = tuple(cur_codes)
    n_hi = Fraction(n0) / K

    for i in range(1, r + 1):
        if outcome:
            break
        b_set = set(cur_codes)
        inter = sorted(b_set & w_sub)
        fibx = cur.fiber((x,))
        _level1_union_ids(fibx, inter)  # B ∩ W is a fibre-level block union
        sizes = {"round": i, "|B|": len(cur_codes), "|B∩W|": len(inter),
                 "|W|": len(w_sub), "mu_W(B)": str(mu_w)}
        if Fraction(len(inter)) <= n_hi:
            recs = [ineq(len(inter), "<=", n_hi, note="|B'|<=|B|/K")]
            lower = _le_ell_pow(Fraction(n0) / K, Fraction(len(inter)),
                                f.ell, inv_exp)
            recs.append({"lhs": f"{n0}/{K}*ell^-(1/eps'^2)", "op": "<=",
                         "rhs": str(len(inter)), "holds": bool(lower),
                         "note": "ell^(-1/eps'^2)|B|/K<=|B'|"})
            require_ineqs("density_reduce/case1", recs)
            steps.append(TraceStep("density_reduce", "case1-direct",
                                   prefix + (x,), sizes, recs))
            prefix, final_pts, outcome = prefix + (x,), tuple(inter), "case1"
            break
        split = _size_split(fibx, inter, n_hi / 2, n_hi)
        if split[0] == "window":
            pts = split[1]
            recs = [
                ineq(n_hi, "<=", 2 * len(pts), note="N/2<=|B'|"),
                ineq(len(pts), "<=", n_hi, note="|B'|<=N"),
            ]
            require_ineqs("density_reduce/split", recs)
            steps.append(TraceStep("density_reduce", "case1-split",
                                   prefix + (x,), sizes, recs))
            prefix, final_pts, outcome = prefix + (x,), pts, "case1"
            break
        _, blk_id, blk_pts = split
        y = blk_pts[0]
        wp_sub, hub_p, _ = _compute_w(fibx, blk_id, y, params)
        mu_wp = Fraction(len(set(blk_pts) & wp_sub), len(wp_sub))
        halve = ineq(mu_wp, "<=", (mu_w + eps) / 2,
                     note="mu_W'(B')<=(mu_W(B)+eps)/2")
        sizes.update({"|B'|": len(blk_pts), "|W'|": len(wp_sub),
                      "mu_W'(B')": str(mu_wp)})
        if halve["holds"]:
            steps.append(TraceStep("density_reduce", "halving",
                                   prefix + (x,), sizes, [halve]))
            prefix = prefix + (x,)
            cur, cur_b, cur_codes = fibx, blk_id, list(blk_pts)
            x, w_sub, hub, mu_w = y, wp_sub, hub_p, mu_wp
            final_pts = tuple(cur_codes)
            continue
        # the dichotomy then promises a small fibre piece; find one
        found = _search_small_union(cur, cur_codes, x,
                                    Fraction(1), n_hi)
        if found is None:
            raise LemmaViolation(
                "density dichotomy: halving failed and no fibre piece of size "
                f"<= {n_hi} exists")
        (x1, y1), pts = found
        recs = [halve, ineq(len(pts), "<=", n_hi, note="|B'|<=|B|/K")]
        lower = _le_ell_pow(Fraction(n0) / K, Fraction(len(pts)), f.ell, inv_exp)
        recs.append({"lhs": f"{n0}/{K}*ell^-(1/eps'^2)", "op": "<=",
                     "rhs": str(len(pts)), "holds": bool(lower),
                     "note": "ell^(-1/eps'^2)|B|/K<=|B'|"})
        if not lower:
            raise LemmaViolation("density_reduce: fibre piece below the "
                                 "ell^(-1/eps'^2)|B|/K floor")
        steps.append(TraceStep("density_reduce", "case1-search",
                               prefix + (x1, y1), sizes, recs))
        prefix, final_pts, outcome = prefix + (x1, y1), pts, "case1"
        break

    if outcome is None:
        # cardinality reduction on U(0) = B' ∩ W
        r2 = params.r_shrink if params.r_shrink is not None else r
        b_set = set(cur_codes)
        u_codes = sorted(b_set & w_sub)
        fibx = cur.fiber((x,))
        _level1_union_ids(fibx, u_codes)
        cur2, prefix = fibx, prefix + (x,)
        for i in range(1, r2 + 1):
            n_u = len(u_codes)
            sizes = {"round": i, "|U|": n_u}
            if Fraction(n_u) <= n_hi:
                steps.append(TraceStep("density_reduce", "carry", prefix, sizes, []))
                continue
            u_ps = PointSet.from_codes(f, u_codes)
            energy = additive_energy(u_ps)
            egate = ineq(energy, "<", gamma * Fraction(n_u) ** 3,
                         note="E(U)<gamma|U|^3")
            if not egate["holds"]:
                raise PreconditionUnmet(
                    "E(U)<gamma|U|^3",
                    f"E={energy} >= {gamma * Fraction(n_u) ** 3}; the "
                    "high-energy branch needs the asymptotic gamma regime")
            hist = sum_histogram(u_ps, u_ps)
            sum_support = len(hist)
            recs = [egate,
                    ineq(sum_support, "<=", K * K * n_u, note="|U+U|<=K^2|U|")]
            thr = Fraction(n_u) / (2 * K * K)
            t_zs = sorted(z for z, c in hist.items() if Fraction(c) >= thr)
            mass = sum(hist[z] for z in t_zs)
            recs.append(ineq(Fraction(n_u) ** 2, "<=", 2 * mass,
                             note="sum_T nu+>=|U|^2/2"))
            z0 = min(t_zs, key=lambda z: (hist[z], z))
            recs.append(ineq(hist[z0], "<=", 2 * gamma * n_u,
                             note="nu+(z0)<=2gamma|U|"))
            recs.append(ineq(thr, "<=", hist[z0], note="nu+(z0)>=|U|/(2K^2)"))
            require_ineqs("density_reduce/cardinality", recs)
            u_arr = _codes_array(u_codes)
            partners = f.sub_codes(z0, u_arr)
            in_u = member_mask(partners, u_arr)
            hits = np.flatnonzero(in_u)
            if not len(hits):
                raise LemmaViolation("z0 not representable in U + U")
            pair = (u_codes[hits[0]], int(partners[hits[0]]))
            if cur2.m < 3:
                raise DepthExhausted("cardinality round needs two more levels")
            new_u = u_arr[in_u].tolist()
            recs.append(ineq(len(new_u), "==", hist[z0], note="|U(i)|=nu+(z0)"))
            require_ineqs("density_reduce/cardinality", recs[-1:])
            fib2 = cur2.fiber(pair)
            _level1_union_ids(fib2, new_u)
            steps.append(TraceStep("density_reduce", "cardinality",
                                   prefix + pair, {**sizes, "z0": z0,
                                                   "nu+(z0)": hist[z0]}, recs))
            cur2 = fib2
            prefix = prefix + pair
            u_codes = new_u
        final_pts = tuple(u_codes)
        outcome = "completed"
        upper = max(Fraction(1) / K, (2 * gamma) ** r2) * n0
        recs = [ineq(len(u_codes), "<=", upper,
                     note="|U|<=max{1/K,(2gamma)^r}|B|")]
        lower = _le_ell_pow(Fraction(n0) / K ** 3, Fraction(len(u_codes)),
                            f.ell, inv_exp)
        recs.append({"lhs": f"{n0}/K^3*ell^-(1/eps'^2)", "op": "<=",
                     "rhs": str(len(u_codes)), "holds": bool(lower),
                     "note": "ell^(-1/eps'^2)|B|/K^3<=|U|"})
        require_ineqs("density_reduce/sandwich", recs)
        steps.append(TraceStep("density_reduce", "sandwich", prefix,
                               {"|U(r)|": len(u_codes)}, recs))

    return ReduceResult(outcome, prefix, final_pts, n0, steps, checks)


# ---------------------------------------------------------------------------
# bounded best-fibre search
# ---------------------------------------------------------------------------


@dataclass
class KeySearchResult:
    best: Optional[ShrinkOutcome]
    prefixes_tried: int
    capped: bool

    def to_obj(self):
        return {
            "best": self.best.to_obj() if self.best else None,
            "prefixes_tried": self.prefixes_tried,
            "capped": self.capped,
        }


def key_lemma_search(sch: Scheme, b: int, max_prefix_len: int = 2,
                     prefix_cap: Optional[int] = None) -> KeySearchResult:
    """BFS over fibre prefixes from B, maximizing min{|B'|, |B|/|B'|}.

    A measurement, not an asymptotic claim: scans prefixes x in B^len for
    len = 1..max_prefix_len (cap on the number of prefixes; when hit, the
    best found so far is returned flagged) and inspects every level-1 block
    of the fibre contained in B.
    """
    b_codes = sch.level1_block_set(b)
    n = len(b_codes)
    if n <= 1:
        raise PreconditionUnmet("|B|>1", f"|B|={n}")
    b_set = set(b_codes)
    best: Optional[ShrinkOutcome] = None
    best_key = None
    tried = 0
    capped = False
    for length in range(1, max_prefix_len + 1):
        if length >= sch.m:
            break
        for pts in itertools.product(b_codes, repeat=length):
            if prefix_cap is not None and tried >= prefix_cap:
                capped = True
                break
            tried += 1
            fib = sch.fiber(pts)
            for i in range(fib.level(1).num_blocks):
                blk = fib.level1_block_set(i)
                if not set(blk) <= b_set or len(blk) == n:
                    continue
                ratio = min(Fraction(len(blk)), Fraction(n, len(blk)))
                key = (ratio, -len(pts))
                if best_key is None or key > best_key:
                    best_key = key
                    best = ShrinkOutcome("search", tuple(pts),
                                         frozenset([i]), tuple(blk),
                                         n, [])
        if capped:
            break
    return KeySearchResult(best, tried, capped)
