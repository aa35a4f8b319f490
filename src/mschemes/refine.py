"""Constructive refinement engines on partition schemes.

Every routine here executes a constructive argument step by step and
re-verifies each claimed inequality exactly (integers / fractions.Fraction);
when a claim that should follow from the checked preconditions fails, the
run aborts with LemmaViolation rather than papering over it.  Each driver
returns a trace: an ordered list of steps with the branch taken and the
inequalities checked, suitable for byte-stable JSON reports.

Point sets are sorted, read-only int64 arrays (`Scheme.level1_block_set`,
`PointSet.codes`); codes that reach a record or a report are Python ints.

Contents:
  * shrink_weak                   - sumset-window fibre shrinking
  * z_slice_sizes                 - the per-point slice sizes of its complement branch
  * bijectivity_check             - when the coordinate sum is injective on a block
  * partial_sumset_search         - the three-case growth loop
  * scheme_power / lift_block     - power schemes on summed blocks, and lifting
  * bsg_extract                   - dense-piece extraction from high additive energy
  * representation_counts         - the convolution behind its second bound
  * decompose / two_case_check    - heavy characters, sunflower decomposition
  * find_constructible            - bounded (fibre, arity) constructibility search
  * enumerate_subspaces           - every subgroup of a span, by echelon form
  * density_reduce                - iterated density / cardinality reduction
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
    difference_set,
    sum_histogram,
    sumset,
)
from .constructible import (
    Certificate,
    decide_constructible,
    find_constructible_arities,
    find_constructible_prefix,
)
from .errors import (
    CapExceeded,
    DepthExhausted,
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
    "shrink_weak",
    "z_slice_sizes",
    "bijectivity_check",
    "partial_sumset_search",
    "scheme_power",
    "lift_block",
    "bsg_extract",
    "representation_counts",
    "compute_heavy_set",
    "find_constructible",
    "enumerate_subspaces",
    "enumerate_w_family",
    "two_case_check",
    "decompose",
    "density_reduce",
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


def _span_density(field, codes, K=1):
    """(|<B>|, mu(B) = |B|/|<B>|, t = floor(3K/(2 mu(B))) + 1) for the point
    codes of B, exactly."""
    span_size = field.ell ** span_dim(field, codes)
    mu = Fraction(len(codes), span_size)
    return span_size, mu, int(3 * K / (2 * mu)) + 1


def _hub(heavy) -> frozenset:
    """H, the intersection of the kernels of the heavy characters."""
    return frozenset.intersection(*[h.kernel for h in heavy])


def _blocks_inside(sch: Scheme, codes: np.ndarray) -> np.ndarray:
    """Ids, ascending, of the level-1 blocks of sch inside the point set
    codes (a subset of S): every member of the block's run in `order` is in
    codes."""
    part = sch.level(1)
    inside = np.zeros(len(part.bid), dtype=bool)
    inside[sch.instance.pos(codes)] = True
    return np.flatnonzero(np.logical_and.reduceat(inside[part.order], part.starts))


def _block_sums(inst: SchemeInstance, k: int, rows) -> np.ndarray:
    """Coordinate sum of each tuple of S^k at the tuple indices rows."""
    return summation(k).apply_batch(inst.field, inst.tuples_array(k, rows))[:, 0]


def _fibre_piece(inst: SchemeInstance, rows, x_row: int) -> list:
    """The last coordinates, ascending, of the tuples of S^(k+1) at the
    tuple indices rows whose first k coordinates are the tuple x_row of S^k."""
    n = inst.n
    return np.sort(inst.s_array[rows[rows // n == x_row] % n]).tolist()


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


def _floor_record(bound_text: str, bound: Fraction, size: int, ell: int,
                  exp: Fraction, note: str) -> dict:
    """The record bound * ell^-(1/eps'^2) <= size for exp = 1/eps'^2, exactly;
    bound_text spells bound, and note follows the ell^(-1/eps'^2) factor."""
    return {"lhs": f"{bound_text}*ell^-(1/eps'^2)", "op": "<=", "rhs": str(size),
            "holds": _le_ell_pow(bound, Fraction(size), ell, exp),
            "note": f"ell^(-1/eps'^2){note}"}


def _sqrt_window(K: Fraction, upper_base: int):
    """(lo, hi): the integers v with sqrt(K) <= v <= upper_base / sqrt(K)
    are exactly lo <= v <= hi (K >= 1)."""
    return (math.isqrt(math.ceil(K) - 1) + 1,
            math.isqrt(upper_base * upper_base * K.denominator // K.numerator))


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


def _z_mask(field, ap: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|A'| x |B| boolean mask of x + y in Z, over code arrays, read from the
    indicator of Z over [0, q); a code of Z outside [0, q) is in no sum."""
    in_z = np.zeros(field.q, dtype=bool)
    in_z[z[(z >= 0) & (z < field.q)]] = True
    return in_z[field.add_codes(ap[:, None], b[None, :])]


def _z_piece(mask: np.ndarray, ap: np.ndarray, b: np.ndarray, x0) -> list:
    """{y in B : x0 + y in Z}, in B's order, read from the mask row of x0
    in the ascending A'."""
    return b[mask[np.searchsorted(ap, x0)]].tolist()


def z_slice_sizes(field, ap_codes, b_codes, z_set) -> dict:
    """x -> |{y in B : x + y in Z}| for every x in A', keyed in A' order;
    each argument is any iterable of codes.

    The complement branch of the fibre shrink relies on these sizes being
    equal for all x; exposing the computation lets that claim be probed
    independently of the branch logic."""
    ap_codes = list(ap_codes)
    mask = _z_mask(field, np.array(ap_codes, dtype=np.int64),
                   np.fromiter(b_codes, np.int64), np.fromiter(z_set, np.int64))
    return dict(zip(ap_codes, mask.sum(axis=1).tolist()))


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
    rows = sch.level(k).block(a.b)
    a_tuples = inst.tuples_array(k, rows)
    if not member_mask(a_tuples, b_codes).all():
        raise PreconditionUnmet("A⊆B^k", "block A has coordinates outside B")
    sig = _block_sums(inst, k, rows)
    ap = unique_sorted(sig)
    # nu+(z) = #{(x, y) in A' x B : x + y = z}, counted over [0, q)
    nu = np.bincount(f.add_codes(ap[:, None], b_codes[None, :]).reshape(-1), minlength=f.q)
    n_b, n_ap, n_sum = len(b_codes), len(ap), int(np.count_nonzero(nu))

    gate_lo = ineq(K * n_ap, "<=", n_sum, note="K|A'|<=|A'+B|")
    gate_hi = ineq(n_sum, "<=", Fraction(n_ap * n_b) / K, note="|A'+B|<=|A'||B|/K")
    if not gate_lo["holds"]:
        raise GateUnmet("K|A'|<=|A'+B|", f"{K * n_ap} > {n_sum}")
    if not gate_hi["holds"]:
        raise GateUnmet("|A'+B|<=|A'||B|/K", f"{n_sum} > {Fraction(n_ap * n_b) / K}")
    if int(nu.sum()) != n_ap * n_b:
        raise LemmaViolation("nu+ mass: sum_z nu+(z) != |A'||B|")

    nu_lo, nu_hi = _sqrt_window(K, n_b)
    window = np.flatnonzero((nu >= nu_lo) & (nu <= nu_hi))
    steps = [TraceStep("shrink_weak", "gate", (), {
        "|B|": n_b, "|A'|": n_ap, "|A'+B|": n_sum, "k": k,
    }, [gate_lo, gate_hi])]

    if len(window):
        z = int(window[0])
        nu_z = int(nu[z])
        xk1s = f.sub_codes(z, sig)
        hits = np.flatnonzero(member_mask(xk1s, b_codes))
        if not len(hits):
            raise LemmaViolation("shrink_weak: no tuple of A sums with B to z")
        i = int(hits[0])
        prefix = tuple(a_tuples[i].tolist()) + (int(xk1s[i]),)
        t_codes = b_codes[member_mask(f.sub_codes(z, b_codes), ap)].tolist()
        recs = [ineq(len(t_codes), "==", nu_z, note="|T|=nu+(z)")]
        recs += _sqrt_bounds(len(t_codes), K, n_b)
        require_ineqs("shrink_weak/nu-window", recs)
        ids = _level1_union_ids(sch.fiber(prefix), t_codes)
        steps.append(TraceStep("shrink_weak", "nu-window", prefix, {
            "z": z, "nu+(z)": nu_z, "|B'|": len(t_codes),
        }, recs))
        return ShrinkOutcome("nu-window", prefix, ids, tuple(t_codes), n_b, steps)

    # complement branch: every z has nu+(z) < sqrt(K) or > |B|/sqrt(K)
    z_codes = np.flatnonzero((nu > 0) & (nu < nu_lo))
    mask = _z_mask(f, ap, b_codes, z_codes)
    piece = _z_piece(mask, ap, b_codes, sig[0])
    sizes = set(mask.sum(axis=1).tolist())
    if len(sizes) != 1:
        raise LemmaViolation(
            f"shrink_weak: |Z_x| not constant over A' (saw sizes {sorted(sizes)})"
        )
    size = sizes.pop()
    recs = _sqrt_bounds(size, K, n_b)
    require_ineqs("shrink_weak/z-complement", recs)
    prefix = tuple(a_tuples[0].tolist()) + (int(b_codes[0]),)
    ids = _level1_union_ids(sch.fiber(prefix), piece)
    steps.append(TraceStep("shrink_weak", "z-complement", prefix, {
        "|Z|": len(z_codes), "|Z_x|": size, "constant": True,
    }, recs))
    return ShrinkOutcome("z-complement", prefix, ids, tuple(piece), n_b, steps)


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
    rows = sch.level(k).block(a.b)
    n_a = len(rows)
    n_ap = len(unique_sorted(_block_sums(sch.instance, k, rows)))
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
    span_size, _, _ = _span_density(f, b_codes)
    if K <= 0:
        raise PreconditionUnmet("K>0", f"K={K}")
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
        rows = part.block(a.b)
        n_a = len(rows)
        inv = ineq(Fraction(n_b) ** (2 * k), "<=",
                   Fraction(n_a) ** 2 * K ** (k - 1),
                   note="|A|>=|B|^k/K^((k-1)/2) (squared)")
        require_ineqs("partial_sumset_search/invariant", [inv])
        ap_ps = PointSet.from_codes(f, _block_sums(inst, k, rows))
        n_ap = len(ap_ps)
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
            return SumsetCase2(a, tuple(ap_ps.codes.tolist()), steps)

        # case 3: pass to arity k+1
        if k + 1 > sch.m:
            raise DepthExhausted(f"case-3 round needs level {k + 1} > m={sch.m}")
        inst.check_tuple_cap(k + 1)
        part_hi = sch.level(k + 1)
        b_rows = inst.pos(b_codes)
        prod_rows = (rows[:, None] * n + b_rows[None, :]).reshape(-1)
        prod_ids = part_hi.ids_as_union(prod_rows)  # A x B is a block union
        small = [i for i in sorted(prod_ids)  # |block| <= sqrtK |A|
                 if int(part_hi.sizes[i]) ** 2 <= K * Fraction(n_a) ** 2]
        big = sorted(prod_ids - set(small))
        t_total = int(part_hi.sizes[small].sum())

        if Fraction(t_total) ** 2 >= K * Fraction(n_a) ** 2:  # |T| >= sqrtK |A|
            chosen, tot = [], 0
            for bid in small:
                chosen.append(bid)
                tot += int(part_hi.sizes[bid])
                if Fraction(tot) ** 2 >= K * Fraction(n_a) ** 2:
                    break
            recs = [
                ineq(K * Fraction(n_a) ** 2, "<=", Fraction(tot) ** 2,
                     note="sqrtK|A|<=|T'| (squared)"),
                ineq(Fraction(tot) ** 2, "<=", 4 * K * Fraction(n_a) ** 2,
                     note="|T'|<=2sqrtK|A| (squared)"),
            ]
            x_row = int(rows[0])
            x_pts = tuple(inst.tuples_array(k, x_row).tolist())
            piece = _fibre_piece(inst, sch.blockset_indices(k + 1, chosen), x_row)
            recs.append(ineq(len(piece) * n_a, "==", tot,
                             note="|B'|=|T'|/|A| (fibre constancy)"))
            recs += _sqrt_bounds(len(piece), K, n_b)
            require_ineqs("partial_sumset_search/case3-trim", recs)
            ids = _level1_union_ids(sch.fiber(x_pts), piece)
            steps.append(TraceStep("partial_sumset", "case3-trim", x_pts, {
                **sizes, "|T|": t_total, "|T'|": tot, "|B'|": len(piece),
            }, recs))
            return ShrinkOutcome("block-trim", x_pts, ids, tuple(piece), n_b, steps)

        # |T| < sqrtK |A|: work in the complement U = (A x B) \ T
        u_rows = sch.blockset_indices(k + 1, big)
        n_sig_u = len(unique_sorted(_block_sums(inst, k + 1, u_rows)))
        rec_u = ineq(len(u_rows), "<=", 2 * K * n_sig_u,
                     note="|U|<=2K|sigma(U)|")
        require_ineqs("partial_sumset_search/case3-U", [rec_u])
        for bid in big:  # A*: the first block with |A*| <= 2K|sigma(A*)|
            brows = part_hi.block(bid)
            im = len(unique_sorted(_block_sums(inst, k + 1, brows)))
            if len(brows) <= 2 * K * im:
                break
        else:
            raise LemmaViolation("case 3: averaging produced no block with "
                                 "|A*|<=2K|sigma(A*)|")
        recs = [
            ineq(len(brows), "<=", 2 * K * im, note="|A*|<=2K|sigma(A*)|"),
            ineq(len(brows), "==", im, note="sum map bijective on A*"),
        ]
        require_ineqs("partial_sumset_search/case3-A*", recs)
        x_row = int(brows[0] // n)
        x_pts = tuple(inst.tuples_array(k, x_row).tolist())
        piece = _fibre_piece(inst, brows, x_row)
        recs += [ineq(len(piece) * n_a, "==", len(brows),
                      note="|B'|=|A*|/|A| (fibre constancy)"),
                 ineq(K, "<=", Fraction(len(piece)) ** 2, note="sqrtK<=|B'| (squared)")]
        require_ineqs("partial_sumset_search/case3-A*", recs[-2:])
        hi = Fraction(len(piece)) ** 2 * K <= n_b ** 2  # |B'| <= |B|/sqrtK
        steps.append(TraceStep("partial_sumset",
                               "case3-exit" if hi else "case3-grow", x_pts, {
                                   **sizes, "|A*|": len(brows), "|B'|": len(piece),
                               }, recs))
        if hi:
            ids = _level1_union_ids(sch.fiber(x_pts), piece)
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
    sig = _block_sums(inst, k, rows)
    new_inst = SchemeInstance(inst.field, tuple(np.sort(sig).tolist()))
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
        straddle = vals[part.sizes[vals] != counts]
        if len(straddle):
            raise LemmaViolation(
                f"power level {i}: block {int(straddle[0])} at arity {k * i} "
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
    pre = dict(zip(_block_sums(inst, k, rows).tolist(), rows.tolist()))
    if len(pre) != len(rows):
        raise PreconditionUnmet("sum map bijective on A", "image collides")
    if r == 0:
        raise InputError("lift needs a nonempty fibre prefix in the power scheme")
    for c in x_prefix:
        if int(c) not in pre:
            raise PreconditionUnmet("prefix⊆A'", f"point {c} not in A'")
    y_rows = [pre[int(c)] for c in x_prefix]
    y_prefix = tuple(inst.tuples_array(k, y_rows).reshape(-1).tolist())
    if k * r + k > sch.m:
        raise DepthExhausted(
            f"lift needs level {k * (r + 1)} > m={sch.m}")
    fib = sch.fiber(y_prefix)
    pfib = power.fiber(tuple(int(c) for c in x_prefix))
    fpart = fib.level(k)

    bids = unique_sorted(np.fromiter(block_ids, dtype=np.int64)).tolist()
    out_ids = set()
    for bid in bids:
        u_codes = pfib.level1_block_set(bid)
        blk = int(fpart.bid[pre[int(u_codes[0])]])
        blk_rows = fpart.block(blk)
        if not member_mask(blk_rows, rows).all():
            raise LemmaViolation("lifted block leaves A")
        img = unique_sorted(_block_sums(inst, k, blk_rows))
        if not np.array_equal(img, u_codes) or len(blk_rows) != len(u_codes):
            raise LemmaViolation(
                f"lifted block maps to {len(img)} points, expected the "
                f"{len(u_codes)}-point fibre block"
            )
        out_ids.add(blk)
    # blocks are disjoint and each has its fibre block's size: an overlap is
    # two fibre blocks lifting to one block
    if len(out_ids) != len(bids):
        raise LemmaViolation("lift produced overlapping blocks")
    lifted = np.flatnonzero(member_mask(fpart.bid, list(out_ids)))
    return y_prefix, frozenset(out_ids), tuple(lifted.tolist())


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


def _difference_counts(field, b_codes: np.ndarray):
    """(diffs, nu): the |B| x |B| table of b_i - b_j and its count vector
    over [0, q), nu(z) = #{(x, y) in B^2 : x - y = z}."""
    diffs = field.sub_codes(b_codes[:, None], b_codes[None, :])
    return diffs, np.bincount(diffs.reshape(-1), minlength=field.q)


def _group_convolve(field, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Count vector over [0, q) of z -> sum of fa(z1) fb(z2) over
    z1 + z2 = z, for count vectors fa, fb over [0, q); exact: int64 while
    the total mass fits, Python ints beyond it."""
    za, zb = np.flatnonzero(fa), np.flatnonzero(fb)
    dtype = np.int64 if int(fa.sum()) * int(fb.sum()) < 2 ** 63 else object
    out = np.zeros(field.q, dtype=dtype)
    np.add.at(out, field.add_codes(za[:, None], zb[None, :]).reshape(-1),
              (fa[za].astype(dtype)[:, None] * fb[zb].astype(dtype)[None, :]).reshape(-1))
    return out


def representation_counts(bset: PointSet) -> dict:
    """w -> #{(x_i, y_i)_{i<=4} in B^8 : (x1-y1)-(x2-y2)-(x3-y3)+(x4-y4) = w},
    keys ascending, Python ints."""
    f = bset.field
    # d(-z) = d(z) for the differences of B with itself: d stands for -d too
    d = _difference_counts(f, bset.codes)[1]
    conv = _group_convolve(f, d, d)
    conv = _group_convolve(f, conv, d)
    conv = _group_convolve(f, conv, d)
    support = np.flatnonzero(conv)
    return dict(zip(support.tolist(), conv[support].tolist()))


def _popular_difference_graph(field, b_codes: np.ndarray, gamma: Fraction) -> np.ndarray:
    """|B| x |B| mask of b_i - b_j in T = {z : nu(z) >= gamma|B|/2}: row i
    is N(b_i), column j is N'(b_j)."""
    diffs, nu = _difference_counts(field, b_codes)
    return (nu >= math.ceil(gamma * len(b_codes) / 2))[diffs]


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


def bsg_extract(sch: Scheme, b: int, gamma) -> BsgResult:
    """Extract a dense piece with small difference set from high energy.

    Follows the popular-difference argument: threshold the difference
    histogram at gamma|B|/2, form the neighbourhoods N(x), filter by
    co-neighbourhood degree, and keep the low-degree part.  The output piece
    B' is a fibre-level block union with |B'| >= gamma|B|/3 and
    |B'-B'| < 2^17 gamma^-9 |B| (checked exactly), and the representation
    count behind the second bound is re-verified by exact convolution.

    Every N(x) and N'(x) must be a union of level-1 blocks of the fibre at
    x.  A scheme without a group backend (loaded from JSON, a power, or
    built from levels by hand) checks every x in B.  With a backend, each
    generator g must map B onto itself and permute the popular-difference
    graph (else LemmaViolation); then N(g x) = g N(x), N'(g x) = g N'(x),
    and the fibre at g x is g applied to the fibre at x, since its blocks
    are the orbits of Stab(g x) = g Stab(x) g^-1.  So g x passes exactly
    when x does, and as B, a level-1 block, is one orbit, only x0 = min B
    is checked.  It is the first x the full check reads, so a failure
    raises the same error.
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
    adj = _popular_difference_graph(f, b_codes, gamma)
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
        _require_invariant_graph(sch, b_codes, adj)
        rows = range(1)
    for i in rows:
        fibx = sch.fiber((b_codes[i],))
        _level1_union_ids(fibx, b_codes[adj[i]])
        _level1_union_ids(fibx, b_codes[adj[:, i]])

    x0 = int(b_codes[0])
    piece = _low_degree_piece(adj, b_codes, gamma * gamma * n / 36, big_n)
    recs.append(ineq(2 * big_n, "<=", 3 * len(piece), note="|B'|>=2N/3"))
    recs.append(ineq(gamma * n, "<=", 3 * len(piece), note="|B'|>=gamma|B|/3"))
    piece_ps = PointSet.from_codes(f, piece)
    diffs = difference_set(piece_ps, piece_ps)
    recs.append(ineq(len(diffs), "<", Fraction(2 ** 17) * gamma ** -9 * n,
                     note="|B'-B'|<2^17 gamma^-9 |B|"))
    require_ineqs("bsg_extract", recs)
    fib = sch.fiber((x0,))
    ids = _level1_union_ids(fib, piece)
    conv = representation_counts(b_ps)
    bound = Fraction(gamma ** 9 * Fraction(n) ** 7, 2 ** 17)
    worst = min(conv.get(d, 0) for d in diffs.codes.tolist())
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

    The stages (prefix length p, arity a), p <= max_prefix, a <= max_arity,
    p + a <= m, are tried in increasing total depth p + a, then increasing
    p, and the first stage where `find_constructible_prefix` hits is
    returned.  On a scheme satisfying P1 a hit at arity k is one at every
    larger arity on the same fibre: an arity-k atom tau(D) is also the
    arity-(k+1) atom (tau∘pi)(D') of each level-(k+1) block D' over D, pi
    dropping the last coordinate.  Every fibre of a scheme with a group
    backend satisfies P1, so there the first stage of each prefix length
    decides all of its arities at once, largest first
    (`find_constructible_arities`); if that trips a cap, the prefix length
    decides its arities stage by stage instead, so every input gets the
    result or the exception of the stage-by-stage search.  A scheme without
    a backend need not satisfy P1 (an explicit scheme with a discrete level
    1 and a one-block level 2 has arity-1 atoms that are no arity-2 atom),
    and decides every stage on its own.
    """
    tried = sorted(
        ((p + a, p, a) for p in range(max_prefix + 1)
         for a in range(1, max_arity + 1) if p + a <= sch.m),
    )
    # prefix length -> (arity, prefix, cert) of its least arity that hits,
    # or None; the stages of one prefix length come in ascending arity, so
    # that arity's stage is the only one of them that can hit
    least = {}
    by_stage = set()  # prefix lengths decided stage by stage
    for _, plen, arity in tried:
        if sch.backend is not None and plen not in least and plen not in by_stage:
            arities = range(1, min(max_arity, sch.m - plen) + 1)
            try:
                least[plen] = find_constructible_arities(sch, points, arities, plen, prefix_cap)
            except CapExceeded:
                by_stage.add(plen)
        if plen in least:
            hit = least[plen]
            res = hit[1:] if hit is not None and hit[0] == arity else None
        else:
            res = find_constructible_prefix(sch, points, arity, plen, prefix_cap)
        if res:
            prefix, cert = res
            return {"prefix": tuple(prefix), "arity": arity, "cert": cert}
    return None


def compute_heavy_set(sch: Scheme, b: int, eps_prime, max_arity: int = 2,
                      max_prefix: int = 2, prefix_cap: Optional[int] = None):
    """Nontrivial heavy characters of the block indicator whose kernels are
    constructible (bounded search).  Returns (number of heavy characters
    before the kernel filter, [HeavyChar]).

    Each distinct kernel is searched once, at its first heavy dual, and the
    result serves every dual with that kernel (a dual and its nonzero
    multiples share one)."""
    eps_prime = Fraction(eps_prime)
    f = sch.field
    b_codes = sch.level1_block_set(b)
    ctx = FourierContext.for_generators(f, b_codes)
    heavy = ctx.heavy_characters(ctx.all_coeffs(b_codes), float(eps_prime))
    out = []
    searched = {}  # kernel -> find_constructible's result
    for dual, coeff in heavy:
        kernel = frozenset(ctx.kernel(dual))
        if kernel not in searched:
            searched[kernel] = find_constructible(sch, kernel, max_arity, max_prefix,
                                                  prefix_cap)
        found = searched[kernel]
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
            pts = field.encode_batch(digit_rows(field, s) @ mats @ basis)
            out.extend(frozenset(row) for row in pts.tolist())
    return sorted(out, key=lambda sub: (len(sub), sorted(sub)))


def enumerate_w_family(sch: Scheme, b: int, k: int, max_arity: int = 2,
                       max_prefix: int = 2):
    """Subspaces of span(B) with codimension <= k that pass the bounded
    constructibility search.  Returns [(subspace frozenset, search record)]."""
    f = sch.field
    b_codes = sch.level1_block_set(b)
    full, _, _ = _span_density(f, b_codes)
    out = []
    for sub in enumerate_subspaces(f, b_codes):
        codim_ok = len(sub) * f.ell ** k >= full
        if not codim_ok:
            continue
        found = find_constructible(sch, sub, max_arity, max_prefix)
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
              full_w_family: bool = False):
    """Sunflower decomposition of span(B) driven by heavy characters.

    Computes the heavy characters at threshold eps_prime whose kernels pass
    the bounded constructibility search; if none exist returns TrivialGate.
    Otherwise forms the hub H (intersection of the kernels) and the leaves
    {H + F·x : x in B}, then checks the seven structure properties:
    hub constructibility, B ∩ H = ∅, hub-as-hyperplane, pairwise leaf
    intersections, equal leaf counts, the leaf-count bound, and the density
    dichotomy (on the sampled family, or the full one with full_w_family).
    """
    eps_prime = Fraction(eps_prime)
    if not 0 < eps_prime < 1:
        raise PreconditionUnmet("0<eps'<1", f"eps'={eps_prime}")
    f = sch.field
    b_codes = sch.level1_block_set(b)
    span_size, mu, t = _span_density(f, b_codes)
    if sch.m < 2 * t + 2:
        raise PreconditionUnmet("m>=2t+2", f"m={sch.m}, t={t}")
    if not 1 <= kp <= sch.m // 4:
        raise PreconditionUnmet("k'<=m/4", f"k'={kp}, m={sch.m}")
    steps = [TraceStep("decompose", "gate", (), {
        "|B|": len(b_codes), "mu": str(mu), "t": t, "k'": kp,
        "eps'": str(eps_prime),
    }, [])]
    total_heavy, heavy = compute_heavy_set(sch, b, eps_prime, max_arity, max_prefix)
    if not heavy:
        steps.append(TraceStep("decompose", "trivial-gate", (), {
            "heavy_before_kernel_filter": total_heavy,
        }, []))
        return TrivialGate(eps_prime, total_heavy, steps)

    hub = _hub(heavy)
    leaves = sorted(
        {frozenset(span_points(f, hub | {x}).tolist()) for x in b_codes.tolist()},
        key=lambda s: sorted(s),
    )
    b_set = set(b_codes.tolist())
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
    ok4 = ok4 and b_set <= frozenset().union(*leaves)
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
    family = [(h.kernel, h.search_arity + len(h.prefix)) for h in heavy]
    family += [(w, t + 1) for w in leaves]
    if full_w_family:
        for sub, found in enumerate_w_family(sch, b, kp, max_arity, max_prefix):
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


def two_case_check(sch: Scheme, b: int, k: int, eps):
    """Either B is pseudorandom against every enumerated constructible
    subspace of codimension <= k (|mu_W(B) - mu(B)| <= eps), or a heavy
    character at threshold eps/ell^k with constructible kernel exists.

    Returns ("heavy", [HeavyChar]) or ("pseudorandom", per-subspace records).
    """
    eps = Fraction(eps)
    f = sch.field
    b_codes = sch.level1_block_set(b)
    _, mu, t = _span_density(f, b_codes)
    kp = k * (t + 1)
    eps_prime = eps / f.ell ** k
    if sch.m < 2 * kp:
        raise PreconditionUnmet("m>=2k'", f"m={sch.m}, k'={kp}")
    _, heavy = compute_heavy_set(sch, b, eps_prime)
    if heavy:
        return "heavy", heavy
    b_set = set(b_codes.tolist())
    records = [ineq(abs(Fraction(len(b_set & sub), len(sub)) - mu), "<=", eps,
                    note=f"|mu_W(B)-mu(B)|<=eps, |W|={len(sub)}")
               for sub, _ in enumerate_w_family(sch, b, k)]
    require_ineqs("two_case_check/pseudorandom", records)
    return "pseudorandom", records


# ---------------------------------------------------------------------------
# density reduction
# ---------------------------------------------------------------------------


@dataclass
class RefineParams:
    """Caller-supplied parameters for the reduction drivers.

    The lemma's derived values are computed, not supplied: t =
    floor(3K/(2mu(B))) + 1 from K and the density of B, k' = k(t+2) and
    eps' = eps/ell^k.  `strict` controls whether an unmet precondition
    aborts (the default) or is recorded in the trace while the desk-scale
    run proceeds."""

    K: Fraction
    k: int
    r: int
    eps: Fraction
    gamma: Fraction
    strict: bool = True
    r_shrink: Optional[int] = None  # cardinality-reduction rounds (default r)
    search_arity: int = 1
    search_prefix: int = 1

    def __post_init__(self):
        self.K = Fraction(self.K)
        self.eps = Fraction(self.eps)
        self.gamma = Fraction(self.gamma)


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


def _compute_w(sch: Scheme, b: int, x: int, params: RefineParams) -> np.ndarray:
    """The pseudorandomness subspace W at x, as a sorted code array: the span
    of x and the hub of the heavy characters, or of B when there are none."""
    f = sch.field
    eps_prime = params.eps / f.ell ** params.k
    _, heavy = compute_heavy_set(sch, b, eps_prime, params.search_arity,
                                 params.search_prefix)
    if heavy:
        gens = _hub(heavy) | {x}
    else:
        gens = sch.level1_block_set(b)
    return span_points(f, gens)


def _size_split(sch: Scheme, codes, n_lo: Fraction, n_hi: Fraction):
    """Size split on a level-1 block union: a sub-union in [n_lo, n_hi], or a
    single block of size > n_hi; mirrors the minimal-union argument.

    Returns ("window", union codes as a tuple) or ("block", block id, its
    code array)."""
    part = sch.level(1)
    ids = sorted(_level1_union_ids(sch, codes))
    sized = [(i, int(part.sizes[i])) for i in ids]
    # a single block already at least n_lo: window if <= n_hi, else carry it
    for i, sz in sized:
        if Fraction(sz) >= n_lo:
            pts = sch.level1_block_set(i)
            if Fraction(sz) <= n_hi:
                return "window", tuple(pts.tolist())
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
    pts = sch.instance.s_array[sch.blockset_indices(1, chosen)]
    return "window", tuple(pts.tolist())


def _search_small_union(sch: Scheme, b_codes: np.ndarray, x: int, lo: Fraction,
                        hi: Fraction):
    """Scan fibres (x, y) for a level-1 block union inside B sized in [lo, hi].

    `density_reduce` calls it with x = min B and lo = 1, so at its first
    fibre, (x, x), it returns ((x, x), (x,)) whenever sch.m >= 3 and
    hi >= 1: on an orbit scheme {x} is a level-1 block of that fibre, as
    Stab(x) fixes x, and it has the least id of the blocks inside B, as ids
    follow each block's least member.  (An explicit scheme does the same
    whenever {x} is such a block.)  So None, and the LemmaViolation that
    `density_reduce` raises on it, take m < 3 (sch.m < 3, or the fibre
    after sch.m - 2 halvings) or hi = |B|/K < 1, that is K > |B|.  A start
    with sch.m < 3 or K > |B| fails the precondition m >= 4k'+2 or
    |B| > K, which `strict` raises on.
    """
    if sch.m < 3:
        return None
    for y in b_codes.tolist():
        fib = sch.fiber((x, y))
        total, chosen = 0, []
        for i in _blocks_inside(fib, b_codes):
            pts = fib.level1_block_set(i)
            if Fraction(len(pts)) > hi:
                continue
            if Fraction(total + len(pts)) <= hi:  # first-fit under the cap
                chosen.extend(pts.tolist())
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
    span0, mu, t = _span_density(f, b_codes, K)
    kp = k * (t + 2)
    eps_prime = eps / f.ell ** k
    checks = []

    def require(name: str, holds: bool, detail: str = ""):
        checks.append({"name": name, "holds": bool(holds), "detail": detail})
        if params.strict and not holds:
            raise PreconditionUnmet(name, detail)

    ratio = K / mu  # K / mu(B), for the log precondition
    require("K>1", K > 1, f"K={K}")
    require("0<eps<1", 0 < eps < 1, f"eps={eps}")
    require("0<gamma", gamma > 0, f"gamma={gamma}")
    require("k>=2t", k >= 2 * t, f"k={k}, t={t}")
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
    x = int(cur_codes[0])
    w_sub = _compute_w(cur, cur_b, x, params)
    mu_w = Fraction(int(member_mask(cur_codes, w_sub).sum()), len(w_sub))
    require("eps<=mu_W(B)/2", eps <= mu_w / 2, f"eps={eps}, mu_W(B)={mu_w}")

    n_hi = Fraction(n0) / K

    for i in range(1, r + 1):
        inter = cur_codes[member_mask(cur_codes, w_sub)]
        fibx = cur.fiber((x,))
        _level1_union_ids(fibx, inter)  # B ∩ W is a fibre-level block union
        sizes = {"round": i, "|B|": len(cur_codes), "|B∩W|": len(inter),
                 "|W|": len(w_sub), "mu_W(B)": str(mu_w)}
        if Fraction(len(inter)) <= n_hi:
            recs = [ineq(len(inter), "<=", n_hi, note="|B'|<=|B|/K"),
                    _floor_record(f"{n0}/{K}", Fraction(n0) / K, len(inter), f.ell,
                                  inv_exp, "|B|/K<=|B'|")]
            require_ineqs("density_reduce/case1", recs)
            steps.append(TraceStep("density_reduce", "case1-direct",
                                   prefix + (x,), sizes, recs))
            return ReduceResult("case1", prefix + (x,), tuple(inter.tolist()), n0,
                                steps, checks)
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
            return ReduceResult("case1", prefix + (x,), pts, n0, steps, checks)
        _, blk_id, blk_pts = split
        y = int(blk_pts[0])
        wp_sub = _compute_w(fibx, blk_id, y, params)
        mu_wp = Fraction(int(member_mask(blk_pts, wp_sub).sum()), len(wp_sub))
        halve = ineq(mu_wp, "<=", (mu_w + eps) / 2,
                     note="mu_W'(B')<=(mu_W(B)+eps)/2")
        sizes.update({"|B'|": len(blk_pts), "|W'|": len(wp_sub),
                      "mu_W'(B')": str(mu_wp)})
        if halve["holds"]:
            steps.append(TraceStep("density_reduce", "halving",
                                   prefix + (x,), sizes, [halve]))
            prefix = prefix + (x,)
            cur, cur_b, cur_codes = fibx, blk_id, blk_pts
            x, w_sub, mu_w = y, wp_sub, mu_wp
            continue
        # the dichotomy then promises a small fibre piece; find one
        found = _search_small_union(cur, cur_codes, x,
                                    Fraction(1), n_hi)
        if found is None:
            raise LemmaViolation(
                "density dichotomy: halving failed and no fibre piece of size "
                f"<= {n_hi} exists")
        (x1, y1), pts = found
        recs = [halve, ineq(len(pts), "<=", n_hi, note="|B'|<=|B|/K"),
                _floor_record(f"{n0}/{K}", Fraction(n0) / K, len(pts), f.ell, inv_exp,
                              "|B|/K<=|B'|")]
        if not recs[-1]["holds"]:
            raise LemmaViolation("density_reduce: fibre piece below the "
                                 "ell^(-1/eps'^2)|B|/K floor")
        steps.append(TraceStep("density_reduce", "case1-search",
                               prefix + (x1, y1), sizes, recs))
        return ReduceResult("case1", prefix + (x1, y1), pts, n0, steps, checks)

    # cardinality reduction on U(0) = B' ∩ W
    r2 = params.r_shrink if params.r_shrink is not None else r
    u_codes = cur_codes[member_mask(cur_codes, w_sub)]
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
        partners = f.sub_codes(z0, u_codes)
        in_u = member_mask(partners, u_codes)
        hits = np.flatnonzero(in_u)
        if not len(hits):
            raise LemmaViolation("z0 not representable in U + U")
        pair = (int(u_codes[hits[0]]), int(partners[hits[0]]))
        if cur2.m < 3:
            raise DepthExhausted("cardinality round needs two more levels")
        new_u = u_codes[in_u]
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
    upper = max(Fraction(1) / K, (2 * gamma) ** r2) * n0
    recs = [ineq(len(u_codes), "<=", upper,
                 note="|U|<=max{1/K,(2gamma)^r}|B|")]
    recs.append(_floor_record(f"{n0}/K^3", Fraction(n0) / K ** 3, len(u_codes),
                              f.ell, inv_exp, "|B|/K^3<=|U|"))
    require_ineqs("density_reduce/sandwich", recs)
    steps.append(TraceStep("density_reduce", "sandwich", prefix,
                           {"|U(r)|": len(u_codes)}, recs))
    return ReduceResult("completed", prefix, tuple(u_codes.tolist()), n0, steps, checks)

