"""Additive combinatorics over F_ell^d: sumsets, energy, covering, growth checks.

Point sets and histograms are counted over [0, q), not sorted: a sumset is
a boolean mask set at the |A||B| pair sums, a sum histogram one `np.bincount`
of them, so each costs O(q + |A||B|) time and one q-entry array (q is under
the point-space cap, which `Field.add_codes` checks).  Each `PointSet` keeps
its own A + A counts and its span ⟨A⟩, computed on first use, so the energy,
doubling, covering and growth checks of one set build each once.

All ratio/density comparisons are exact (fractions.Fraction / big integers);
nothing here touches floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import EmptyReference, FieldMismatch, InputError
from .gf_linalg import Field, span_dim, span_points, unique_sorted

# comparisons per chunk of the energy oracle's quadruple count: its boolean
# temporary stays near 8 MB whatever |A| is
ORACLE_CHUNK = 1 << 23


@dataclass(frozen=True, eq=False)
class PointSet:
    """A finite subset of F_ell^dim, stored as its point codes: one sorted,
    duplicate-free, read-only int64 array.  Its A + A counts and its span
    ⟨A⟩ are computed on first use and kept."""

    field: Field
    codes: np.ndarray

    def __post_init__(self):
        self.codes.flags.writeable = False

    @staticmethod
    def from_codes(field: Field, codes: Iterable[int]) -> "PointSet":
        """The set of the given codes.  InputError names the least code
        outside [0, q), also when it lies beyond int64: codes that numpy
        would not hold as integers (it makes floats of [-1, 2**63]) are held
        as Python ints until the range check."""
        cs = codes if isinstance(codes, np.ndarray) else list(codes)
        arr = np.asarray(cs)
        cs = unique_sorted(arr if arr.dtype.kind in "iu" else np.array(cs, dtype=object))
        if len(cs) and (cs[0] < 0 or cs[-1] >= field.q):
            bad = cs[0] if cs[0] < 0 else cs[np.searchsorted(cs, field.q)]
            raise InputError(f"point code {bad} outside field")
        return PointSet(field, cs.astype(np.int64))

    def __len__(self):
        return len(self.codes)

    def __contains__(self, code):
        i = np.searchsorted(self.codes, code)
        return bool(i < len(self.codes) and self.codes[i] == code)

    @cached_property
    def _doubling(self):
        """(codes, counts) of A + A: each sum that occurs, ascending, and
        #{(x, y) in A x A : x + y = z}, both read-only int64 arrays."""
        return _counted(self.field, _pair_sums(self.field, self, self))

    @cached_property
    def _span(self) -> "PointSet":
        return PointSet(self.field, span_points(self.field, self.codes))


def _require_same_field(*sets: PointSet):
    f = sets[0].field
    for s in sets[1:]:
        if s.field != f:
            raise FieldMismatch("point sets over different fields")
    return f


def _pair_sums(field: Field, a: PointSet, b: PointSet) -> np.ndarray:
    """Flat array of x + y over (x, y) in A x B, x-major."""
    return field.add_codes(a.codes[:, None], b.codes[None, :]).reshape(-1)


def _marked(field: Field, *codes) -> PointSet:
    """The set of the given code arrays' entries, by a boolean mask over
    [0, q); the entries are codes in range."""
    mask = np.zeros(field.q, dtype=bool)
    for c in codes:
        mask[c] = True
    return PointSet(field, np.flatnonzero(mask))


def _counted(field: Field, codes: np.ndarray):
    """(codes, counts): the distinct entries of a code array, ascending, and
    how often each occurs, by one `np.bincount` over [0, q); read-only."""
    counts = np.bincount(codes, minlength=field.q)
    support = np.flatnonzero(counts)
    counts = counts[support]
    support.flags.writeable = counts.flags.writeable = False
    return support, counts


def sumset(a: PointSet, b: PointSet) -> PointSet:
    field = _require_same_field(a, b)
    if a is b:
        return PointSet(field, a._doubling[0])
    return _marked(field, _pair_sums(field, a, b))


def negate(a: PointSet) -> PointSet:
    return _marked(a.field, a.field.neg_codes(a.codes))


def difference_set(a: PointSet, b: PointSet) -> PointSet:
    return sumset(a, negate(b))


def iterated_sumset(k: int, a: PointSet) -> PointSet:
    """kA = A + ... + A (k summands), k >= 1."""
    if k < 1:
        raise InputError("iterated sumset needs k >= 1")
    out = a
    for _ in range(k - 1):
        out = sumset(out, a)
    return out


def symmetrized(a: PointSet) -> PointSet:
    """A^± = A ∪ (−A) ∪ {0}."""
    return _marked(a.field, a.codes, a.field.neg_codes(a.codes), 0)


def subgroup_generated(a: PointSet) -> PointSet:
    """⟨A⟩: over a prime field this is the F_ell-span; kept on A."""
    if not len(a):
        raise EmptyReference("subgroup generated by empty set")
    return a._span


def density(a: PointSet) -> Fraction:
    """mu(A) = |A| / |⟨A⟩|."""
    return Fraction(len(a), len(subgroup_generated(a)))


def sum_histogram(a: PointSet, b: PointSet):
    """dict z -> #{(x,y) in A x B : x + y = z}, keys ascending, Python ints."""
    field = _require_same_field(a, b)
    codes, counts = a._doubling if a is b else _counted(field, _pair_sums(field, a, b))
    return dict(zip(codes.tolist(), counts.tolist()))


def additive_energy(a: PointSet) -> int:
    """E(A) = #{(a1,a2,a3,a4) in A^4 : a1 + a2 = a3 + a4} = sum_z r(z)^2,
    exact: in int64 while |A|^3, which bounds E(A), is below 2^63, in
    Python ints beyond."""
    counts = a._doubling[1]
    if len(a) ** 3 >= 2 ** 63:
        counts = counts.astype(object)
    return int(counts @ counts)


def additive_energy_oracle(a: PointSet) -> int:
    """Independent quadruple count for E(A), the oracle of `additive_energy`.

    Compares the sums a1 + a2 and a3 + a4 of every quadruple in A^4, all
    |A|^4 of them, as array work: the points are decoded one by one, all
    |A|^2 sums are taken digit-wise mod ell and coded with base-ell
    weights, and equal pairs of sums are counted in row chunks of at most
    `ORACLE_CHUNK` comparisons.  It shares no code with the fast path (no
    `sum_histogram`, `Field.add_codes`/`encode_batch`, sort or unique); the
    literal four-deep loop is kept in the tests as this count's oracle.
    """
    field = a.field
    n = len(a.codes)
    digs = np.array([field.decode(c) for c in a.codes.tolist()], dtype=np.int64)
    digs = digs.reshape(n, field.dim)
    weights = field.ell ** np.arange(field.dim - 1, -1, -1, dtype=np.int64)
    sums = ((digs[:, None, :] + digs[None, :, :]) % field.ell) @ weights
    sums = sums.reshape(-1)
    rows = max(1, ORACLE_CHUNK // max(1, sums.size))
    total = 0
    for i in range(0, sums.size, rows):
        total += int(np.count_nonzero(sums[i:i + rows, None] == sums[None, :]))
    return total


def is_coset(a: PointSet) -> bool:
    """True iff A is a coset of a subgroup of V."""
    if not len(a):
        return False
    # A - a0 has |A| distinct points inside its span: a subgroup iff as many
    return len(a) == a.field.ell ** span_dim(a.field, a.field.sub_codes(a.codes, a.codes[0]))


def covering_number(a: PointSet) -> int:
    """Least h with h * A^± = ⟨A⟩ (h-fold sumset of the symmetrized set).

    The loop ends by h = r * floor(ell/2), r = dim ⟨A⟩: take a basis
    b_1..b_r of ⟨A⟩ from A; every point of ⟨A⟩ is sum_i c_i b_i with
    |c_i| <= floor(ell/2), a sum of r * floor(ell/2) points of A^± once
    0 ∈ A^± pads it.  So h <= 16 * 125 = 2000 within MAX_DIM and MAX_ELL.
    Every h * A^± lies in ⟨A⟩, so sizes decide equality.
    """
    if not len(a):
        raise EmptyReference("covering number of empty set")
    target = len(subgroup_generated(a))
    apm = symmetrized(a)
    cur = apm
    h = 1
    while len(cur) < target:
        h += 1
        cur = sumset(cur, apm)
    return h


def covering_bound(a: PointSet) -> int:
    """Upper bound max{2, floor(3 / (2 mu(A)))} for the covering number."""
    mu = density(a)
    return max(2, int(Fraction(3, 2) / mu))


def check_covering(a: PointSet):
    """Returns (h, bound, ok) for the covering-number bound."""
    h = covering_number(a)
    bound = covering_bound(a)
    return h, bound, h <= bound


def check_freiman_ruzsa(a: PointSet):
    """Small doubling |A+A| <= K|A| forces |⟨A⟩| <= ell^{2K} |A|; exact check.

    K is the doubling constant |A+A|/|A| itself: the conclusion weakens as
    K grows, so the least K that the hypothesis allows is the strongest
    check.  With K = p/q the conclusion is compared as
    |⟨A⟩|^q <= ell^{2p} * |A|^q  (integer arithmetic, no rounding).
    Returns (K, ok).
    """
    if not len(a):
        raise EmptyReference("growth check on empty set")
    K = Fraction(len(sumset(a, a)), len(a))
    span_size = len(subgroup_generated(a))
    p, q = K.numerator, K.denominator
    ok = span_size ** q <= a.field.ell ** (2 * p) * len(a) ** q
    return K, ok


def check_plunnecke(a: PointSet, b: PointSet, k: int):
    """|A+B| <= K|A| forces |kB| <= K^k |A|; exact check at the least such
    K, |A+B|/|A|, where the conclusion is strongest. Returns (K, ok)."""
    _require_same_field(a, b)
    if not len(a) or not len(b):
        raise EmptyReference("growth check on empty set")
    K = Fraction(len(sumset(a, b)), len(a))
    kb = len(iterated_sumset(k, b))
    ok = Fraction(kb) <= K ** k * len(a)
    return K, ok
