"""Linear algebra over prime fields F_ell and coding of points/tuples.

Points of V = F_ell^d are coded as integers in [0, ell^d): base-ell digits,
coordinate 0 most significant.  k-tuples of points are coded in base q = ell^d
with tuple coordinate 1 most significant; the integer tuple code is the single
ordering currency used everywhere (block numbering, reports, JSON).

One radix codec serves every such grid, most significant digit first:
`radix_weights(base, width)` are the place values, `radix_digits(values,
base, width)` the digit rows of an int array, and `digit_rows(ell, r)` all of
F_ell^r in `itertools.product` order.  Point codes, tuple indices over S
(base n), map coefficients (base ell) and dense tuple codes (base q) all go
through them.  `digit_rows` is cached and read-only, and it checks ell^r
against `cap_tuples()` on every call.

Point arithmetic has one path, `Field.add_codes/sub_codes/neg_codes`: codes
in, codes out.  The arguments are ints or integer arrays of codes and
broadcast like numpy; a 0-d result comes back as a Python int.  Every call
checks the point-space cap and the range [0, q) of its codes once (min and
max), raising CapExceeded or IndexOutOfRange.  For ell = 2 addition and
subtraction are the XOR of codes and negation is the identity; otherwise the
codes go through `digit_rows(ell, d)` and `encode_batch`.
`decode_batch`, which turns codes into digit rows, makes the same range check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .caps import DEFAULT_CAP_MAPS, MAX_DIM, MAX_ELL, cap_tuples
from .errors import ArityMismatch, CapExceeded, IndexOutOfRange, InputError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n ** 0.5) + 1):
        if n % p == 0:
            return False
    return True


def unique_sorted(values) -> np.ndarray:
    """The distinct entries of an array, ascending and flat, as a plain
    `np.unique` gives them, by a sort and a drop of adjacent repeats.  A
    plain `np.unique` imports `numpy.ma` (about 13 ms) on its first call."""
    arr = np.sort(np.asarray(values).reshape(-1))
    keep = np.ones(len(arr), dtype=bool)
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def member_mask(values, members) -> np.ndarray:
    """Boolean array, shaped like values, of which entries lie in members:
    `np.isin` by a binary search of the sorted members (np.isin calls a
    plain `np.unique` on most inputs)."""
    keys = unique_sorted(members)
    values = np.asarray(values)
    if not len(keys):
        return np.zeros(values.shape, dtype=bool)
    return keys[np.minimum(np.searchsorted(keys, values), len(keys) - 1)] == values


@dataclass(frozen=True)
class Field:
    """Ambient vector space F_ell^dim with point coding and point arithmetic.

    `add_codes`, `sub_codes` and `neg_codes` take point codes (ints or
    arrays, broadcast like numpy) and return codes; codes outside [0, q)
    raise IndexOutOfRange.  For ell = 2 they are XOR and the identity.
    """

    ell: int
    dim: int

    def __post_init__(self):
        if not is_prime(self.ell):
            raise InputError(f"ell={self.ell} is not prime")
        if self.ell > MAX_ELL:
            raise CapExceeded("ell", self.ell, MAX_ELL)
        if not (1 <= self.dim <= MAX_DIM):
            raise InputError(f"dim={self.dim} outside [1, {MAX_DIM}]")

    @property
    def q(self) -> int:
        return self.ell ** self.dim

    # ---- point coding -------------------------------------------------

    def encode(self, vec: Sequence[int]) -> int:
        if len(vec) != self.dim:
            raise ArityMismatch(f"vector length {len(vec)} != dim {self.dim}")
        code = 0
        for c in vec:
            c = int(c)
            if not (0 <= c < self.ell):
                raise IndexOutOfRange(f"coordinate {c} outside [0, {self.ell})")
            code = code * self.ell + c
        return code

    def decode(self, code: int):
        if not (0 <= code < self.q):
            raise IndexOutOfRange(f"point code {code} outside [0, {self.q})")
        out = []
        for _ in range(self.dim):
            out.append(code % self.ell)
            code //= self.ell
        return tuple(reversed(out))

    def decode_batch(self, codes) -> np.ndarray:
        """Array of shape (n, dim) with the digit rows of the given codes;
        codes outside [0, q) raise IndexOutOfRange."""
        table = digit_rows(self.ell, self.dim)
        return table[self._in_range(np.asarray(codes, dtype=np.int64))]

    def encode_batch(self, rows: np.ndarray) -> np.ndarray:
        """Codes of digit rows (the last axis), each digit reduced mod ell."""
        return (np.asarray(rows, dtype=np.int64) % self.ell) @ radix_weights(self.ell, self.dim)

    # ---- point arithmetic (on codes) ---------------------------------

    def _in_range(self, arr: np.ndarray) -> np.ndarray:
        """`arr`, after one min/max check that its codes lie in [0, q)."""
        if arr.size:
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= self.q:
                bad = lo if lo < 0 else hi
                raise IndexOutOfRange(f"point code {bad} outside [0, {self.q})")
        return arr

    def _point_codes(self, codes) -> np.ndarray:
        """`codes` as an int64 array, after the point-space cap and the
        range check."""
        cap = cap_tuples()
        if self.q > cap:
            raise CapExceeded("point space", self.q, cap)
        return self._in_range(np.asarray(codes, dtype=np.int64))

    @staticmethod
    def _codes_out(arr: np.ndarray):
        return int(arr) if arr.ndim == 0 else arr

    def _combine(self, a, b, sign: int):
        a, b = self._point_codes(a), self._point_codes(b)
        if self.ell == 2:
            return self._codes_out(a ^ b)
        table = digit_rows(self.ell, self.dim)
        return self._codes_out(self.encode_batch(table[a] + sign * table[b]))

    def add_codes(self, a, b):
        """Codes of a + b, broadcast like numpy over ints or code arrays."""
        return self._combine(a, b, 1)

    def sub_codes(self, a, b):
        """Codes of a - b, broadcast like numpy over ints or code arrays."""
        return self._combine(a, b, -1)

    def neg_codes(self, a):
        """Codes of -a, elementwise over an int or a code array."""
        a = self._point_codes(a)
        if self.ell == 2:
            return self._codes_out(a.copy())
        return self._codes_out(self.encode_batch(-digit_rows(self.ell, self.dim)[a]))

    @property
    def zero(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# the radix codec
# ---------------------------------------------------------------------------


def radix_weights(base: int, width: int) -> np.ndarray:
    """Place values base^(width-1), ..., base, 1: a row of `width` digits,
    most significant first, times these is its number."""
    return base ** np.arange(width - 1, -1, -1, dtype=np.int64)


def radix_digits(values, base: int, width: int) -> np.ndarray:
    """Base-`base` digits of each entry of an int array, most significant
    first, along a new last axis of length `width`; entries lie in
    [0, base^width)."""
    values = np.asarray(values, dtype=np.int64)
    out = np.empty(values.shape + (width,), dtype=np.int64)
    # one column at a time: a broadcast (N, 1) // (width,) is slower
    for i in range(width - 1, -1, -1):
        out[..., i] = values % base
        values = values // base
    return out


def digit_rows(ell: int, r: int) -> np.ndarray:
    """All of F_ell^r as an (ell^r, r) array, row c the digits of c: the
    tuples that `itertools.product` makes of r copies of range(ell), in its
    order.  Cached and read-only; ell^r is checked against `cap_tuples()` on
    every call."""
    size, cap = ell ** r, cap_tuples()
    if size > cap:
        raise CapExceeded("point space", size, cap)
    return _digit_grid(ell, r)


@lru_cache(maxsize=64)
def _digit_grid(ell: int, r: int) -> np.ndarray:
    grid = radix_digits(np.arange(ell ** r, dtype=np.int64), ell, r)
    grid.flags.writeable = False
    return grid


# ---------------------------------------------------------------------------
# coordinate-linear maps between tuple spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinMap:
    """Coordinate-linear map V^k -> V^k' given by a k x k' coefficient matrix.

    Output coordinate j of input (x_1..x_k) is sum_i coeffs[i][j] * x_i.
    """

    src_arity: int
    dst_arity: int
    coeffs: tuple  # tuple of src_arity rows, each a tuple of dst_arity ints

    def __post_init__(self):
        if len(self.coeffs) != self.src_arity or any(
            len(row) != self.dst_arity for row in self.coeffs
        ):
            raise ArityMismatch("coefficient matrix shape mismatch")

    def apply_batch(self, field: Field, tuples: np.ndarray) -> np.ndarray:
        """Apply to an (n, k) array of point codes; returns (n, k') codes."""
        n, k = tuples.shape
        if k != self.src_arity:
            raise ArityMismatch("batch arity mismatch")
        digs = field.decode_batch(tuples.reshape(-1)).reshape(n, k, field.dim)
        mat = np.asarray(self.coeffs, dtype=np.int64)
        out = mat.T @ digs  # (n, k', d); encode_batch reduces mod ell
        return field.encode_batch(out.reshape(-1, field.dim)).reshape(n, self.dst_arity)

    def as_lists(self):
        return [list(row) for row in self.coeffs]


def linmap(coeffs) -> LinMap:
    rows = tuple(tuple(int(c) for c in row) for row in coeffs)
    return LinMap(len(rows), len(rows[0]) if rows else 0, rows)


def projection(k: int, i: int) -> LinMap:
    """pi_{k,i}: (x_1..x_k) -> x_i (1-based i)."""
    if not (1 <= i <= k):
        raise IndexOutOfRange(f"projection index {i} outside [1, {k}]")
    return linmap([[1 if r == i - 1 else 0] for r in range(k)])


def summation(k: int) -> LinMap:
    """sigma_k: (x_1..x_k) -> x_1 + ... + x_k."""
    return linmap([[1]] * k)


def swap_map(k: int, i: int, j: int) -> LinMap:
    """Transposition of coordinates i and j (1-based) of V^k."""
    perm = list(range(k))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return linmap([[1 if perm[c] == r else 0 for c in range(k)] for r in range(k)])


def linmap_count(field: Field, k: int, kp: int) -> int:
    """ell^(k*k'), the number of coordinate-linear maps V^k -> V^k', or
    CapExceeded when it exceeds DEFAULT_CAP_MAPS."""
    total = field.ell ** (k * kp)
    if total > DEFAULT_CAP_MAPS:
        raise CapExceeded(f"linear maps {k}->{kp}", total, DEFAULT_CAP_MAPS)
    return total


def enumerate_linmaps(field: Field, k: int, kp: int):
    """All coordinate-linear maps V^k -> V^k', in lexicographic coefficient order."""
    linmap_count(field, k, kp)
    for flat in itertools.product(range(field.ell), repeat=k * kp):
        yield linmap([flat[i * kp:(i + 1) * kp] for i in range(k)])


# ---------------------------------------------------------------------------
# matrix algebra mod ell
# ---------------------------------------------------------------------------


def rref_mod(matrix, ell: int):
    """Reduced row echelon form mod prime ell; returns (rref, pivot columns).

    Gauss-Jordan by whole-row updates: per pivot column, one outer-product
    step clears the column in every other row.  The scalar row loop is the
    test oracle (`tests/point_oracle.py::rref_mod_loop`); the reduced form
    is unique, so both give the same matrix."""
    mat = np.array(matrix, dtype=np.int64) % ell
    if mat.ndim != 2:
        mat = mat.reshape(len(mat), -1)
    nrows, ncols = mat.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nonzero = mat[row:, col].nonzero()[0]
        if not len(nonzero):
            continue
        pivot = row + int(nonzero[0])
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
        inv = pow(int(mat[row, col]), -1, ell)
        if inv != 1:
            mat[row] = mat[row] * inv % ell
        factors = mat[:, col].copy()
        factors[row] = 0
        mat = (mat - factors[:, None] * mat[row]) % ell
        pivots.append(col)
        row += 1
    return mat, tuple(pivots)


def rank_mod(matrix, ell: int) -> int:
    return len(rref_mod(matrix, ell)[1])


def nullspace_basis_mod(matrix, ell: int) -> np.ndarray:
    """Basis rows of {x : matrix @ x = 0 (mod ell)}."""
    mat = np.array(matrix, dtype=np.int64) % ell
    if mat.size == 0:
        n = mat.shape[1] if mat.ndim == 2 else 0
        return np.eye(n, dtype=np.int64)
    red, pivots = rref_mod(mat, ell)
    ncols = red.shape[1]
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        vec = np.zeros(ncols, dtype=np.int64)
        vec[f] = 1
        for r, p in enumerate(pivots):
            vec[p] = (-red[r, f]) % ell
        basis.append(vec)
    if not basis:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.stack(basis)


def span_basis(field: Field, codes: Iterable[int]) -> np.ndarray:
    """Row basis (rref rows) of the F_ell-span of the given point codes."""
    codes = list(codes)
    if not codes:
        return np.zeros((0, field.dim), dtype=np.int64)
    rows = field.decode_batch(codes)
    red, pivots = rref_mod(rows, field.ell)
    return red[: len(pivots)]


def span_dim(field: Field, codes: Iterable[int]) -> int:
    return span_basis(field, codes).shape[0]


def span_points(field: Field, codes: Iterable[int]) -> list:
    """All point codes of the subgroup generated by the given points, as
    sorted Python ints: every coefficient row over the rref basis, which are
    independent, so the points are distinct."""
    basis = span_basis(field, codes)
    return np.sort(field.encode_batch(digit_rows(field.ell, basis.shape[0]) @ basis)).tolist()
