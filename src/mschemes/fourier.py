"""Discrete Fourier analysis on subgroups of F_ell^d.

The ambient group is the span of a point set, with the canonical basis given
by the reduced-row-echelon rows of its generators; characters are labelled by
dual vectors over that basis.  Coefficients use complex doubles; every
threshold comparison applies a 1e-9 guard band.

A coefficient vector is one complex array of length |G|, indexed like the
dual grid `duals`, which is `gf_linalg.digit_rows(field, r)` itself (all of
F_ell^r in `itertools.product` order, the sorted order of the dual vectors;
cached and read-only); index 0 is the trivial character.  `all_coeffs`
makes it, and `parseval_check`, `inversion_check`, `heavy_characters` and
`coeffs_csv` read it.

Summation contract.  The defining sum (`tests/point_oracle.py::coeff`) is
the reference for every coefficient: one conjugated root of unity per member
of the subset, added in sorted-code order to an accumulator that starts at
+0.0, then divided by |G|.  `all_coeffs` keeps that order over all duals at
once.  It reduces each block of phase rows with `np.add.reduce(..., axis=0)`
below the running accumulator row (a row of zeros at the start); an axis-0
reduce adds row after row, so every dual sees the same sequence of additions
as the defining sum.  The real and imaginary parts are each divided by
float(|G|), as Python's `complex / int` does, and stored into the parts of
the result.  So the coefficients, and the CSV and heavy lists built from
them, equal the defining sum bit for bit.  A pairwise or FFT summation would
change the last bits (for ell = 2 it turns imaginary parts of about 1e-16
into exact zeros).

Moduli are `np.hypot(re, im)` (`moduli`), which is what Python's
`abs(complex)` computes; `np.abs` of a complex array differs from it in the
last bit on many inputs.  Parseval squares them with Python `**` and adds them with
Python `sum`, in dual order.  `np.fft.ifftn` is used only for the inversion
residual, which is compared against the guard band and never reported to
full precision.
"""
from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ArityMismatch, CapExceeded, EmptyReference
from .gf_linalg import Field, digit_rows, member_mask, span_basis, span_grid

GUARD = 1e-9
CAP_GROUP_ORDER = 2 ** 16
PHASE_CHUNK = 2 ** 20  # most entries of one (members, duals) phase block


def moduli(coeffs: np.ndarray) -> np.ndarray:
    """|c| for each entry of a coefficient vector, equal bit for bit to
    Python's abs(complex) (see the module docstring)."""
    return np.hypot(coeffs.real, coeffs.imag)


@dataclass
class FourierContext:
    """Fourier transform context for the subgroup spanned by a generating set."""

    field: Field
    basis: np.ndarray          # rref rows, shape (r, dim)
    codes: np.ndarray          # (|G|,) sorted point codes of the subgroup
    coord_rows: np.ndarray = dc_field(repr=False)  # (|G|, r): coords of codes[i]
    duals: np.ndarray = dc_field(repr=False)       # (|G|, r): digit_rows(field, r)

    @staticmethod
    def for_generators(field: Field, codes) -> "FourierContext":
        codes = list(codes)
        if not codes:
            raise EmptyReference("Fourier context over empty generating set")
        basis = span_basis(field, codes)
        r = basis.shape[0]
        order = field.ell ** r
        if order > CAP_GROUP_ORDER:
            raise CapExceeded("fourier group order", order, CAP_GROUP_ORDER)
        group, coords = span_grid(field, basis)
        return FourierContext(field, basis, group, coords, digit_rows(field, r))

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def order(self) -> int:
        return len(self.codes)

    def _member_rows(self, subset) -> np.ndarray:
        """Ascending indices into codes of the codes of subset in the group."""
        subset = np.fromiter(subset, dtype=np.int64)
        return np.flatnonzero(member_mask(self.codes, subset))

    def _check_dual(self, dual):
        if len(dual) != self.rank:
            raise ArityMismatch(f"dual vector length {len(dual)} != rank {self.rank}")

    def kernel(self, dual):
        """Sorted codes of {x in G : <dual, coords(x)> = 0}."""
        self._check_dual(dual)
        mask = (self.coord_rows @ np.asarray(dual, dtype=np.int64)) % self.field.ell == 0
        return self.codes[mask].tolist()

    # ---- transforms ---------------------------------------------------

    def all_coeffs(self, subset) -> np.ndarray:
        """The coefficient vector of the indicator of subset: entry i is
        hat{1_A}(chi) = (1/|G|) sum_{x in G} 1_A(x) conj(chi(x)) at the dual
        vector `duals[i]`, equal bit for bit to the defining sum (see the
        module docstring)."""
        ell = self.field.ell
        table = np.array([cmath.exp(2j * cmath.pi * k / ell).conjugate() for k in range(ell)])
        members = self.coord_rows[self._member_rows(subset)]
        acc = np.zeros((1, self.order), dtype=complex)
        step = max(1, PHASE_CHUNK // self.order)
        for lo in range(0, len(members), step):
            phase = (members[lo:lo + step] @ self.duals.T) % ell
            acc = np.add.reduce(np.vstack([acc, table[phase]]), axis=0, keepdims=True)
        # the defining sum's `total / order` divides each part by
        # float(order); a complex numpy division would not
        out = np.empty(self.order, dtype=complex)
        out.real = acc[0].real / self.order
        out.imag = acc[0].imag / self.order
        return out

    def parseval_check(self, subset, coeffs):
        """(sum |coeff|^2, E[1_A], abs error) — Parseval for an indicator.

        coeffs is `all_coeffs(subset)`, computed once by the caller; the same
        holds for `inversion_check`, `heavy_characters` and `coeffs_csv`."""
        lhs = sum(a ** 2 for a in moduli(coeffs).tolist())
        rhs = len(self._member_rows(subset)) / self.order
        return lhs, rhs, abs(lhs - rhs)

    def inversion_check(self, subset, coeffs):
        """Max pointwise error of f(x) = sum_chi hat f(chi) chi(x)."""
        # the duals run over the (ell,)*r grid in C order, so the inverse
        # transform is indexed by coordinates
        grid = self.order * np.fft.ifftn(coeffs.reshape((self.field.ell,) * self.rank))
        values = grid[tuple(self.coord_rows.T)]  # f at each of codes
        indicator = np.zeros(self.order)
        indicator[self._member_rows(subset)] = 1.0
        return float(np.max(np.abs(values - indicator)))

    def heavy_characters(self, coeffs, eps: float):
        """[(dual vector, coefficient)] for the nontrivial characters with
        |coeff| >= eps (1e-9 guard band), sorted by dual vector."""
        heavy = moduli(coeffs) >= eps - GUARD
        heavy[0] = False  # index 0 is the trivial character
        idx = np.flatnonzero(heavy)
        return [(tuple(d), c) for d, c in zip(self.duals[idx].tolist(), coeffs[idx].tolist())]

    # ---- CSV interchange ---------------------------------------------

    def coeffs_csv(self, coeffs) -> str:
        """`dual_vector,re,im,abs` rows in dual order, fields at 12 digits."""
        # the labels of the duals, in the grid order of `duals`
        labels = map(" ".join, itertools.product(
            [str(a) for a in range(self.field.ell)], repeat=self.rank))
        rows = zip(labels, coeffs.real.tolist(), coeffs.imag.tolist(), moduli(coeffs).tolist())
        return "dual_vector,re,im,abs\n" + "".join(
            f"{d},{x:.12e},{y:.12e},{a:.12e}\n" for d, x, y, a in rows)
