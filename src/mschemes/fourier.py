"""Discrete Fourier analysis on subgroups of F_ell^d.

The ambient group is the span of a point set, with the canonical basis given
by the reduced-row-echelon rows of its generators; characters are labelled by
dual vectors over that basis.  Coefficients use complex doubles; every
threshold comparison applies a 1e-9 guard band.

Summation contract.  `coeff` is the defining sum and the reference for every
coefficient.  `all_coeffs` vectorises it over the duals but keeps its order:
one conjugated root of unity per member of the subset, added in sorted-code
order to real and imaginary accumulators that start at zero, each divided by
|G| at the end.  So its coefficients, and the CSV and heavy lists built from
them, equal `coeff` bit for bit.  A pairwise or FFT summation would change the
last bits (for ell = 2 it turns imaginary parts of about 1e-16 into exact
zeros).  `np.fft.ifftn` is used only for the inversion residual, which is
compared against the guard band and never reported to full precision.
"""
from __future__ import annotations

import bisect
import cmath
import csv
import io
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ArityMismatch, CapExceeded, EmptyReference, FieldMismatch
from .gf_linalg import Field, span_basis

GUARD = 1e-9
CAP_GROUP_ORDER = 2 ** 16


def _digit_rows(ell: int, r: int) -> np.ndarray:
    """Base-ell digits of 0..ell^r - 1, most significant first: the rows of
    itertools.product(range(ell), repeat=r), in its order."""
    weights = ell ** np.arange(r - 1, -1, -1, dtype=np.int64)
    return (np.arange(ell ** r, dtype=np.int64)[:, None] // weights) % ell


@dataclass
class FourierContext:
    """Fourier transform context for the subgroup spanned by a generating set."""

    field: Field
    basis: np.ndarray          # rref rows, shape (r, dim)
    elements: list             # sorted point codes of the subgroup
    coord_rows: np.ndarray = dc_field(repr=False)  # (|G|, r): coords of elements[i]

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
        # every coordinate row times the basis (encode_batch reduces mod ell),
        # then sorted by point code
        combos = _digit_rows(field.ell, r)
        group = field.encode_batch(combos @ basis)
        perm = np.argsort(group)
        return FourierContext(field, basis, group[perm].tolist(), combos[perm])

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @property
    def order(self) -> int:
        return len(self.elements)

    def _row(self, code):
        """Index of code in elements, or None when it is not in the group."""
        i = bisect.bisect_left(self.elements, code)
        return i if i < len(self.elements) and self.elements[i] == code else None

    def _member_rows(self, subset):
        """Sorted indices into elements of the codes of subset in the group."""
        return sorted(i for i in map(self._row, set(subset)) if i is not None)

    def _check_dual(self, dual):
        if len(dual) != self.rank:
            raise ArityMismatch(f"dual vector length {len(dual)} != rank {self.rank}")

    def coords(self, code: int):
        i = self._row(code)
        if i is None:
            raise FieldMismatch(f"point {code} not in the Fourier group")
        return tuple(self.coord_rows[i].tolist())

    def char_value(self, dual, code: int) -> complex:
        self._check_dual(dual)
        c = self.coords(code)
        phase = sum(a * x for a, x in zip(dual, c)) % self.field.ell
        return cmath.exp(2j * cmath.pi * phase / self.field.ell)

    def kernel(self, dual):
        """Sorted codes of {x in G : <dual, coords(x)> = 0}."""
        self._check_dual(dual)
        mask = (self.coord_rows @ np.asarray(dual, dtype=np.int64)) % self.field.ell == 0
        return np.asarray(self.elements, dtype=np.int64)[mask].tolist()

    # ---- transforms ---------------------------------------------------

    def coeff(self, subset, dual) -> complex:
        """hat{1_A}(chi) = (1/|G|) sum_{x in G} 1_A(x) conj(chi(x))."""
        self._check_dual(dual)
        sub = set(subset)
        total = 0j
        for code in self.elements:
            if code in sub:
                total += self.char_value(dual, code).conjugate()
        return total / self.order

    def all_coeffs(self, subset):
        """dict dual vector -> coefficient, for the indicator of subset.

        Equal bit for bit to `coeff` at every dual (see the module docstring)."""
        ell = self.field.ell
        table = np.array([cmath.exp(2j * cmath.pi * k / ell).conjugate() for k in range(ell)])
        table_re, table_im = table.real, table.imag
        duals = _digit_rows(ell, self.rank)
        re = np.zeros(self.order)
        im = np.zeros(self.order)
        for i in self._member_rows(subset):
            phase = (duals @ self.coord_rows[i]) % ell
            re += table_re[phase]
            im += table_im[phase]
        # coeff's `total / order` divides each part by float(order); a complex
        # numpy division would multiply by a reciprocal instead
        re /= self.order
        im /= self.order
        return {tuple(d): complex(x, y)
                for d, x, y in zip(duals.tolist(), re.tolist(), im.tolist())}

    def parseval_check(self, subset, coeffs):
        """(sum |coeff|^2, E[1_A], abs error) — Parseval for an indicator.

        coeffs is `all_coeffs(subset)`, computed once by the caller; the same
        holds for `inversion_check` and `coeffs_csv`."""
        lhs = sum(abs(c) ** 2 for c in coeffs.values())
        rhs = len(set(subset) & set(self.elements)) / self.order
        return lhs, rhs, abs(lhs - rhs)

    def inversion_check(self, subset, coeffs):
        """Max pointwise error of f(x) = sum_chi hat f(chi) chi(x)."""
        coeffs = np.fromiter(coeffs.values(), complex, self.order)
        # the duals run over the (ell,)*r grid in C order, so the inverse
        # transform is indexed by coordinates
        grid = self.order * np.fft.ifftn(coeffs.reshape((self.field.ell,) * self.rank))
        values = grid[tuple(self.coord_rows.T)]  # f at each of elements
        indicator = np.zeros(self.order)
        indicator[self._member_rows(subset)] = 1.0
        return float(np.max(np.abs(values - indicator)))

    def heavy_characters(self, subset, eps: float, include_trivial: bool = False,
                         coeffs=None):
        """Characters with |coeff| >= eps (1e-9 guard band), sorted by dual
        vector; coeffs defaults to `all_coeffs(subset)`."""
        coeffs = self.all_coeffs(subset) if coeffs is None else coeffs
        out = []
        for dual, c in sorted(coeffs.items()):
            if not include_trivial and all(a == 0 for a in dual):
                continue
            if abs(c) >= eps - GUARD:
                out.append((dual, c))
        return out

    # ---- CSV interchange ---------------------------------------------

    def coeffs_csv(self, coeffs) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["dual_vector", "re", "im", "abs"])
        for dual, c in sorted(coeffs.items()):
            writer.writerow(
                [
                    " ".join(str(a) for a in dual),
                    f"{c.real:.12e}",
                    f"{c.imag:.12e}",
                    f"{abs(c):.12e}",
                ]
            )
        return buf.getvalue()
