"""Character sums on subgroups of F_ell^d: Parseval, inversion, heavy sets."""
import csv
import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import point_oracle as oracle
from mschemes.errors import (
    ArityMismatch,
    CapExceeded,
    EmptyReference,
    FieldMismatch,
    InputError,
)
from mschemes import fourier
from mschemes.fourier import CAP_GROUP_ORDER, GUARD, FourierContext
from mschemes.gf_linalg import Field

CASES = [(2, 4), (3, 3), (5, 2)]
case_ix = st.integers(0, len(CASES) - 1)


def ctx_for(ell, dim):
    f = Field(ell, dim)
    # basis vectors e_i have codes ell^i under the positional encoding
    return FourierContext.for_generators(f, [ell ** i for i in range(dim)])


# (ell, dim, generators): the full groups of CASES and a proper subgroup
ORACLE_CONTEXTS = [(ell, dim, [ell ** i for i in range(dim)]) for ell, dim in CASES]
ORACLE_CONTEXTS.append((2, 4, [3, 5]))
oracle_ix = st.integers(0, len(ORACLE_CONTEXTS) - 1)


def same_float(x, y):
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def assert_equals_defining_sum(ctx, subset, coeffs):
    """coeffs is the vector of `coeff` over the duals in product order, bit
    for bit, and its CSV is what csv.writer makes of those values."""
    assert isinstance(coeffs, np.ndarray) and coeffs.shape == (ctx.order,)
    duals = list(oracle.dual_vectors(ctx))
    assert ctx.duals.tolist() == [list(d) for d in duals]
    rows = [["dual_vector", "re", "im", "abs"]]
    for dual, c in zip(duals, coeffs.tolist()):
        want = oracle.coeff(ctx, subset, dual)
        assert same_float(c.real, want.real) and same_float(c.imag, want.imag), dual
        rows.append([" ".join(map(str, dual)), f"{want.real:.12e}",
                     f"{want.imag:.12e}", f"{abs(want):.12e}"])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert ctx.coeffs_csv(coeffs) == buf.getvalue()


@given(oracle_ix, st.data())
@settings(max_examples=40, deadline=None)
def test_all_coeffs_equal_defining_sum_bit_for_bit(ix, data):
    ell, dim, gens = ORACLE_CONTEXTS[ix]
    ctx = FourierContext.for_generators(Field(ell, dim), gens)
    # codes outside the group (and outside the code range) must be ignored
    subset = data.draw(st.sets(st.integers(-2, ell ** dim + 2)))
    assert_equals_defining_sum(ctx, subset, ctx.all_coeffs(subset))


def test_all_coeffs_ell_2_keeps_the_signed_zeros_and_tiny_parts():
    # conj(chi) = 1 - 0j at phase 0 and -1 + 1.2e-16j at phase 1: the sum
    # starts at +0.0, so an imaginary part is +0.0 when every member has
    # phase 0, never -0.0, and a tiny multiple of 1.2e-16 / |G| otherwise
    ctx = ctx_for(2, 4)
    for subset in [{0}, {0, 1, 2, 3}, {1, 2, 4, 8, 15}, set(range(16)), {5}]:
        coeffs = ctx.all_coeffs(subset)
        assert_equals_defining_sum(ctx, subset, coeffs)
        assert math.copysign(1.0, coeffs[0].imag) == 1.0
        assert all(math.copysign(1.0, y) == 1.0 for y in coeffs.imag if y == 0.0)
    tiny = ctx.all_coeffs({5}).imag
    assert np.all((tiny == 0.0) | ((0 < np.abs(tiny)) & (np.abs(tiny) < 1e-16)))
    assert np.count_nonzero(tiny) == 8  # the duals with <dual, 0101> = 1


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_all_coeffs_over_several_phase_chunks(monkeypatch, chunk):
    # a chunk of `chunk` entries holds max(1, chunk // |G|) member rows
    monkeypatch.setattr(fourier, "PHASE_CHUNK", chunk)
    for ell, dim, gens in ORACLE_CONTEXTS:
        ctx = FourierContext.for_generators(Field(ell, dim), gens)
        subset = ctx.elements[1::2] + [ell ** dim + 1]
        assert_equals_defining_sum(ctx, subset, ctx.all_coeffs(subset))


def test_all_coeffs_chunks_at_the_default_bound():
    # 2^12 duals: a phase chunk holds 256 members, so 700 members take three
    ctx = ctx_for(2, 12)
    subset = random.Random(12).sample(ctx.elements, 700)
    coeffs = ctx.all_coeffs(subset)
    assert fourier.PHASE_CHUNK // ctx.order < len(subset) // 2
    for i in random.Random(5).sample(range(ctx.order), 4) + [0, ctx.order - 1]:
        want = oracle.coeff(ctx, subset, tuple(ctx.duals[i].tolist()))
        assert same_float(coeffs[i].real, want.real) and same_float(coeffs[i].imag, want.imag)


@pytest.mark.parametrize("ell, dim, gens", ORACLE_CONTEXTS + [(7, 2, [1, 7])])
def test_abs_strings_are_python_abs(ell, dim, gens):
    # the CSV abs column and the heavy selection agree with Python's
    # abs(complex), also at eps = |c| exactly (the CLI formats the "abs" of
    # each heavy coefficient with abs(complex) itself)
    ctx = FourierContext.for_generators(Field(ell, dim), gens)
    rng = random.Random(ell * 100 + dim)
    for _ in range(5):
        subset = set(rng.sample(ctx.elements, rng.randrange(1, ctx.order + 1)))
        coeffs = ctx.all_coeffs(subset)
        values = coeffs.tolist()
        rows = ctx.coeffs_csv(coeffs).splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == [f"{abs(c):.12e}" for c in values]
        for eps in {abs(c) + GUARD for c in values[1:]}:
            heavy = ctx.heavy_characters(coeffs, eps)
            want = [(d, c) for d, c in zip(oracle.dual_vectors(ctx), values)
                    if any(d) and abs(c) >= eps - GUARD]
            assert heavy == want


def test_csv_abs_where_numpy_abs_rounds_apart():
    # with numpy 2.4 on x86-64, np.abs(complex) and abs(complex) differ in
    # the last bit at duals (1, 2) and (6, 5) here, enough to change their
    # 12-digit strings (most last-bit differences round away)
    ctx = ctx_for(7, 2)
    coeffs = ctx.all_coeffs([4, 5, 7, 14, 17, 44])
    want = [f"{abs(c):.12e}" for c in coeffs.tolist()]
    rows = ctx.coeffs_csv(coeffs).splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == want


@pytest.mark.parametrize("ell, dim, gens", ORACLE_CONTEXTS)
def test_kernel_matches_brute_force(ell, dim, gens):
    ctx = FourierContext.for_generators(Field(ell, dim), gens)
    for dual in oracle.dual_vectors(ctx):
        want = [code for code in ctx.elements
                if sum(a * x for a, x in zip(dual, oracle.coords(ctx, code))) % ell == 0]
        assert ctx.kernel(dual) == want


def test_dual_of_wrong_length_is_rejected():
    ctx = ctx_for(3, 3)
    assert issubclass(ArityMismatch, InputError)  # exit code 2
    for dual in [(1,), (1, 0, 0, 5), ()]:
        with pytest.raises(ArityMismatch):
            ctx.kernel(dual)
        with pytest.raises(ArityMismatch):
            oracle.coeff(ctx, {1, 2}, dual)
        with pytest.raises(ArityMismatch):
            oracle.coeff(ctx, set(), dual)
        with pytest.raises(ArityMismatch):
            oracle.char_value(ctx, dual, 1)


def test_group_at_the_order_cap():
    ell, dim = 2, 16
    assert ell ** dim == CAP_GROUP_ORDER
    ctx = ctx_for(ell, dim)
    assert ctx.order == CAP_GROUP_ORDER and ctx.elements == list(range(CAP_GROUP_ORDER))
    subset = random.Random(16).sample(ctx.elements, 64)
    coeffs = ctx.all_coeffs(subset)
    assert ctx.parseval_check(subset, coeffs)[2] <= 1e-9
    assert ctx.inversion_check(subset, coeffs) <= 1e-9
    eps = 64 / CAP_GROUP_ORDER  # the trivial coefficient, |A|/|G|
    heavy = ctx.heavy_characters(coeffs, eps, include_trivial=True)
    assert heavy[0] == ((0,) * dim, eps)
    assert all(abs(c) >= eps - GUARD for _, c in heavy)


@given(case_ix, st.data())
@settings(max_examples=40, deadline=None)
def test_parseval_and_inversion(ix, data):
    ell, dim = CASES[ix]
    ctx = ctx_for(ell, dim)
    subset = data.draw(st.sets(st.integers(0, ell ** dim - 1)))
    coeffs = ctx.all_coeffs(subset)
    lhs, rhs, err = ctx.parseval_check(subset, coeffs)
    assert err <= 1e-9
    assert ctx.inversion_check(subset, coeffs) <= 1e-9


@given(case_ix)
@settings(max_examples=3, deadline=None)
def test_trivial_coeff_is_density(ix):
    ell, dim = CASES[ix]
    ctx = ctx_for(ell, dim)
    subset = set(ctx.elements[:: 2])
    triv = (0,) * ctx.rank
    c = oracle.coeff(ctx, subset, triv)
    assert abs(c - len(subset) / ctx.order) <= 1e-12


def test_kernel_is_subgroup_of_index_ell():
    f = Field(3, 3)
    ctx = ctx_for(3, 3)
    for dual in oracle.dual_vectors(ctx):
        ker = set(ctx.kernel(dual))
        assert f.zero in ker
        assert all(oracle.add(f, x, y) in ker for x in ker for y in ker)
        expect = ctx.order if all(a == 0 for a in dual) else ctx.order // 3
        assert len(ker) == expect


def test_heavy_characters_match_brute_force():
    ctx = ctx_for(2, 4)
    rng = random.Random(7)
    for _ in range(20):
        subset = set(rng.sample(ctx.elements, rng.randrange(1, ctx.order)))
        eps = rng.choice([0.1, 0.25, 0.5])
        heavy = ctx.heavy_characters(ctx.all_coeffs(subset), eps)
        want = [(d, c) for d, c in ((d, oracle.coeff(ctx, subset, d))
                                    for d in oracle.dual_vectors(ctx))
                if any(d) and abs(c) >= eps - GUARD]
        assert [d for d, _ in heavy] == [d for d, _ in want]
        for (_, c), (_, w) in zip(heavy, want):
            assert same_float(c.real, w.real) and same_float(c.imag, w.imag)


def test_subgroup_context_restricts_to_span():
    # generators spanning a proper subgroup: context covers only the span
    f = Field(2, 4)
    ctx = FourierContext.for_generators(f, [3, 5])
    assert ctx.rank == 2 and ctx.order == 4
    with pytest.raises(FieldMismatch):
        oracle.coords(ctx, 8)


def test_coset_indicator_worked_example():
    # B = {01, 10, 11} in F_2^2: trivial coefficient 3/4, all others -1/4
    ctx = ctx_for(2, 2)
    coeffs = ctx.all_coeffs({1, 2, 3})
    assert len(coeffs) == 4
    for dual, c in zip(oracle.dual_vectors(ctx), coeffs.tolist()):
        expect = 0.75 if not any(dual) else -0.25
        assert abs(c - expect) <= 1e-12


def test_coeffs_csv_deterministic_and_parsable():
    ctx = ctx_for(2, 3)
    a = ctx.coeffs_csv(ctx.all_coeffs({1, 2, 4}))
    b = ctx.coeffs_csv(ctx.all_coeffs({1, 2, 4}))
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == "dual_vector,re,im,abs"
    assert len(lines) == 1 + ctx.order


def test_caps_and_empty_generators():
    with pytest.raises(EmptyReference):
        FourierContext.for_generators(Field(2, 3), [])
    f = Field(3, 11)  # 3^11 elements exceeds the group-order cap
    with pytest.raises(CapExceeded):
        FourierContext.for_generators(f, [3 ** i for i in range(11)])
