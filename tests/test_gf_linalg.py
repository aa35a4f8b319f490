"""Field encoding, coordinate-linear maps, and mod-p linear algebra."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import point_oracle as oracle
import scheme_oracle
from mschemes.errors import CapExceeded, IndexOutOfRange, InputError
from mschemes.gf_linalg import (
    Field,
    digit_rows,
    enumerate_linmaps,
    is_prime,
    linmap,
    member_mask,
    radix_digits,
    radix_weights,
    rank_mod,
    rref_mod,
    span_basis,
    span_dim,
    span_points,
    summation,
    unique_sorted,
)
from mschemes.scheme_core import SchemeInstance

FIELDS = [(2, 3), (3, 2), (5, 2), (2, 5)]
field_ix = st.integers(0, len(FIELDS) - 1)


@given(st.lists(st.integers(0, 6) | st.integers(-2 ** 62, 2 ** 62), max_size=40),
       st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_unique_sorted_matches_np_unique(values, width):
    arr = np.array(values, dtype=np.int64)
    if len(arr) % width == 0 and len(arr):
        arr = arr.reshape(-1, width)  # the result is flat either way
    got = unique_sorted(arr)
    expect = np.unique(arr)
    assert got.dtype == expect.dtype and np.array_equal(got, expect)


@given(st.lists(st.integers(0, 30), max_size=40), st.lists(st.integers(0, 30), max_size=12),
       st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_member_mask_matches_np_isin(values, members, width):
    arr = np.array(values, dtype=np.int64)
    if len(arr) % width == 0 and len(arr):
        arr = arr.reshape(-1, width)
    got = member_mask(arr, np.array(members, dtype=np.int64))
    assert got.shape == arr.shape and np.array_equal(got, np.isin(arr, members))


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_non_prime_field_rejected():
    with pytest.raises(InputError):
        Field(4, 2)


@given(field_ix, st.integers(0, 10 ** 6))
def test_encode_decode_roundtrip(ix, raw):
    f = Field(*FIELDS[ix])
    code = raw % f.q
    vec = f.decode(code)
    assert len(vec) == f.dim and all(0 <= v < f.ell for v in vec)
    assert f.encode(vec) == code


@given(field_ix, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_add_sub_neg(ix, ra, rb):
    f = Field(*FIELDS[ix])
    a, b = ra % f.q, rb % f.q
    s = f.add_codes(a, b)
    assert f.sub_codes(s, b) == a
    assert f.add_codes(a, f.neg_codes(a)) == f.zero
    # componentwise agreement with vector arithmetic
    va, vb = np.array(f.decode(a)), np.array(f.decode(b))
    assert f.encode(tuple((va + vb) % f.ell)) == s


# one field per prime the point-arithmetic oracle test covers
ORACLE_FIELDS = [(2, 5), (3, 3), (5, 2), (7, 2)]


@given(st.integers(0, len(ORACLE_FIELDS) - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_point_ops_match_digitwise_oracle(ix, data):
    f = Field(*ORACLE_FIELDS[ix])
    codes = st.integers(0, f.q - 1)
    a, b = data.draw(codes), data.draw(codes)
    # scalars in, Python ints out
    for got, want in ((f.add_codes(a, b), oracle.add(f, a, b)),
                      (f.sub_codes(a, b), oracle.sub(f, a, b)),
                      (f.neg_codes(a), oracle.neg(f, a))):
        assert type(got) is int and got == want
    # 1-D against 1-D, and a scalar broadcast over a 1-D array
    xs = data.draw(st.lists(codes, min_size=0, max_size=6))
    ys = data.draw(st.lists(codes, min_size=len(xs), max_size=len(xs)))
    xa, ya = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    assert f.add_codes(xa, ya).tolist() == [oracle.add(f, x, y) for x, y in zip(xs, ys)]
    assert f.sub_codes(xa, ya).tolist() == [oracle.sub(f, x, y) for x, y in zip(xs, ys)]
    assert f.neg_codes(xa).tolist() == [oracle.neg(f, x) for x in xs]
    assert f.sub_codes(a, xa).tolist() == [oracle.sub(f, a, x) for x in xs]
    # a column against a row broadcasts to the full 2-D table
    table = f.add_codes(xa[:, None], ya[None, :])
    assert table.shape == (len(xs), len(ys))
    assert table.tolist() == [[oracle.add(f, x, y) for y in ys] for x in xs]
    diffs = f.sub_codes(ya[:, None], xa[None, :])
    assert diffs.tolist() == [[oracle.sub(f, y, x) for x in xs] for y in ys]
    # the outputs are codes again
    assert all(0 <= c < f.q for c in table.reshape(-1).tolist())


@pytest.mark.parametrize("ell,dim", ORACLE_FIELDS)
def test_point_ops_reject_codes_outside_range(ell, dim):
    f = Field(ell, dim)
    # -1 would index the last digit row and come back as a valid code
    for bad in (-1, f.q, [0, f.q], np.array([[1], [-1]])):
        with pytest.raises(IndexOutOfRange):
            f.add_codes(bad, 0)
        with pytest.raises(IndexOutOfRange):
            f.sub_codes(0, bad)
        with pytest.raises(IndexOutOfRange):
            f.neg_codes(bad)
        with pytest.raises(IndexOutOfRange):
            f.decode_batch(bad)
    with pytest.raises(IndexOutOfRange):
        span_basis(f, [-1])
    # an empty array has nothing out of range
    assert f.add_codes(np.zeros(0, dtype=np.int64), 1).shape == (0,)


@pytest.mark.parametrize("ell,dim", [(2, 4), (3, 3)])
def test_point_ops_respect_point_space_cap(ell, dim):
    f = Field(ell, dim)
    assert f.add_codes(1, 2) >= 0  # warms the digit table that all fields share
    capped = Field(ell, dim, cap_tuples=f.q - 1)
    for call in (lambda: capped.add_codes(1, 2), lambda: capped.sub_codes(1, 2),
                 lambda: capped.neg_codes(1)):
        with pytest.raises(CapExceeded):
            call()
    assert Field(ell, dim, cap_tuples=f.q).neg_codes(0) == 0


def test_warm_digit_table_still_checks_the_cap():
    f = Field(3, 3)
    assert f.decode_batch([5]).tolist() == [[0, 1, 2]]  # builds the shared table
    capped = Field(3, 3, cap_tuples=10)
    assert capped == f  # the cap takes no part in equality
    for call in (lambda: capped.decode_batch([5]), lambda: digit_rows(capped, 3)):
        with pytest.raises(CapExceeded) as exc:
            call()
        assert (exc.value.what, exc.value.needed, exc.value.cap) == ("point space", 27, 10)
    assert Field(3, 3, cap_tuples=27).decode_batch([5]).tolist() == [[0, 1, 2]]
    for bad in (0, -5):
        with pytest.raises(InputError, match="cap_tuples must be at least 1"):
            Field(3, 3, cap_tuples=bad)


def test_digit_table_is_read_only():
    f = Field(3, 3)
    table = digit_rows(f, 3)
    with pytest.raises(ValueError):
        table[5, 0] = 1
    assert table[5].tolist() == [0, 1, 2] and f.add_codes(5, 1) == 3
    # a decoded batch is a copy that the caller may change
    rows = f.decode_batch([5])
    rows[0, 0] = 2
    assert table[5].tolist() == [0, 1, 2]


@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_digit_rows_are_product_order(ell, r):
    grid = digit_rows(Field(ell, 1), r)
    assert grid.shape == (ell ** r, r)
    assert grid.tolist() == [list(t) for t in itertools.product(range(ell), repeat=r)]
    codes = np.arange(ell ** r)
    assert np.array_equal(radix_digits(codes, ell, r), grid)
    assert np.array_equal(grid @ radix_weights(ell, r), codes)


@given(st.integers(1, 6), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_radix_digits_are_tuple_points(n, k, data):
    s_codes = tuple(sorted(data.draw(st.sets(st.integers(0, 48), min_size=n, max_size=n))))
    inst = SchemeInstance(Field(7, 2), s_codes)
    idx = data.draw(st.lists(st.integers(0, n ** k - 1), max_size=20))
    digits = radix_digits(np.array(idx, dtype=np.int64), n, k)
    assert digits.shape == (len(idx), k)
    assert [tuple(s_codes[p] for p in row) for row in digits.tolist()] == [
        oracle.tuple_points(inst, i, k) for i in idx]
    assert np.array_equal(digits @ radix_weights(n, k), np.array(idx, dtype=np.int64))
    assert inst.tuples_array(k)[idx].tolist() == [
        list(oracle.tuple_points(inst, i, k)) for i in idx]
    # the digits of an array of any shape go along a new last axis
    square = radix_digits(np.arange(n ** k).reshape(n, -1), n, k)
    assert square.shape == (n, n ** (k - 1), k)
    assert np.array_equal(square.reshape(-1, k), radix_digits(np.arange(n ** k), n, k))


@given(field_ix, st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4))
def test_tuple_codec_roundtrip(ix, raws):
    f = Field(*FIELDS[ix])
    pts = tuple(r % f.q for r in raws)
    code = oracle.encode_tuple(f, pts)
    assert tuple(oracle.decode_tuple(f, code, len(pts))) == pts
    # tuple indices of S^k follow the integer tuple codes
    inst = SchemeInstance(f, tuple(sorted(set(pts))))
    codes = [oracle.encode_tuple(f, row) for row in inst.tuples_array(len(pts)).tolist()]
    assert codes == sorted(set(codes))
    assert codes[scheme_oracle.tuple_index(inst, pts)] == code


def test_projection_summation_swap():
    f = Field(3, 2)
    pts = (4, 7, 2)
    for i in (1, 2, 3):
        assert oracle.apply(f, oracle.projection(3, i), pts) == (pts[i - 1],)
    total = oracle.add(f, oracle.add(f, 4, 7), 2)
    assert oracle.apply(f, summation(3), pts) == (total,)
    assert oracle.apply(f, oracle.swap_map(3, 1, 3), pts) == (2, 7, 4)
    assert oracle.apply(f, linmap([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), pts) == pts


@given(field_ix, st.data())
def test_apply_batch_matches_apply(ix, data):
    f = Field(*FIELDS[ix])
    k, kp = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    coeffs = data.draw(st.lists(
        st.lists(st.integers(0, f.ell - 1), min_size=kp, max_size=kp),
        min_size=k, max_size=k))
    tau = linmap(coeffs)
    rows = np.array([[data.draw(st.integers(0, f.q - 1)) for _ in range(k)]
                     for _ in range(3)], dtype=np.int64)
    batch = tau.apply_batch(f, rows)
    for r in range(3):
        assert tuple(batch[r]) == oracle.apply(f, tau, tuple(rows[r]))


@given(field_ix, st.data())
def test_compose_is_pointwise_composition(ix, data):
    f = Field(*FIELDS[ix])
    k, km, kp = 2, 3, 2
    c1 = data.draw(st.lists(st.lists(st.integers(0, f.ell - 1),
                                     min_size=km, max_size=km),
                            min_size=k, max_size=k))
    c2 = data.draw(st.lists(st.lists(st.integers(0, f.ell - 1),
                                     min_size=kp, max_size=kp),
                            min_size=km, max_size=km))
    first, second = linmap(c1), linmap(c2)
    both = oracle.compose(second, first)
    pts = tuple(data.draw(st.integers(0, f.q - 1)) for _ in range(k))
    assert oracle.apply(f, both, pts) == oracle.apply(f, second, oracle.apply(f, first, pts))
    rows = np.array([pts], dtype=np.int64)
    assert np.array_equal(both.apply_batch(f, rows),
                          second.apply_batch(f, first.apply_batch(f, rows)))


def test_enumerate_linmaps_complete():
    f = Field(2, 3)
    maps = list(enumerate_linmaps(f, 2, 1))
    assert len(maps) == 2 ** 2
    assert len({m.coeffs for m in maps}) == len(maps)


@st.composite
def matrices_mod(draw):
    """(matrix, ell) with 0-5 rows and 0-5 columns: empty, wide, tall, and
    rank-deficient ones (rows drawn as combinations of a few others)."""
    ell = draw(st.sampled_from([2, 3, 5, 7, 251]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.integers(0, ell - 1)
    mat = np.array([[draw(entries) for _ in range(cols)] for _ in range(rows)],
                   dtype=np.int64).reshape(rows, cols)
    if rows > 1 and draw(st.booleans()):
        # a row that is a combination of the others lowers the rank
        coeffs = np.array([draw(entries) for _ in range(rows - 1)], dtype=np.int64)
        mat[-1] = coeffs @ mat[:-1] % ell
    return mat, ell


@given(matrices_mod())
@example((np.zeros((0, 3), dtype=np.int64), 5))
@example((np.zeros((3, 0), dtype=np.int64), 2))
@example((np.array([[0, 2, 4, 1, 3], [0, 4, 1, 2, 6]]), 7))
@example((np.array([[1, 2], [2, 4], [0, 0], [3, 6], [5, 3]]), 7))
@settings(max_examples=150, deadline=None)
def test_rref_mod_matches_scalar_gauss_jordan(case):
    mat, ell = case
    want, want_piv = oracle.rref_mod_loop(mat, ell)
    got, piv = rref_mod(mat, ell)
    assert piv == want_piv and got.shape == mat.shape
    assert np.array_equal(got, want)
    assert rank_mod(mat, ell) == len(want_piv)


def test_span_membership():
    f = Field(2, 4)
    codes = [3, 5]
    pts = span_points(f, codes)
    assert len(pts) == 2 ** span_dim(f, codes)
    assert pts.dtype == np.int64 and (np.diff(pts) > 0).all()
    assert span_points(f, []).tolist() == span_points(f, [0]).tolist() == [0]
    basis = span_basis(f, codes)
    for c in range(f.q):
        assert oracle.in_span(f, basis, c) == (c in set(pts.tolist()))
