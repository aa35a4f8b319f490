"""Sumset arithmetic, additive energy, covering and doubling certificates."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import point_oracle as oracle
from mschemes import addcomb
from mschemes.addcomb import (
    PointSet,
    additive_energy,
    additive_energy_oracle,
    check_covering,
    check_freiman_ruzsa,
    check_plunnecke,
    covering_bound,
    covering_number,
    density,
    difference_set,
    is_coset,
    iterated_sumset,
    negate,
    subgroup_generated,
    sum_histogram,
    sumset,
    symmetrized,
)
from mschemes.errors import FieldMismatch, InputError
from mschemes.gf_linalg import Field, span_points

F23 = Field(2, 3)
F32 = Field(3, 2)

subsets23 = st.sets(st.integers(0, 7), min_size=1).map(sorted)
subsets32 = st.sets(st.integers(0, 8), min_size=1).map(sorted)


def ps(f, codes):
    return PointSet.from_codes(f, codes)


@given(subsets32, subsets32)
def test_sumset_definition(a_codes, b_codes):
    a, b = ps(F32, a_codes), ps(F32, b_codes)
    expected = {oracle.add(F32, x, y) for x in a_codes for y in b_codes}
    assert set(sumset(a, b).codes) == expected
    assert set(sumset(b, a).codes) == expected
    assert len(sumset(a, b)) >= max(len(a), len(b))


def test_from_codes_names_first_code_outside_field():
    assert ps(F32, [8, 0, 8]).codes.tolist() == [0, 8]
    assert not ps(F32, [8, 0]).codes.flags.writeable
    # a code beyond int64 is outside the field too, not an OverflowError
    for codes, bad in (([3, -2, -1], -2), ([3, 10, 9], 9), ([-1, 9], -1), ([-1], -1),
                       ([2 ** 70], 2 ** 70), ([3, 2 ** 70, 9], 9),
                       ([2 ** 70, -2 ** 70], -2 ** 70), ([-1, 2 ** 63], -1),
                       ([2 ** 63, 5], 2 ** 63)):
        with pytest.raises(InputError, match=f"point code {bad} outside field"):
            ps(F32, codes)


@given(subsets32)
def test_membership(a_codes):
    a = ps(F32, a_codes)
    for c in range(-2, F32.q + 2):
        assert (c in a) == (c in set(a_codes))


@given(subsets32, subsets32)
def test_sum_histogram_and_negate_definition(a_codes, b_codes):
    a, b = ps(F32, a_codes), ps(F32, b_codes)
    expect = {}
    for x in a_codes:
        for y in b_codes:
            z = oracle.add(F32, x, y)
            expect[z] = expect.get(z, 0) + 1
    assert list(sum_histogram(a, b).items()) == sorted(expect.items())
    assert negate(a).codes.tolist() == sorted({oracle.neg(F32, x) for x in a_codes})


def test_sum_histogram_keys_and_counts_are_python_ints():
    # the dict built from numpy scalars one by one, as it was built before
    rng = random.Random(7)
    f = Field(2, 9)
    for size in (1, 2, 17, 264):
        a = ps(f, rng.sample(range(f.q), size))
        b = ps(f, rng.sample(range(f.q), max(1, size // 2)))
        hist = sum_histogram(a, b)
        assert hist == oracle.sum_histogram(a, b)
        assert list(hist) == sorted(hist)
        assert all(type(z) is int and type(c) is int for z, c in hist.items())


# ell in {2, 3, 5, 7}, and F_2^16, the largest q at ell = 2
COUNT_FIELDS = [Field(2, 5), Field(3, 3), Field(5, 2), Field(7, 2), Field(2, 16)]


@st.composite
def counted_sets(draw, f, max_size):
    """Point sets of F with the end codes 0 and q - 1 drawn often; may be empty."""
    codes = st.one_of(st.sampled_from([0, f.q - 1]), st.integers(0, f.q - 1))
    return ps(f, draw(st.lists(codes, max_size=max_size)))


@given(st.sampled_from(COUNT_FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_counting_paths_match_sort_oracles(f, data):
    a, b = data.draw(counted_sets(f, 12)), data.draw(counted_sets(f, 12))
    copy = ps(f, a.codes)  # the same set without a's kept A + A
    empty = ps(f, [])
    for x, y in ((a, b), (b, a), (a, a), (a, copy), (a, empty), (empty, empty)):
        assert sumset(x, y).codes.tolist() == oracle.sumset(x, y).codes.tolist()
        hist = sum_histogram(x, y)
        assert list(hist.items()) == list(oracle.sum_histogram(x, y).items())
        assert all(type(z) is int and type(c) is int for z, c in hist.items())
        assert (difference_set(x, y).codes.tolist()
                == oracle.sumset(x, oracle.negate(y)).codes.tolist())
    energy = sum(c * c for c in oracle.sum_histogram(a, a).values())
    assert additive_energy(a) == additive_energy(copy) == energy
    assert additive_energy(empty) == 0 and not len(sumset(empty, a))
    assert negate(a).codes.tolist() == oracle.negate(a).codes.tolist()
    assert symmetrized(a).codes.tolist() == oracle.symmetrized(a).codes.tolist()


def test_energy_takes_python_ints_past_int64(monkeypatch):
    # E(A) <= |A|^3 stays exact in int64; past 2^63 the counts turn into
    # Python ints, which is checked here by faking a huge |A|
    a = ps(F23, [1, 2, 4, 7])
    want = additive_energy(ps(F23, [1, 2, 4, 7]))
    monkeypatch.setattr(PointSet, "__len__", lambda self: 2 ** 21)
    assert additive_energy(a) == want and type(additive_energy(a)) is int


@given(subsets32, subsets32)
def test_difference_is_sum_of_negation(a_codes, b_codes):
    a, b = ps(F32, a_codes), ps(F32, b_codes)
    assert set(difference_set(a, b).codes) == set(sumset(a, negate(b)).codes)


@given(subsets32)
def test_iterated_sumset(a_codes):
    a = ps(F32, a_codes)
    assert set(iterated_sumset(2, a).codes) == set(sumset(a, a).codes)
    assert set(iterated_sumset(1, a).codes) == set(a.codes)


@given(subsets32)
def test_symmetrized_contains_both_signs(a_codes):
    s = symmetrized(ps(F32, a_codes))
    assert set(s.codes) >= set(a_codes)
    assert {oracle.neg(F32, c) for c in s.codes} == set(s.codes)


@given(subsets23)
def test_energy_equals_oracle_and_histogram(a_codes):
    a = ps(F23, a_codes)
    hist = sum_histogram(a, a)
    assert sum(hist.values()) == len(a) ** 2
    assert additive_energy(a) == sum(c * c for c in hist.values())
    assert additive_energy(a) == oracle.energy_quadruple_loop(a)


def _energy_oracle_sets(ell, dim):
    """Seeded point sets of F_ell^dim for the energy oracle: the empty set, a
    singleton, random sets of 2-20 points and a subgroup of at most 20."""
    f = Field(ell, dim)
    rng = random.Random(f"energy:{ell}:{dim}")
    sets = [[], [rng.randrange(f.q)]]
    sets += [rng.sample(range(f.q), rng.randint(2, 20)) for _ in range(6)]
    k = max(k for k in range(1, dim + 1) if ell ** k <= 20)
    sets.append([int(c) for c in span_points(f, [ell ** t for t in range(k)])])
    return f, sets


@pytest.mark.parametrize("ell, dim", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_energy_oracle_matches_quadruple_loop(ell, dim):
    f, sets = _energy_oracle_sets(ell, dim)
    for codes in sets:
        a = ps(f, codes)
        assert additive_energy_oracle(a) == oracle.energy_quadruple_loop(a), codes
    sub = ps(f, sets[-1])
    assert is_coset(sub) and additive_energy_oracle(sub) == len(sub) ** 3
    whole = ps(f, range(f.q))
    assert additive_energy_oracle(whole) == f.q ** 3


@pytest.mark.parametrize("ell, dim", [(2, 5), (7, 2)])
def test_energy_oracle_chunking_does_not_change_the_count(ell, dim, monkeypatch):
    f, sets = _energy_oracle_sets(ell, dim)
    sets = [ps(f, codes) for codes in sets]
    want = [additive_energy_oracle(a) for a in sets]
    # one row of pair sums per chunk, then 7 rows (a ragged last chunk)
    for rows in (1, 7):
        got = []
        for a in sets:
            monkeypatch.setattr(addcomb, "ORACLE_CHUNK", rows * len(a) ** 2)
            got.append(additive_energy_oracle(a))
        assert got == want, rows


@given(subsets32)
def test_subgroup_generated_is_a_group(a_codes):
    h = set(subgroup_generated(ps(F32, a_codes)).codes)
    assert F32.zero in h
    assert all(oracle.add(F32, x, y) in h for x in h for y in h)
    assert h == {int(c) for c in span_points(F32, a_codes)}


def test_is_coset_on_translates():
    f = Field(2, 4)
    sub = [int(c) for c in span_points(f, [3, 5])]
    assert is_coset(ps(f, sub))
    shifted = [oracle.add(f, 8, c) for c in sub]
    assert is_coset(ps(f, shifted))
    assert additive_energy(ps(f, shifted)) == len(sub) ** 3
    assert not is_coset(ps(f, [1, 2, 3]))


@given(subsets32)
def test_covering_number_definition(a_codes):
    a = ps(F32, a_codes)
    h = covering_number(a)
    target = set(subgroup_generated(a).codes)
    base = symmetrized(a)
    base = PointSet.from_codes(F32, set(base.codes) | {F32.zero})
    assert set(iterated_sumset(h, base).codes) == target
    if h > 1:
        assert set(iterated_sumset(h - 1, base).codes) != target
    assert h <= covering_bound(a)


@pytest.mark.parametrize("ell, dim, h", [(101, 2, 100), (2, 16, 16)])
def test_covering_number_of_a_basis(ell, dim, h):
    # a basis needs every sum of r * floor(ell/2) basis points: the bound
    # that ends covering_number's loop is reached
    a = ps(Field(ell, dim), [ell ** i for i in range(dim)])
    assert covering_number(a) == oracle.covering_number(a) == dim * (ell // 2) == h


@given(subsets23)
def test_certificates_hold(a_codes):
    a = ps(F23, a_codes)
    _, _, cov_ok = check_covering(a)
    assert cov_ok
    _, fr_ok = check_freiman_ruzsa(a)
    assert fr_ok
    _, pl_ok = check_plunnecke(a, a, 3)
    assert pl_ok


def test_growth_checks_take_the_tight_constant():
    # each conclusion weakens as K grows, so the checks use the least K that
    # the hypothesis allows: |A+A|/|A| and |A+B|/|A|
    a, b = ps(F23, [1, 2, 4]), ps(F23, [1, 2])
    assert check_freiman_ruzsa(a)[0] == Fraction(len(sumset(a, a)), len(a))
    assert check_plunnecke(a, b, 2)[0] == Fraction(len(sumset(a, b)), len(a))


def test_density_and_json_roundtrip():
    a = ps(F23, [1, 2, 3])
    assert density(a) == Fraction(3, 4)  # span of {1,2,3} is {0,1,2,3}
    b = oracle.from_json(oracle.to_json(a))
    assert b.field == a.field and set(b.codes) == set(a.codes)


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        sumset(ps(F23, [1]), ps(F32, [1]))
