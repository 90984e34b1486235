import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aritygap import (
    BudgetError,
    DomainError,
    FiniteFunction,
    IndicatorTerm,
    embeds,
    from_indicator_terms,
    index_of,
    indicator_terms,
    is_all_distinct,
    iter_points,
    orbit_sum,
    point_of,
    range_of,
)


def test_index_of_examples():
    assert index_of((1, 2, 4), 5) == 39
    assert index_of((0, 0), 2) == 0
    with pytest.raises(DomainError):
        index_of((0, 5), 5)


def test_index_point_bijection_exhaustive():
    for t in iter_points(3, 3):
        assert point_of(index_of(t, 3), 3, 3) == t
    seen = {index_of(t, 3) for t in iter_points(3, 3)}
    assert seen == set(range(27))


@given(st.integers(2, 5), st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_index_point_roundtrip_random(k, n, data):
    t = tuple(data.draw(st.integers(0, k - 1)) for _ in range(n))
    assert point_of(index_of(t, k), n, k) == t


def test_table_validation():
    with pytest.raises(DomainError):
        FiniteFunction(2, 2, [0, 1, 1])  # wrong length
    with pytest.raises(DomainError):
        FiniteFunction(2, 2, [0, 1, 2, 0])  # out of range
    with pytest.raises(DomainError):
        FiniteFunction(1, 2, [0])
    f = FiniteFunction(2, 0, [1])
    assert f(()) == 1


def test_tables_are_immutable():
    f = FiniteFunction(2, 1, [0, 1])
    with pytest.raises(AttributeError):
        f.table = (1, 1)


def test_eval_examples():
    f = orbit_sum(3, (0, 1, 2), 3)
    assert f((0, 1, 2)) == 1
    assert f((0, 0, 2)) == 0
    parity = FiniteFunction(2, 2, [0, 1, 1, 0])
    assert parity((1, 1)) == 0
    with pytest.raises(DomainError):
        parity((1, 1, 0))


def test_is_all_distinct():
    assert not is_all_distinct((0, 1, 2, 1, 4))
    assert is_all_distinct((1, 2, 4))
    # point count of the all-distinct class at k=4, n=3, against the
    # falling-factorial count
    count = sum(1 for p in iter_points(4, 3) if is_all_distinct(p))
    assert count == 4 * 3 * 2 == 24


def test_distinct_counts_all_small():
    for k in range(2, 6):
        for n in range(1, 6):
            count = sum(1 for p in iter_points(k, n) if is_all_distinct(p))
            expected = math.perm(k, n) if n <= k else 0
            assert count == expected


def test_embeds_examples():
    assert embeds((0, 1, 1), (0, 1, 2, 1, 4))
    assert not embeds((0, 1), (0, 1, 2, 1, 4))
    assert not embeds((0, 2, 3), (0, 1, 2, 1, 4))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_embeds_permutation_invariant(data):
    k = data.draw(st.integers(2, 5))
    alpha = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=6)))
    beta = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=0, max_size=len(alpha))))
    rng = random.Random(data.draw(st.integers(0, 100)))
    a2 = list(alpha)
    b2 = list(beta)
    rng.shuffle(a2)
    rng.shuffle(b2)
    assert embeds(beta, alpha) == embeds(tuple(b2), tuple(a2))


def test_indicator_terms_orbit():
    f = orbit_sum(3, (1, 2, 4), 5)
    terms = indicator_terms(f)
    assert len(terms) == 6
    assert all(t.coefficient == 1 for t in terms)
    assert {t.exponents for t in terms} == set(itertools.permutations((1, 2, 4)))


def test_indicator_terms_constant_zero():
    f = FiniteFunction(3, 2, [0] * 9)
    assert indicator_terms(f) == ()


def test_from_indicator_terms_accumulates():
    terms = [IndicatorTerm(3, (1, 0)), IndicatorTerm(2, (1, 0))]
    f = from_indicator_terms(terms, 4, 2)
    assert f((1, 0)) == 1  # 3 + 2 mod 4
    assert sum(f.table) == 1


def test_from_indicator_terms_validation():
    with pytest.raises(DomainError):
        from_indicator_terms([IndicatorTerm(1, (0, 1, 0))], 2, 2)
    with pytest.raises(DomainError):
        from_indicator_terms([IndicatorTerm(1, (0, 2))], 2, 2)


def test_indicator_roundtrip_exhaustive_binary():
    for n in range(0, 4):
        for table in itertools.product(range(2), repeat=2**n):
            f = FiniteFunction(2, n, table)
            assert from_indicator_terms(indicator_terms(f), 2, n) == f


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_indicator_roundtrip_random(data):
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(0, 3))
    table = [data.draw(st.integers(0, k - 1)) for _ in range(k**n)]
    f = FiniteFunction(k, n, table)
    assert from_indicator_terms(indicator_terms(f), k, n) == f


def test_indicator_roundtrip_random_quaternary():
    rng = random.Random(17)
    for _ in range(10):
        f = FiniteFunction(4, 4, [rng.randrange(4) for _ in range(256)])
        assert from_indicator_terms(indicator_terms(f), 4, 4) == f


def test_indicator_coefficient_matches_eval():
    f = orbit_sum(3, (0, 1, 2), 3)
    for t in indicator_terms(f):
        assert t.coefficient == f(t.exponents)


def test_range_examples():
    assert range_of(orbit_sum(3, (0, 1, 2), 3)) == {0, 1}
    assert range_of(FiniteFunction(7, 2, [5] * 49)) == {5}
    proj = FiniteFunction(3, 1, [0, 1, 2])
    assert range_of(proj) == {0, 1, 2}


def test_budget_error_text():
    assert str(BudgetError(150, 149, "class members")) == (
        "exhaustive enumeration requires 150 class members, over the budget of 149; "
        "use sampling (with an explicit seed) or an explicit budget override"
    )
    assert str(BudgetError(2 * 10**8, 10**8, "table entries", "listing limit")) == (
        "listing requires 200000000 table entries, over the listing limit of 100000000"
    )
    # 5 001 digits, more than Python turns into text: a power of ten it reaches
    huge = BudgetError(10**5000, 10**8)
    assert str(huge).startswith(
        "exhaustive enumeration requires at least 10^4999 candidates, over the budget "
        "of 100000000;")
    assert huge.required == 10**5000
    assert str(BudgetError(10**5000 - 1, 10**8, "table entries", "listing limit")) == (
        "listing requires at least 10^4999 table entries, over the listing limit of 100000000"
    )
