import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aritygap import (
    DecompositionError,
    DomainError,
    FiniteFunction,
    GapNSpec,
    LinearSpec,
    PreconditionError,
    SymmetricSpec,
    TernaryGap2Spec,
    compress,
    construct_gap2_ternary,
    construct_gap_n,
    construct_linear,
    diagonal_values,
    essential_count,
    expand,
    extract_decomposition,
    gap,
    gap_profile,
    is_symmetric,
    is_totally_symmetric,
    iter_points,
    multisets,
    orbit_sum,
    recompose,
)
from aritygap.suites import _sample_decomposable_pairs
from aritygap.symmetric import _gap_n_images, _ternary_images, _ternary_plan, linear_tables
import oracles


def oracle_orbit_sum(n, alpha, k):
    """Literal sum over all n! permutation conjunctions."""
    table = [0] * (k**n)
    for perm in itertools.permutations(range(n)):
        exponents = tuple(alpha[perm[i]] for i in range(n))
        idx = 0
        for c in exponents:
            idx = idx * k + c
        table[idx] = (table[idx] + 1) % k
    return FiniteFunction(k, n, table)


def test_is_symmetric_examples():
    assert is_symmetric(FiniteFunction(2, 2, [0, 1, 1, 0]))
    # single essential variable: permutations of {1} only
    assert is_symmetric(FiniteFunction(2, 2, [0, 0, 1, 1]))
    assert not is_symmetric(FiniteFunction(2, 2, [0, 1, 0, 0]))


def test_expand_compress_examples():
    spec = SymmetricSpec(3, 3, {m: 0 for m in multisets(3, 3)})
    assert expand(spec).is_constant()

    values = {m: 0 for m in multisets(3, 3)}
    values[(0, 1, 2)] = 1
    assert expand(SymmetricSpec(3, 3, values)) == orbit_sum(3, (0, 1, 2), 3)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_expand_compress_roundtrip(data):
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(1, 4))
    values = {m: data.draw(st.integers(0, k - 1)) for m in multisets(k, n)}
    spec = SymmetricSpec(k, n, values)
    assert compress(expand(spec)).values == spec.values


def test_compress_rejects_positional_functions():
    proj = FiniteFunction(2, 2, [0, 0, 1, 1])
    assert is_symmetric(proj) and not is_totally_symmetric(proj)
    with pytest.raises(PreconditionError):
        compress(proj)


def test_orbit_sum_examples():
    f = orbit_sum(3, (1, 2, 4), 5)
    assert f == oracle_orbit_sum(3, (1, 2, 4), 5)
    for p in itertools.permutations((1, 2, 4)):
        assert f(p) == 1

    g = orbit_sum(2, (0, 0), 5)
    assert g((0, 0)) == 2
    assert sum(g.table) == 2

    assert orbit_sum(3, (0, 1, 2), 3)((2, 1, 0)) == 1


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_orbit_sum_matches_oracle(data):
    k = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(1, 4))
    alpha = tuple(data.draw(st.integers(0, k - 1)) for _ in range(n))
    f = orbit_sum(n, alpha, k)
    assert f == oracle_orbit_sum(n, alpha, k)
    assert is_totally_symmetric(f)


def test_construct_gap_n_examples():
    f = construct_gap_n(3, 3, GapNSpec(0, {frozenset({0, 1, 2}): 1}))
    assert f == orbit_sum(3, (0, 1, 2), 3)
    p = gap_profile(f)
    assert (p.ess, p.gap) == (3, 3)

    with pytest.raises(PreconditionError):
        construct_gap_n(3, 3, GapNSpec(2, {frozenset({0, 1, 2}): 2}))
    with pytest.raises(DomainError):
        construct_gap_n(3, 4, GapNSpec(0, {}))


def test_construct_gap_n_class_exhaustive_small():
    subsets = list(itertools.combinations(range(3), 3))
    for a0 in range(3):
        for v in range(3):
            if v == a0:
                continue
            f = construct_gap_n(3, 3, GapNSpec(a0, {frozenset(subsets[0]): v}))
            p = gap_profile(f)
            assert is_symmetric(f)
            assert (p.ess, p.gap) == (3, 3)


def test_construct_gap2_ternary_examples():
    minority = construct_gap2_ternary(3, TernaryGap2Spec("minority", (0, 1, 2)))
    from aritygap import identify, essential_variables

    minor = identify(minority, 2, 1)
    assert minor == FiniteFunction.from_callable(3, 3, lambda a, b, c: c)
    assert gap(minority) == 2

    majority = construct_gap2_ternary(3, TernaryGap2Spec("majority", (0, 1, 2)))
    minor = identify(majority, 2, 1)
    assert essential_variables(minor) == {1}
    assert gap(majority) == 2

    with pytest.raises(PreconditionError):
        construct_gap2_ternary(3, TernaryGap2Spec("minority", (1, 1, 1)))
    with pytest.raises(DomainError):
        construct_gap2_ternary(3, TernaryGap2Spec("plurality", (0, 1, 2)))


def test_construct_linear_examples():
    assert construct_linear(2, LinearSpec((1, 1), 0)) == FiniteFunction(
        2, 2, [0, 1, 1, 0]
    )
    assert gap(construct_linear(2, LinearSpec((1, 1), 0))) == 2
    assert gap(construct_linear(4, LinearSpec((2, 2, 2), 0))) == 2
    assert gap(construct_linear(3, LinearSpec((1, 1, 1), 0))) == 1


def test_linear_tables_equal_construct_linear():
    for k, n in [(2, 0), (3, 1), (2, 3), (3, 2), (4, 2), (5, 2)]:
        want = [list(construct_linear(k, LinearSpec(a, c)).table)
                for a in itertools.product(range(k), repeat=n) for c in range(k)]
        assert linear_tables(k, n).tolist() == want, (k, n)


@pytest.mark.parametrize("k,n", [(3, 2), (4, 2), (3, 3), (4, 3)])
def test_gap_n_images_equal_the_oracle(k, n):
    # ascending and distinct, as the bucket they are compared with
    assert _gap_n_images(k, n).tolist() == sorted(map(list, oracles.gap_n_images(k, n)))


@pytest.mark.parametrize("k", [3, 4])
def test_ternary_images_equal_the_oracle(k):
    plans, _ = _ternary_plan(k)
    rows = itertools.product(range(k), repeat=k + math.comb(k, 3))
    rows = [r for r in rows if len(set(r[:k])) > 1]
    union = set()
    for plan, family in zip(plans.tolist(), ("minority", "majority")):
        images = {tuple(r[i] for i in plan) for r in rows}
        assert images == oracles.gap2_ternary_images(k, (family,)), family
        union |= images
    assert _ternary_images(k).tolist() == sorted(map(list, union))


def test_recompose_examples():
    g = FiniteFunction(4, 2, [1] * 16)
    h = FiniteFunction(4, 4, [0] * 256)
    f = recompose(g, h)
    assert f((0, 0, 1, 1)) == 2
    assert f((0, 0, 0, 0)) == 6 % 4
    assert f((0, 1, 2, 3)) == 0

    zero = recompose(FiniteFunction(3, 1, [0] * 3), FiniteFunction(3, 3, [0] * 27))
    assert zero.is_constant()


def test_recompose_agrees_with_h_on_distinct_points():
    rng = random.Random(6)
    g = FiniteFunction(4, 2, [rng.randrange(4) for _ in range(16)])
    h_table = [
        rng.randrange(4) if len(set(p)) == 4 else 0
        for p in iter_points(4, 4)
    ]
    h = FiniteFunction(4, 4, h_table)
    f = recompose(g, h)
    for p in iter_points(4, 4):
        if len(set(p)) == 4:
            assert f(p) == h(p)


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (3, 5)])
def test_recompose_equals_the_loop(k, n):
    # the pair gathers against the point-by-point sum, and the same refusal
    rng = random.Random(k * 10 + n)
    for _ in range(5):
        g = FiniteFunction(k, n - 2, [rng.randrange(k) for _ in range(k ** (n - 2))])
        h = FiniteFunction(k, n, [rng.randrange(k) if len(set(p)) == n else 0
                                  for p in iter_points(k, n)])
        assert recompose(g, h) == oracles.recompose_loop(g, h)
        bad = list(h.table)
        bad[rng.choice([m for m, p in enumerate(iter_points(k, n)) if len(set(p)) < n])] = 1
        bad = FiniteFunction(k, n, bad)
        messages = []
        for recomposed in (recompose, oracles.recompose_loop):
            with pytest.raises(PreconditionError) as refused:
                recomposed(g, bad)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]


def test_recompose_validation():
    g = FiniteFunction(4, 2, [0] * 16)
    bad_h = FiniteFunction(4, 4, [1] + [0] * 255)  # nonzero on the diagonal
    with pytest.raises(PreconditionError):
        recompose(g, bad_h)
    with pytest.raises(DomainError):
        recompose(FiniteFunction(3, 2, [0] * 9), FiniteFunction(4, 4, [0] * 256))


def test_extract_decomposition_roundtrip():
    pairs, _ = _sample_decomposable_pairs(4, 4, 6, seed=13)
    assert len(pairs) == 6
    for g0, h0, f in pairs:
        pair = extract_decomposition(f)
        assert recompose(pair.g, pair.h) == f
        assert is_symmetric(pair.g) and is_symmetric(pair.h)
        p = gap_profile(pair.g)
        assert p.ess == 2 and p.gap == 2  # gap index 2 at n=4


def test_extract_decomposition_preconditions():
    with pytest.raises(PreconditionError):
        extract_decomposition(orbit_sum(3, (0, 1, 2), 3))  # min(n,k)=3
    asym = FiniteFunction(4, 4, [1] + [0] * 255)
    with pytest.raises(PreconditionError):
        extract_decomposition(asym)


def test_extract_decomposition_no_solution():
    """Value 1 exactly when every coordinate value occurs an even number of
    times: symmetric, gap 2 at (4, 4), but the diagonal equations demand
    2x = 1 mod 4, so no pairwise-conjunction decomposition exists."""
    f = FiniteFunction.from_callable(
        4,
        4,
        lambda *p: 1 if all(p.count(v) % 2 == 0 for v in p) else 0,
    )
    prof = gap_profile(f)
    assert (prof.ess, prof.gap) == (4, 2)
    with pytest.raises(DecompositionError):
        extract_decomposition(f)


@pytest.mark.parametrize("k,n", [(2, 0), (3, 0), (2, 1), (3, 2), (4, 3), (5, 2)])
def test_diagonal_values_read_each_constant_point(k, n):
    f = FiniteFunction(k, n, range(k**n) if k**n <= k else [m % k for m in range(k**n)])
    assert diagonal_values(f) == tuple(f((c,) * n) if n else f.table[0] for c in range(k))


def test_diagonal_values_examples():
    assert diagonal_values(orbit_sum(3, (0, 1, 2), 3)) == (0, 0, 0)
    minority = construct_gap2_ternary(3, TernaryGap2Spec("minority", (0, 1, 2)))
    assert diagonal_values(minority) == (0, 1, 2)
    double4 = construct_linear(4, LinearSpec((2, 2, 2, 2), 0))
    assert len(set(diagonal_values(double4))) == 1
