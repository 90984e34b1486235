import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from table_strategies import kernel_cases

from aritygap import (
    DomainError,
    FiniteFunction,
    GapNSpec,
    PreconditionError,
    all_subfunctions,
    construct_gap_n,
    dominants,
    essential_core,
    essential_count,
    essential_variables,
    iter_points,
    orbit_sum,
    restrict,
    separable_sets,
    sub_bound,
    sub_count,
    weak_dominants,
)
from aritygap.subfunctions import (
    _PLAN_ENTRIES,
    _closure_cached,
    _closure_levels,
    _count_plan,
    _level_closure,
    _plan_closure,
    _plan_fits,
)
from aritygap.symmetric import LinearSpec, construct_linear, is_totally_symmetric
from aritygap.enumeration import spec_to_function
from oracles import closure_generic, closure_symmetric


def oracle_subfunctions(f):
    """Independent recursive closure: reduced-table identity, constants
    merged by value, substitution into essential variables only. Returns
    {canonical key: max order} plus the set of separable variable sets."""
    memo = {}
    separable = {frozenset()}

    def canon(g):
        if g.is_constant():
            return ("const", g.table[0])
        return ("fn", g.n, g.table)

    def walk(g, remaining, order):
        ess = essential_variables(g)
        separable.add(frozenset(remaining[p - 1] for p in ess))
        if order > 0:
            key = canon(g)
            memo[key] = max(memo.get(key, 0), order)
        for p in sorted(ess):
            for c in range(g.k):
                walk(
                    restrict(g, p, c),
                    remaining[: p - 1] + remaining[p:],
                    order + 1,
                )

    walk(f, tuple(range(1, f.n + 1)), 0)
    return memo, separable


ORBIT3 = orbit_sum(3, (0, 1, 2), 3)


def remark_fixture():
    f1 = orbit_sum(3, (0, 1, 3), 4)
    f2 = orbit_sum(3, (0, 2, 3), 4)
    return FiniteFunction(4, 3, [(a + b) % 4 for a, b in zip(f1.table, f2.table)])


def test_restrict_examples():
    g = restrict(ORBIT3, 1, 0)
    expected = {(1, 2): 1, (2, 1): 1}
    for p in iter_points(3, 2):
        assert g(p) == expected.get(p, 0)

    f = remark_fixture()
    r01 = restrict(restrict(f, 1, 0), 1, 1)
    r02 = restrict(restrict(f, 1, 0), 1, 2)
    assert r01 == r02 == FiniteFunction(4, 1, [0, 0, 0, 1])  # indicator of 3
    r13 = restrict(restrict(f, 1, 1), 1, 3)
    r23 = restrict(restrict(f, 1, 2), 1, 3)
    assert r13 == r23 == FiniteFunction(4, 1, [1, 0, 0, 0])  # indicator of 0
    assert restrict(restrict(f, 1, 1), 1, 2).is_constant()


def test_restrict_validation():
    with pytest.raises(DomainError):
        restrict(ORBIT3, 0, 1)
    with pytest.raises(DomainError):
        restrict(ORBIT3, 1, 3)


def test_subfunctions_of_orbit_indicator():
    records = all_subfunctions(ORBIT3)
    assert len(records) == 8
    by_order = {}
    for r in records:
        by_order.setdefault(r.max_order, []).append(r)
    assert len(by_order[1]) == 3
    assert all(r.function.n == 2 for r in by_order[1])
    order2 = [r for r in by_order[2]]
    assert len(order2) == 3
    assert all(not r.function.is_constant() and r.function.n == 1 for r in order2)
    consts = by_order[3]
    assert sorted(r.function.table[0] for r in consts) == [0, 1]
    assert all(r.function.n == 0 for r in consts)
    assert all(r.max_order == 3 - r.function.n for r in records)


def test_subfunctions_of_constants_empty():
    assert all_subfunctions(FiniteFunction(3, 2, [1] * 9)) == ()
    assert all_subfunctions(FiniteFunction(3, 0, [2])) == ()


def test_closure_matches_oracle_fixtures():
    for f in (ORBIT3, remark_fixture(), FiniteFunction(2, 2, [0, 1, 1, 0])):
        memo, separable = oracle_subfunctions(f)
        assert sub_count(f) == len(memo)
        report = separable_sets(f)
        assert report.separable_sets == frozenset(separable)
        got = {}
        for r in all_subfunctions(f):
            key = (
                ("const", r.function.table[0])
                if r.function.n == 0
                else ("fn", r.function.n, r.function.table)
            )
            got[key] = r.max_order
        assert got == memo


def test_closure_matches_oracle_random():
    rng = random.Random(2)
    for k, n in [(2, 3), (3, 2), (3, 3)]:
        for _ in range(15):
            f = FiniteFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
            memo, separable = oracle_subfunctions(f)
            assert sub_count(f) == len(memo)
            assert separable_sets(f).separable_sets == frozenset(separable)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_symmetric_closure_equals_generic(data):
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(1, 4 if k < 4 else 3))
    m = math.comb(k + n - 1, n)
    spec = tuple(data.draw(st.integers(0, k - 1)) for _ in range(m))
    f = spec_to_function(k, n, spec)
    a = closure_generic(f)
    b = closure_symmetric(f)
    assert a.sub_count == b.sub_count
    assert a.separable == b.separable
    ka = sorted((r.function.n, r.function.table, r.max_order) for r in a.records)
    kb = sorted((r.function.n, r.function.table, r.max_order) for r in b.records)
    assert ka == kb


def test_sub_bound_examples():
    assert sub_bound(3, 4) == 10
    assert sub_bound(3, 3) == 6
    assert sub_bound(1, 5) == 0


def test_dominants_examples():
    assert dominants(ORBIT3) == frozenset()
    embedded = construct_gap_n(4, 3, GapNSpec(0, {frozenset({0, 1, 2}): 1}))
    assert dominants(embedded) == {3}
    assert dominants(FiniteFunction(3, 2, [2] * 9)) == {0, 1, 2}


def test_dominants_preconditions():
    single_point = FiniteFunction(2, 2, [0, 1, 0, 0])  # not symmetric
    with pytest.raises(PreconditionError):
        dominants(single_point)
    with pytest.raises(PreconditionError):
        dominants(FiniteFunction(2, 0, [1]))


def test_weak_dominants_examples():
    double4 = construct_linear(4, LinearSpec((2, 2, 2, 2), 0))
    assert weak_dominants(double4) == frozenset()
    from aritygap import TernaryGap2Spec, construct_gap2_ternary

    for family in ("minority", "majority"):
        f = construct_gap2_ternary(3, TernaryGap2Spec(family, (0, 1, 2)))
        assert weak_dominants(f) == {0, 1, 2}
    assert weak_dominants(ORBIT3) == {0, 1, 2}


def test_weak_dominants_preconditions():
    single_point = FiniteFunction(2, 2, [0, 1, 0, 0])
    with pytest.raises(PreconditionError):
        weak_dominants(single_point)
    with pytest.raises(PreconditionError):
        weak_dominants(FiniteFunction(2, 2, [0, 0, 1, 1]))  # one essential var


def test_essential_core():
    minor = FiniteFunction.from_callable(3, 3, lambda a, b, c: c)
    core = essential_core(minor)
    assert core.n == 1 and core.table == (0, 1, 2)


def test_separable_sets_examples():
    report = separable_sets(ORBIT3)
    assert report.sep_count == 8
    assert report.separable_sets == frozenset(
        frozenset(s)
        for r in range(4)
        for s in itertools.combinations((1, 2, 3), r)
    )

    proj = FiniteFunction(2, 2, [0, 0, 1, 1])
    assert separable_sets(proj).separable_sets == {frozenset(), frozenset({1})}

    parity = FiniteFunction(2, 2, [0, 1, 1, 0])
    assert separable_sets(parity).separable_sets == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }


def test_separable_always_contains_empty():
    assert frozenset() in separable_sets(FiniteFunction(3, 1, [2, 2, 2])).separable_sets


def test_dominant_profile():
    from aritygap import dominant_profile

    profile = dominant_profile(ORBIT3)
    assert profile.dominants == frozenset()
    assert profile.weak_dominants == {0, 1, 2}


def test_reduced_convention_can_push_sub_below_sep():
    """Two variables fixed to different constants can reach the same reduced
    table, so under reduced-table counting sub(f) may drop below sep(f).
    Witness: value 1 exactly when at least two coordinates equal 2."""
    f = FiniteFunction.from_callable(
        3, 3, lambda a, b, c: 1 if (a, b, c).count(2) >= 2 else 0
    )
    report = separable_sets(f)
    assert report.sep_count == 8
    assert report.sub_count == 5
    assert report.sub_count < report.sep_count


def record_keys(closure):
    return sorted((r.function.n, r.function.table, r.max_order) for r in closure.records)


def fix(f, positions, constants):
    """f with each 1-based position fixed to its constant, the rest free."""
    for p, c in sorted(zip(positions, constants), reverse=True):
        f = restrict(f, p, c)
    return f


def closure_states(f):
    """Every (remaining positions, table) state of the breadth-first
    closure, constants as their one-entry table."""
    root = (tuple(range(1, f.n + 1)), f)
    states, todo = {root}, [root]
    while todo:
        remaining, g = todo.pop()
        for p in essential_variables(g):
            for c in range(g.k):
                child = (remaining[: p - 1] + remaining[p:], restrict(g, p, c))
                if child not in states:
                    states.add(child)
                    todo.append(child)
    return {(rem, g.table[:1] if g.is_constant() else g.table) for rem, g in states}


def assert_closure_kernel_equals_the_oracles(f):
    kernel = _closure_cached.__wrapped__(f.k, f.n, f.table)
    oracles = [closure_generic(f)]
    if is_totally_symmetric(f):
        oracles.append(closure_symmetric(f))
    for oracle in oracles:
        assert kernel.sub_count == oracle.sub_count == len(oracle.records)
        assert (kernel.separable, kernel.sep_count) == (oracle.separable, oracle.sep_count)
        assert record_keys(kernel) == record_keys(oracle)
    # remaining_vars names the state a record was read from: a state of
    # the breadth-first closure with n - max_order positions free, whose
    # table some fixing of the other positions gives
    states = closure_states(f)
    for r in kernel.records:
        assert len(r.remaining_vars) == f.n - r.max_order
        assert (r.remaining_vars, r.function.table) in states
        fixed = [p for p in range(1, f.n + 1) if p not in r.remaining_vars]
        slices = (fix(f, fixed, c) for c in itertools.product(range(f.k), repeat=len(fixed)))
        assert r.function.table in {g.table[:1] if g.is_constant() else g.table for g in slices}


@given(kernel_cases())
@settings(max_examples=80, deadline=None)
def test_closure_kernel_equals_the_oracles(f):
    assert_closure_kernel_equals_the_oracles(f)


def test_closure_kernel_on_a_wide_table_with_two_essential_variables():
    # only essential positions are ever fixed, so 8 arguments cost no more
    # than 2
    assert_closure_kernel_equals_the_oracles(
        FiniteFunction.from_callable(3, 8, lambda *x: (x[1] + 2 * x[6]) % 3 == 0)
    )


def test_closure_kernel_equals_generic_on_every_binary_ternary_table():
    # every table, among them those where fixing one variable makes another
    # fictive
    for idx in range(2**8):
        assert_closure_kernel_equals_the_oracles(
            FiniteFunction(2, 3, [(idx >> i) & 1 for i in range(8)])
        )


def test_closure_kernel_in_small_chunks_equals_the_oracles(monkeypatch):
    # gathers split into many parts, whose states are merged across parts
    from aritygap import minors

    monkeypatch.setattr(minors, "_CHUNK", 30)
    rng = random.Random(12)
    cases = [FiniteFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
             for k, n in ((2, 4), (3, 3), (2, 5), (4, 3), (3, 4))]
    cases.append(FiniteFunction.from_callable(3, 4, lambda *x: max(x) if min(x) else 0))
    for f in cases:
        assert_closure_kernel_equals_the_oracles(f)
        assert_count_paths_agree(f)


def breadth_first_states(f):
    """The (remaining positions, table) states of f's subfunction closure
    in the order a breadth-first walk first reaches them, each position
    fixed to each constant in turn, constants as their one-entry table."""
    root = (tuple(range(1, f.n + 1)), f)
    seen, order, queue = {root}, [root], [root]
    for remaining, g in queue:
        for p in sorted(essential_variables(g)):
            for c in range(g.k):
                child = (remaining[: p - 1] + remaining[p:], restrict(g, p, c))
                if child not in seen:
                    seen.add(child)
                    order.append(child)
                    queue.append(child)
    return [(rem, g.table) for rem, g in order]


def level_states(f):
    return [(tuple(b.bit_length() for b in row), tuple(tab))
            for _, bits, tabs, _, _ in _closure_levels(f.k, f.n, f.table)
            for row, tab in zip(bits.tolist(), tabs.tolist())]


def assert_breadth_first(f):
    # the constants that fixing every position leaves come by value
    want = breadth_first_states(f)
    last = sorted(s for s in want if not s[0]) if f.n else want[:1]
    assert level_states(f) == [s for s in want if s[0]] + last


@given(kernel_cases())
@settings(max_examples=80, deadline=None)
def test_closure_levels_come_in_breadth_first_order(f):
    assert_breadth_first(f)


def test_closure_levels_in_small_chunks_come_in_breadth_first_order(monkeypatch):
    # states merged across the parts of a gather keep their first occurrence
    from aritygap import minors

    monkeypatch.setattr(minors, "_CHUNK", 30)
    rng = random.Random(13)
    for k, n in ((2, 4), (3, 3), (2, 5), (4, 3), (3, 4)):
        assert_breadth_first(FiniteFunction(k, n, [rng.randrange(k) for _ in range(k**n)]))


def test_closure_kernel_on_wide_parity_follows_the_closure():
    # the states of x_1 + ... + x_12 mod 2 are one parity and its
    # complement per set of free positions: 2 * 2^12 of them, where the
    # slices (fixed positions and constants) number 3^12
    import tracemalloc

    f = FiniteFunction.from_callable(2, 12, lambda *x: sum(x) % 2)
    tracemalloc.start()
    try:
        kernel = _closure_cached.__wrapped__(f.k, f.n, f.table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    oracle = closure_symmetric(f)
    every_set = frozenset(
        frozenset(s) for m in range(13) for s in itertools.combinations(range(1, 13), m)
    )
    assert kernel.sub_count == oracle.sub_count == 24
    assert kernel.separable == oracle.separable == every_set
    assert record_keys(kernel) == record_keys(oracle)


def assert_count_paths_agree(f):
    # the restriction plan and the level walk count the closure the
    # breadth-first oracle walks
    oracle = closure_generic(f)
    want = (oracle.sub_count, oracle.separable, oracle.sep_count)
    for path in (_plan_closure, _level_closure):
        got = path(f.k, f.n, f.table)
        assert (got.sub_count, got.separable, got.sep_count) == want, (path.__name__, f)


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2)])
def test_count_paths_agree_on_every_table(k, n):
    for table in itertools.product(range(k), repeat=k**n):
        assert_count_paths_agree(FiniteFunction(k, n, table))


@pytest.mark.parametrize("kind,k,n", [("raw", 3, 3), ("raw", 4, 3), ("sym", 4, 3),
                                      ("raw", 3, 4), ("raw", 4, 4)])
def test_count_paths_agree_on_seeded_analyze_classes(kind, k, n):
    # the classes of the analyze benchmark, raw and symmetric
    rng = random.Random(f"count-paths/{kind}/{k}/{n}")
    m = math.comb(k + n - 1, n)
    for _ in range(12):
        if kind == "raw":
            f = FiniteFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
        else:
            f = spec_to_function(k, n, tuple(rng.randrange(k) for _ in range(m)))
        assert_count_paths_agree(f)
        # a table of two values has more constant and fictive states
        assert_count_paths_agree(FiniteFunction(k, n, [v % 2 for v in f.table]))


def test_count_paths_agree_on_constants_and_small_arities():
    cases = [FiniteFunction(k, n, [c] * k**n) for k, n in ((2, 0), (3, 2), (4, 3))
             for c in (0, k - 1)]
    cases += [FiniteFunction(k, 1, t) for k in (2, 3, 5)
              for t in itertools.product(range(k), repeat=k)]
    for f in cases:
        assert_count_paths_agree(f)
    assert sub_count(FiniteFunction(2, 0, [1])) == 0
    assert separable_sets(FiniteFunction(3, 0, [2])).separable_sets == {frozenset()}


def test_count_paths_agree_on_a_wide_radix():
    # k > 256 holds the values as int64, and groups the tables by hash
    rng = random.Random(21)
    for values in (300, 2):
        f = FiniteFunction(300, 2, [rng.randrange(values) for _ in range(300**2)])
        assert_count_paths_agree(f)


def test_plan_bound_reads_k_and_n_only():
    # the plan's index, the entries it gathers per table, holds
    # 2 n 2^(n-1) (k-1) k^(n-1) of them; the first domains past
    # _PLAN_ENTRIES count by the walk
    assert _plan_fits(2, 6) and not _plan_fits(2, 7)
    assert _plan_fits(3, 5) and not _plan_fits(3, 6)
    assert _plan_fits(4, 4) and not _plan_fits(4, 5)
    assert _plan_fits(64, 2) and not _plan_fits(65, 2)
    assert all(_plan_fits(k, 0) for k in (2, 3, 300))
    for k, n in ((2, 6), (3, 5), (4, 4), (64, 2), (300, 1), (2, 0)):
        index, _, _, _ = _count_plan(k, n)
        assert len(index) == 2 * n * 2 ** max(n - 1, 0) * (k - 1) * k ** max(n - 1, 0)
        assert len(index) <= _PLAN_ENTRIES


@pytest.mark.parametrize("k,n,inside", [(2, 6, True), (2, 7, False), (3, 5, True),
                                        (3, 6, False), (4, 4, True), (4, 5, False)])
def test_count_paths_on_each_side_of_the_plan_bound(k, n, inside):
    # few essential positions keep the oracle small; the plan covers every
    # position all the same. Past the bound the plan is never built.
    rng = random.Random(k * 100 + n)
    ess = sorted(rng.sample(range(n), 4))
    inner = [rng.randrange(k) for _ in range(k**4)]
    f = FiniteFunction.from_callable(
        k, n, lambda *x: inner[sum(x[p] * k ** (3 - i) for i, p in enumerate(ess))])
    oracle = closure_generic(f)
    _count_plan.cache_clear()
    closure = _closure_cached.__wrapped__(k, n, f.table)
    assert (closure.sub_count, closure.separable) == (oracle.sub_count, oracle.separable)
    assert _count_plan.cache_info().currsize == int(inside)
    if inside:
        assert_count_paths_agree(f)
    else:
        walk = _level_closure(k, n, f.table)
        assert (walk.sub_count, walk.separable) == (oracle.sub_count, oracle.separable)
