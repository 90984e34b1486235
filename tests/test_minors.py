import itertools
import random

import pytest
from hypothesis import given, settings
from table_strategies import kernel_cases

from aritygap import (
    FiniteFunction,
    DomainError,
    GapProfile,
    PreconditionError,
    all_minors,
    construct_gap2_ternary,
    construct_linear,
    essential_count,
    essential_variables,
    gap,
    gap_index,
    gap_profile,
    identify,
    iter_points,
    orbit_sum,
    LinearSpec,
    TernaryGap2Spec,
)


def oracle_essential(f):
    """Independent check straight from the definition: scan all point pairs
    differing in one coordinate."""
    ess = set()
    for i in range(f.n):
        for p in iter_points(f.k, f.n):
            for b in range(f.k):
                q = p[:i] + (b,) + p[i + 1 :]
                if f(p) != f(q):
                    ess.add(i + 1)
                    break
            if i + 1 in ess:
                break
    return frozenset(ess)


def oracle_gap(f):
    """ess(f) minus the best essential count among the one-step minors."""
    ess = oracle_essential(f)
    return len(ess) - max(
        len(oracle_essential(identify(f, i, j))) for i in ess for j in ess if i != j
    )


def oracle_minor_closure(f):
    """Independent minor closure: substitution done through point loops."""

    def identify_table(g, i, j):
        out = []
        for p in iter_points(g.k, g.n):
            q = list(p)
            q[i - 1] = p[j - 1]
            out.append(g(tuple(q)))
        return FiniteFunction(g.k, g.n, out)

    frontier = {f}
    found = {}
    depth = 0
    while frontier:
        depth += 1
        nxt = set()
        for g in frontier:
            ess = oracle_essential(g)
            for i in ess:
                for j in ess:
                    if i != j:
                        nxt.add(identify_table(g, i, j))
        for h in nxt:
            found[h] = depth  # later (deeper) visits overwrite: max chain length
        frontier = nxt
        if depth > f.n + 1:
            break
    return found


PARITY2 = FiniteFunction(2, 2, [0, 1, 1, 0])
DOUBLE4 = construct_linear(4, LinearSpec((2, 2, 2, 2), 0))
MINORITY = construct_gap2_ternary(3, TernaryGap2Spec("minority", (0, 1, 2)))
ORBIT3 = orbit_sum(3, (0, 1, 2), 3)


def test_essential_examples():
    f = FiniteFunction(2, 2, [0, 0, 1, 1])  # first-coordinate projection
    assert essential_variables(f) == {1}
    assert essential_variables(FiniteFunction(3, 2, [1] * 9)) == frozenset()
    assert essential_variables(ORBIT3) == {1, 2, 3}


def test_essential_matches_oracle_random():
    rng = random.Random(1)
    for k, n in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        for _ in range(25):
            f = FiniteFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
            assert essential_variables(f) == oracle_essential(f)


def test_identify_examples():
    assert identify(PARITY2, 2, 1) == FiniteFunction(2, 2, [0] * 4)

    minor = identify(MINORITY, 2, 1)
    expected = FiniteFunction.from_callable(3, 3, lambda a, b, c: (0, 1, 2)[c])
    assert minor == expected
    assert essential_variables(minor) == {3}

    minor = identify(DOUBLE4, 2, 1)
    expected = construct_linear(4, LinearSpec((0, 0, 2, 2), 0))
    assert minor == expected
    assert essential_variables(minor) == {3, 4}


def test_identify_preconditions():
    with pytest.raises(DomainError):
        identify(PARITY2, 1, 1)
    f = FiniteFunction(2, 2, [0, 0, 1, 1])
    with pytest.raises(PreconditionError):
        identify(f, 1, 2)  # x2 not essential


def test_identify_drops_target_variable():
    rng = random.Random(7)
    for _ in range(40):
        f = FiniteFunction(3, 3, [rng.randrange(3) for _ in range(27)])
        ess = sorted(essential_variables(f))
        for i, j in itertools.permutations(ess, 2):
            h = identify(f, i, j)
            assert i not in essential_variables(h)
            assert essential_count(h) <= essential_count(f)


def test_all_minors_examples():
    records = all_minors(PARITY2)
    assert len(records) == 1
    assert records[0].depth == 1
    assert records[0].function.is_constant()

    records = all_minors(DOUBLE4)
    by_depth = {}
    for r in records:
        by_depth.setdefault(r.depth, []).append(r)
    assert any(r.function.is_constant() for r in by_depth[2])

    assert all_minors(FiniteFunction(3, 2, [2] * 9)) == ()


def test_minor_closure_matches_oracle():
    rng = random.Random(3)
    for _ in range(20):
        f = FiniteFunction(2, 3, [rng.randrange(2) for _ in range(8)])
        if essential_count(f) < 2:
            continue
        expected = oracle_minor_closure(f)
        got = {r.function: r.depth for r in all_minors(f)}
        assert got == expected


def test_gap_examples():
    assert gap(PARITY2) == 2
    assert gap(ORBIT3) == 3
    assert gap(MINORITY) == 2
    with pytest.raises(PreconditionError):
        gap(FiniteFunction(2, 2, [0, 0, 1, 1]))


def test_gap_index_examples():
    assert gap_index(PARITY2) == 1
    assert gap_index(DOUBLE4) == 2
    assert gap_index(ORBIT3) == 1
    with pytest.raises(PreconditionError):
        gap_index(FiniteFunction(3, 1, [0, 1, 2]))


def test_gap_profile_examples():
    p = gap_profile(ORBIT3)
    assert (p.ess, p.gap, p.index, p.class_label) == (3, 3, 1, (3, 3, 3))
    p = gap_profile(FiniteFunction(3, 2, [0] * 9))
    assert (p.ess, p.gap, p.index, p.class_label) == (0, None, None, None)
    p = gap_profile(DOUBLE4)
    assert (p.ess, p.gap, p.index, p.class_label) == (4, 2, 2, (4, 2, 4))


def test_one_step_equals_closure_max_exhaustive_binary():
    # the gap shortcut: the best essential count over one-step minors equals
    # the best over the whole closure, every binary 3-ary table
    from aritygap.minors import _essential_positions

    for idx in range(2**8):
        table = tuple((idx >> i) & 1 for i in range(8))
        f = FiniteFunction(2, 3, table)
        if essential_count(f) < 2:
            continue
        depths = {r.function.table: r.depth for r in all_minors(f)}
        one = max(
            len(_essential_positions(2, 3, t)) for t, d in depths.items() if d == 1
        )
        assert one == max(len(_essential_positions(2, 3, t)) for t in depths)


def test_one_step_equals_closure_max_sampled_ternary():
    from aritygap.minors import _essential_positions

    rng = random.Random(9)
    for _ in range(150):
        f = FiniteFunction(3, 3, [rng.randrange(3) for _ in range(27)])
        if essential_count(f) < 2:
            continue
        depths = {r.function.table: r.depth for r in all_minors(f)}
        one = max(
            len(_essential_positions(3, 3, t)) for t, d in depths.items() if d == 1
        )
        assert one == max(len(_essential_positions(3, 3, t)) for t in depths)


def test_willard_bound_sampled():
    rng = random.Random(5)
    for _ in range(300):
        f = FiniteFunction(2, 3, [rng.randrange(2) for _ in range(8)])
        if essential_count(f) == 3:
            assert gap(f) <= 2


def assert_index_is_the_deepest_oracle_minor(f):
    deepest = max(oracle_minor_closure(f).values())
    assert gap_index(f) == gap_profile(f).index == deepest


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_minor_kernel_equals_oracle(f):
    assert {r.function: r.depth for r in all_minors(f)} == oracle_minor_closure(f)
    if essential_count(f) >= 2:
        assert gap(f) == gap_profile(f).gap == oracle_gap(f)
        assert_index_is_the_deepest_oracle_minor(f)


def test_minor_kernel_on_a_wide_table_with_two_essential_variables():
    # only reached minors are gathered, so 12 arguments with 2 essential
    # cost one round
    f = FiniteFunction.from_callable(2, 12, lambda *x: x[3] ^ x[9])
    assert {r.function: r.depth for r in all_minors(f)} == oracle_minor_closure(f)
    assert (gap(f), gap_index(f)) == (2, 1)


def test_minor_kernel_equals_oracle_on_every_binary_ternary_table():
    # small enough to take every table, among them those where an
    # identification makes a third variable fictive
    for idx in range(2**8):
        f = FiniteFunction(2, 3, [(idx >> i) & 1 for i in range(8)])
        assert {r.function: r.depth for r in all_minors(f)} == oracle_minor_closure(f), f
        if essential_count(f) >= 2:
            assert_index_is_the_deepest_oracle_minor(f)


def test_minor_kernel_in_small_chunks_equals_oracle(monkeypatch):
    # gathers split into many parts, every round made distinct, and
    # minors merged across parts
    from aritygap import minors

    monkeypatch.setattr(minors, "_CHUNK", 16)
    rng = random.Random(11)
    cases = [FiniteFunction(k, n, [rng.randrange(k) for _ in range(k**n)])
             for k, n in ((2, 4), (3, 3), (2, 5), (4, 3), (3, 4)) for _ in range(5)]
    cases += [DOUBLE4, ORBIT3, FiniteFunction.from_callable(2, 5, lambda *x: sum(x) % 2)]
    for f in cases:
        assert {r.function: r.depth for r in all_minors(f)} == oracle_minor_closure(f), f
        assert_index_is_the_deepest_oracle_minor(f)
        for _, tabs in walk(f):
            assert len(set(map(tuple, tabs.tolist()))) == len(tabs), f


def test_batch_walk_equals_the_oracle_row_by_row(monkeypatch):
    # one walk over a batch, its gathers split into parts of 16 entries:
    # two equal tables each keep their minors, and a table with one
    # essential variable and a constant have none
    from aritygap import minors

    monkeypatch.setattr(minors, "_CHUNK", 16)
    rng = random.Random(28)
    batch = [FiniteFunction(3, 3, [rng.randrange(3) for _ in range(27)]), ORBIT3,
             FiniteFunction.from_callable(3, 3, lambda a, b, c: b), ORBIT3,
             FiniteFunction(3, 3, [1] * 27), MINORITY]
    tag, depth, tables = minors._minor_rows(3, 3, minors._values(3, [f.table for f in batch]))
    got = list(zip(tag.tolist(), depth.tolist(), map(tuple, tables.tolist())))
    want = [(r, d, h.table) for r, f in enumerate(batch)
            for h, d in sorted(oracle_minor_closure(f).items(), key=lambda m: (m[1], m[0].table))]
    assert got == want
    assert [(r, m.depth, m.function.table) for r, f in enumerate(batch)
            for m in all_minors(f)] == want


def test_minor_order_is_the_tables_order_past_k_256():
    # entry 1 of the two minors is 1 against 256, whose little-endian
    # bytes would sort the other way
    rng = random.Random(3)
    table = [rng.randrange(257) for _ in range(257**2)]
    table[0], table[258] = 256, 1  # f(0, 0) and f(1, 1)
    f = FiniteFunction(257, 2, table)
    # x_1 := x_2 gives f(y, y), x_2 := x_1 gives f(x, x), each with one
    # essential variable
    diagonal = [table[258 * x] for x in range(257)]
    assert [(r.depth, r.function.table) for r in all_minors(f)] == [
        (1, tuple(diagonal * 257)), (1, tuple(v for v in diagonal for _ in range(257)))]


def test_all_minors_and_remark2_2_records_read_the_one_walk(monkeypatch):
    from aritygap import minors
    from aritygap.suites import run_suite

    def refuse(*args):
        raise Walked

    monkeypatch.setattr(minors, "_rounds", refuse)
    with pytest.raises(Walked):
        all_minors(DOUBLE4)
    # (3, 5) has gap-2 rows that the remark2_2 screen flags
    with pytest.raises(Walked):
        run_suite("remark2_2", 3, 5)


def test_minor_kernel_on_wide_parity_stays_small():
    # every variable of x_1 + ... + x_10 mod 2 is essential, but
    # identifying two of them drops both: the closure is the 511 parities
    # of 10 - 2d variables, at depth d, where an enumeration of the
    # idempotent maps of 10 positions would take 2 237 921 of them
    import tracemalloc

    import numpy as np

    from aritygap.minors import _minor_rows

    f = FiniteFunction.from_callable(2, 10, lambda *x: sum(x) % 2)
    tracemalloc.start()
    try:
        assert gap(f) == 2
        _, depth, tables = _minor_rows(2, 10, np.array([f.table], dtype=np.uint8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    depths = dict(zip(map(tuple, tables.tolist()), depth.tolist()))
    points = np.array(list(iter_points(2, 10)))
    expected = {}
    for bits in range(2**10 - 1):
        kept = [(bits >> p) & 1 for p in range(10)]
        if (10 - sum(kept)) % 2 == 0:
            expected[tuple((points @ kept % 2).tolist())] = (10 - sum(kept)) // 2
    assert dict(depths) == expected
    assert max(depths.values()) == 5


def test_gap_index_of_a_wide_parity_counts_its_rounds():
    # x_1 + ... + x_10 mod 2 loses two variables per identification, so
    # its deepest minor, a constant, is 5 identifications down
    import tracemalloc

    f = FiniteFunction.from_callable(2, 10, lambda *x: sum(x) % 2)
    tracemalloc.start()
    try:
        assert gap_index(f) == gap_profile(f).index == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the largest round's gather (about 12 MB) sets the peak; no minor is
    # kept past its round
    assert peak < 32 << 20


@pytest.fixture
def walks(monkeypatch):
    """The functions whose minor rounds are walked past the first while
    the test runs. Every table takes the path of the tables past the minor
    plan's bound: the first round, the tight chain and the rounds."""
    from aritygap import minors

    monkeypatch.setattr(minors, "_PLAN_ENTRIES", 0)
    walked, rounds = [], minors._rounds

    def counted(k, n, tabs):
        walk = rounds(k, n, tabs)
        yield next(walk)
        walked.append(FiniteFunction(k, n, tabs[0].tolist()))
        yield from walk

    monkeypatch.setattr(minors, "_rounds", counted)
    return walked


def walk(f):
    """The minor rounds of f alone, as (tags, tables)."""
    from aritygap.minors import _rounds, _values

    return _rounds(f.k, f.n, _values(f.k, f.table)[None])


# Found by a seeded search of random tables. No chain from the first
# one-step minor with ess - gap = 3 essential variables loses one variable
# a step, but one from another one-step minor does, so the walk answers.
FIRST_CHAIN_DIES = FiniteFunction(2, 4, [0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1])
# The first minor with one essential variable fewer has no such chain
# below it; the search backs up and finds one through another.
CHAIN_BACKS_UP = FiniteFunction(2, 5, [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 1,
                                       1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1])


def test_gap_index_when_the_first_chain_dies(walks):
    f = FIRST_CHAIN_DIES
    assert_index_is_the_deepest_oracle_minor(f)
    assert gap_index(f) == essential_count(f) - gap(f) == 3
    assert set(walks) == {f}


def test_gap_index_when_the_chain_backs_up(walks):
    f = CHAIN_BACKS_UP
    assert_index_is_the_deepest_oracle_minor(f)
    assert gap_index(f) == essential_count(f) - gap(f) == 4
    assert not walks


def test_gap_index_of_gap2_members_from_the_chain(walks):
    # every gap-2 member of (3, 4) keeps 2 essential variables in its best
    # one-step minor, so its index is 2 with no round walked
    from aritygap.enumeration import nontrivial_gap_specs, spec_to_function

    for spec in nontrivial_gap_specs(3, 4):
        f = spec_to_function(3, 4, spec)
        assert_index_is_the_deepest_oracle_minor(f)
        assert gap_index(f) == essential_count(f) - gap(f) == 2
    assert not walks


def test_gap_index_without_a_tight_chain_walks_the_rounds(walks):
    # a gap-2 member of (3, 6) and the parity of 6 fall short of ess - gap = 4
    from aritygap.enumeration import nontrivial_gap_specs, spec_to_function

    member = spec_to_function(3, 6, next(iter(nontrivial_gap_specs(3, 6))))
    parity = FiniteFunction.from_callable(2, 6, lambda *x: sum(x) % 2)
    for f in (member, parity):
        assert_index_is_the_deepest_oracle_minor(f)
        assert (gap_index(f), essential_count(f) - gap(f)) == (3, 4)
    assert set(walks) == {member, parity}


class Walked(Exception):
    pass


def test_gap_index_of_a_wide_random_table_walks_no_round(monkeypatch):
    # walking the rounds of a random 9-ary Boolean table takes about 30 s
    # and 1.2 GB; a chain that loses one variable a step shows index 8
    from aritygap import minors

    rounds = minors._rounds

    def refuse(*args):  # the first round only
        yield next(rounds(*args))
        raise Walked

    monkeypatch.setattr(minors, "_rounds", refuse)
    rng = random.Random(1)
    f = FiniteFunction(2, 9, [rng.randrange(2) for _ in range(2**9)])
    assert (essential_count(f), gap(f)) == (9, 1)
    assert gap_index(f) == gap_profile(f).index == 8
    # each identification of a parity drops two variables: no such chain
    with pytest.raises(Walked):
        gap_index(FiniteFunction.from_callable(2, 8, lambda *x: sum(x) % 2))


def test_grouping_of_wide_rows_is_exact():
    # rows too wide for an exact base-k key are grouped by their bytes
    import numpy as np

    from aritygap import minors

    rng = np.random.default_rng(4)
    tabs = rng.integers(0, 2, (300, 70)).astype(np.uint8)
    tabs[150:] = tabs[rng.integers(0, 150, 150)]
    tie = rng.integers(0, 3, 300)
    want = {(tuple(r), t) for r, t in zip(tabs.tolist(), tie.tolist())}
    order, new = minors._group(2, tabs, tie, 3)
    rows = [(tuple(tabs[m].tolist()), int(tie[m])) for m in order]
    assert sorted(set(rows)) == sorted(want)
    # new marks each change of table, and each table is one run, its rows
    # ordered by their ties and then by their places
    assert new[0] and all(n == (a[0] != b[0]) for a, b, n in zip(rows, rows[1:], new[1:]))
    assert sum(new) == len({r[0] for r in rows})
    assert all((tie[a], a) < (tie[b], b) for a, b, n in zip(order, order[1:], new[1:]) if not n)
    order, new = minors._group(2, tabs)
    assert sorted(order.tolist()) == list(range(300))
    assert sum(new) == len({r[0] for r in rows})


def walked_gap_and_index(f):
    """The gap from the first minor round and the number of minor rounds."""
    from aritygap.minors import _essential_mask

    rounds = walk(f)
    ess = _essential_mask(f.k, f.n, next(rounds)[1]).sum(axis=1)
    return essential_count(f) - int(ess.max()), 1 + sum(1 for _ in rounds)


def assert_plan_equals_walk(f):
    from aritygap.minors import _gap_and_index

    want = walked_gap_and_index(f)
    assert (gap(f), gap_index(f)) == _gap_and_index(f) == want, f
    p = gap_profile(f)
    assert (p.gap, p.index) == want, f


def plan_domains():
    """Every (k, n), n >= 2, whose minor plan is within the bound."""
    from aritygap.minors import _PLAN_ENTRIES, _minor_plan_entries

    return [(k, n) for n in range(2, 7) for k in range(2, 100)
            if _minor_plan_entries(k, n) <= _PLAN_ENTRIES]


def test_minor_plan_equals_walk_on_every_small_table():
    for k, n in ((2, 2), (2, 3), (3, 2)):
        for table in itertools.product(range(k), repeat=k**n):
            f = FiniteFunction(k, n, table)
            if essential_count(f) >= 2:
                assert_plan_equals_walk(f)


def structured_tables(k, n, rng):
    """Random, parity, AND, majority, two-variable and fictive-position
    tables at (k, n), by kind."""
    import numpy as np

    x = np.array(list(iter_points(k, n)))
    two = rng.sample(range(n), 2)
    inner = np.array([rng.randrange(k) for _ in range(k * k)])
    keep = sorted(rng.sample(range(n), rng.randrange(2, n + 1)))
    lookup = np.array([rng.randrange(k) for _ in range(k ** len(keep))])
    tables = {
        "random": np.array([rng.randrange(k) for _ in range(k**n)]),
        "parity": x.sum(axis=1) % 2,
        "sum": x.sum(axis=1) % k,
        "and": (x != 0).all(axis=1),
        "majority": 2 * (x != 0).sum(axis=1) > n,
        "two-variable": inner[x[:, two[0]] * k + x[:, two[1]]],
        "fictive": lookup[x[:, keep] @ k ** np.arange(len(keep))],
    }
    return {kind: FiniteFunction(k, n, t.astype(int).tolist()) for kind, t in tables.items()}


def test_minor_plan_equals_walk_at_every_domain_within_its_bound():
    from aritygap.minors import _PLAN_ENTRIES, _minor_plan_entries

    domains = plan_domains()
    for edge in ((2, 6), (3, 5), (4, 5), (90, 2), (17, 3), (7, 4)):
        assert edge in domains
    for k, n in ((2, 7), (3, 6), (5, 5), (91, 2), (18, 3), (8, 4)):
        assert _minor_plan_entries(k, n) > _PLAN_ENTRIES
    rng = random.Random(24)
    for k, n in domains:
        for f in structured_tables(k, n, rng).values():
            if essential_count(f) >= 2:
                assert_plan_equals_walk(f)


def test_minor_plan_on_constant_and_low_arity_tables():
    for f in (FiniteFunction(3, 0, [2]), FiniteFunction(2, 1, [0, 1]),
              FiniteFunction(5, 1, [0, 0, 0, 0, 0]), FiniteFunction(3, 4, [1] * 81)):
        assert gap_profile(f) == GapProfile(essential_count(f), None, None, None)
        with pytest.raises(PreconditionError):
            gap(f)
        with pytest.raises(PreconditionError):
            gap_index(f)


def test_minor_plan_size_is_its_closed_form():
    from aritygap.minors import _minor_plan, _minor_plan_entries

    # 2 sum_r S(n, r) r (k-1) k^(r-1), from the Stirling numbers
    assert [_minor_plan_entries(k, n) for k, n in ((2, 1), (3, 3), (4, 4), (4, 5), (2, 7))] == [
        2, 184, 3606, 30966, 61490]
    bell = [1, 1, 2, 5, 15, 52, 203]  # the set partitions of n positions
    for k, n in [(2, 1), (7, 1)] + plan_domains()[::7] + [(2, 6), (3, 5), (4, 5)]:
        pairs, _, _, _, depth = _minor_plan.__wrapped__(k, n)
        assert pairs.shape == (2, _minor_plan_entries(k, n) // 2)
        assert len(depth) == bell[n]


class Built(Exception):
    pass


def test_minor_plan_is_never_built_past_its_bound(monkeypatch):
    from aritygap import minors

    def refuse(k, n):
        raise Built

    monkeypatch.setattr(minors, "_minor_plan", refuse)
    rng = random.Random(7)
    for f in structured_tables(2, 7, rng).values():
        if essential_count(f) >= 2:
            assert (gap(f), gap_index(f)) == walked_gap_and_index(f)
    with pytest.raises(Built):
        gap(PARITY2)
