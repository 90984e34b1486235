"""The gather-index table kernels against the per-entry loops they replaced.

The loop versions below (and ``oracles.restrict_table``) are kept verbatim
as oracles: an identification on every essential pair, a restriction, the
essential core, the dominants, the symmetric (ess, gap) test, a swap test,
the total-symmetry test, compression and spec expansion must give the same
tables and the same answers, on every position pair and constant, for k in
2..4 and n in 0..4. The cell listings of the gap >= 2 class and the n = 4 gap-2 sampler
are checked against the filter and the draw loop they replaced, the seeded row sampler
against the uniform spec and raw-table draw loops (also with output blocks
so short that rows are drawn on past them), the listed full space
against ``itertools.product``, and the identification-shape gathers of
``enumeration`` and the multiset index of every table point against the
point-by-point lookup they replaced. The reshaped essential mask is held
to the per-table scan ``_essential_positions``, also over more rows than
one chunk holds.
"""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aritygap import FiniteFunction, DomainError, PreconditionError, dominants, essential_core
from aritygap import identify, restrict
from aritygap.core import BudgetError, index_of, iter_points
from aritygap.enumeration import (
    _fictive_reps,
    _seeded_rows,
    _shape_dag,
    _shape_gather,
    _solutions,
    nontrivial_gap_specs,
    sample_specs,
    spec_to_function,
    symmetric_spec_count,
    symmetry_index,
)
from aritygap.minors import _essential_mask, _essential_positions, _values
from aritygap.suites import _sample_gap2_specs
from oracles import cell_specs, restrict_table, spec_ess_gap
from aritygap.symmetric import (
    _swap_invariant,
    compress,
    is_totally_symmetric,
    multisets,
)

DOMAINS = [(k, n) for k in range(2, 5) for n in range(0, 5)]


def loop_identify_table(k, n, table, i, j):
    # x_i := x_j on 0-based positions i, j
    step_i = k ** (n - 1 - i)
    step_j = k ** (n - 1 - j)
    out = []
    for m in range(len(table)):
        ci = (m // step_i) % k
        cj = (m // step_j) % k
        out.append(table[m + (cj - ci) * step_i])
    return tuple(out)


def loop_essential_core(f):
    # drop the first fictive position, fixed to 0, until none is left
    k, n, table = f.k, f.n, f.table
    while True:
        ess = _essential_positions(k, n, table)
        if len(ess) == n:
            return FiniteFunction(k, n, table)
        fictive = next(p for p in range(1, n + 1) if p not in ess)
        table = restrict_table(k, n, table, fictive, 0)
        n -= 1


def loop_dominants(f):
    return frozenset(c for c in range(f.k)
                     if len(set(restrict_table(f.k, f.n, f.table, f.n, c))) == 1)


def with_fictive(k, n, table, positions):
    """The table with each 0-based position of ``positions`` made fictive:
    every entry read where those coordinates are 0."""
    steps = [k ** (n - 1 - p) for p in positions]
    return tuple(table[m - sum((m // s) % k * s for s in steps)] for m in range(k**n))


def loop_spec_ess_gap(k, n, spec):
    first = spec[0]
    if all(v == first for v in spec):
        return 0, None
    if n < 2:
        return n, None
    y, z, _ = _fictive_reps(k, n)
    y_ess = any(spec[j] != spec[r] for j, r in enumerate(y.rep.tolist()))
    z_ess = any(spec[j] != spec[r] for j, r in enumerate(z.rep.tolist()))
    return n, n - y_ess - (n - 2) * z_ess


def tables(k, n):
    return st.lists(st.integers(0, k - 1), min_size=k**n, max_size=k**n).map(tuple)


def specs(k, n):
    m = math.comb(k + n - 1, n)
    return st.lists(st.integers(0, k - 1), min_size=m, max_size=m).map(tuple)


@pytest.mark.parametrize("k,n", DOMAINS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_identify_table_equals_loop(k, n, data):
    # a random table has every position essential; one fictive position
    # leaves the pairs with it out
    table = data.draw(tables(k, n))
    for t in (table, with_fictive(k, n, table, range(min(n, 1)))):
        f = FiniteFunction(k, n, t)
        ess = _essential_positions(k, n, t)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            if i == j:
                with pytest.raises(DomainError):
                    identify(f, i, j)
            elif i in ess and j in ess:
                got = identify(f, i, j)
                assert got.n == n and type(got.table) is tuple
                assert got.table == loop_identify_table(k, n, t, i - 1, j - 1)
            else:
                with pytest.raises(PreconditionError):
                    identify(f, i, j)


@pytest.mark.parametrize("k,n", DOMAINS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_restrict_table_equals_loop(k, n, data):
    table = data.draw(tables(k, n))
    f = FiniteFunction(k, n, table)
    for i, c in itertools.product(range(1, n + 1), range(k)):
        got = restrict(f, i, c)
        assert got.n == n - 1 and type(got.table) is tuple
        assert got.table == restrict_table(k, n, table, i, c)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_restrict_to_single_entry_is_a_tuple(k):
    # fixing the only position of a unary table leaves an arity-0 table
    f = FiniteFunction(k, 1, range(k))
    for c in range(k):
        got = restrict(f, 1, c)
        assert (got.n, got.table) == (0, (c,))
        assert got.table == restrict_table(k, 1, f.table, 1, c)


@pytest.mark.parametrize("k,n", DOMAINS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_essential_core_equals_loop(k, n, data):
    # any fictive positions, every one between the first and the last, and
    # a constant, which keeps no position
    table = data.draw(tables(k, n))
    fictive = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
    for t in (table, with_fictive(k, n, table, fictive),
              with_fictive(k, n, table, range(1, n - 1)), (table[0],) * k**n):
        f = FiniteFunction(k, n, t)
        got = essential_core(f)
        assert got == loop_essential_core(f)
        assert _essential_positions(k, got.n, got.table) == tuple(range(1, got.n + 1))


@pytest.mark.parametrize("k,n", [(k, n) for k, n in DOMAINS if n >= 1])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_dominants_equal_loop(k, n, data):
    # at n = 1 every constant is a dominant: each restriction is a value
    f = spec_to_function(k, n, data.draw(specs(k, n)))
    got = dominants(f)
    assert got == loop_dominants(f)
    if n == 1:
        assert got == frozenset(range(k))
    f = spec_to_function(k, n, (0,) * (math.comb(k + n - 1, n) - 1) + (1,))
    assert dominants(f) == loop_dominants(f)


@pytest.mark.parametrize("k,n", DOMAINS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_spec_ess_gap_equals_loop(k, n, data):
    spec = data.draw(specs(k, n))
    assert spec_ess_gap(k, n, spec) == loop_spec_ess_gap(k, n, spec)


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (3, 4)])
def test_spec_ess_gap_equals_loop_on_the_gap_class(k, n):
    # random specs almost never have a fictive y or z; the listed class does
    members = nontrivial_gap_specs(k, n)
    assert members
    for spec in members:
        assert spec_ess_gap(k, n, spec) == loop_spec_ess_gap(k, n, spec)
        # one changed entry moves most members out of the class
        changed = ((spec[0] + 1) % k,) + spec[1:]
        assert spec_ess_gap(k, n, changed) == loop_spec_ess_gap(k, n, changed)


def test_table_range_check_names_first_bad_value():
    with pytest.raises(DomainError, match="table value 3 outside 0..2"):
        FiniteFunction(3, 1, (0, 3, -1))
    with pytest.raises(DomainError, match="table value -1 outside 0..2"):
        FiniteFunction(3, 1, (0, -1, 3))
    assert FiniteFunction(3, 1, (0, 2, 1)).table == (0, 2, 1)


def loop_swap_invariant(f, a, b):
    # a, b are 0-based positions
    k, n, t = f.k, f.n, f.table
    step_a = k ** (n - 1 - a)
    step_b = k ** (n - 1 - b)
    for m in range(len(t)):
        ca = (m // step_a) % k
        cb = (m // step_b) % k
        if ca >= cb:
            continue
        swapped = m + (cb - ca) * step_a + (ca - cb) * step_b
        if t[m] != t[swapped]:
            return False
    return True


def loop_is_totally_symmetric(f):
    k, n, t = f.k, f.n, f.table
    for m, p in enumerate(iter_points(k, n)):
        if t[m] != t[index_of(sorted(p), k)]:
            return False
    return True


def loop_compress_values(f):
    if not loop_is_totally_symmetric(f):
        raise PreconditionError("table is not invariant under all coordinate permutations")
    return {m: f.table[index_of(m, f.k)] for m in multisets(f.k, f.n)}


def loop_spec_to_function(k, n, spec):
    index = {m: i for i, m in enumerate(multisets(k, n))}
    return FiniteFunction(k, n, (spec[index[tuple(sorted(p))]] for p in iter_points(k, n)))


def symmetrized(k, n, table, a, b):
    """The table made invariant under swapping the 0-based positions a and b
    (each entry takes the value at the smaller index of its swap pair)."""
    out = list(table)
    for m, p in enumerate(iter_points(k, n)):
        q = list(p)
        q[a], q[b] = q[b], q[a]
        out[m] = table[min(m, index_of(q, k))]
    return tuple(out)


@pytest.mark.parametrize("k,n", DOMAINS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_swap_invariant_equals_loop(k, n, data):
    table = data.draw(tables(k, n))
    spec = data.draw(specs(k, n))
    for t in (table, loop_spec_to_function(k, n, spec).table):
        for a, b in itertools.product(range(n), repeat=2):
            for u in (t, symmetrized(k, n, t, a, b)):
                f = FiniteFunction(k, n, u)
                got = _swap_invariant(f, a, b)
                assert got == loop_swap_invariant(f, a, b)
                if u is not t:
                    assert got


@pytest.mark.parametrize("k,n", DOMAINS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_total_symmetry_and_compress_equal_loop(k, n, data):
    table = data.draw(tables(k, n))
    spec = data.draw(specs(k, n))
    for f in (FiniteFunction(k, n, table), loop_spec_to_function(k, n, spec)):
        want = loop_is_totally_symmetric(f)
        assert is_totally_symmetric(f) == want
        if want:
            assert compress(f).values == loop_compress_values(f)
        else:
            with pytest.raises(PreconditionError):
                compress(f)


@pytest.mark.parametrize("k,n", DOMAINS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_spec_to_function_equals_loop(k, n, data):
    spec = data.draw(specs(k, n))
    got = spec_to_function(k, n, spec)
    assert type(got.table) is tuple
    assert got == loop_spec_to_function(k, n, spec)
    assert compress(got).as_tuple() == spec


# every (k, n) of the scan oracle in tests/test_enumeration.py, and beyond it
FULL_GAP_DOMAINS = [
    (k, n) for k in range(2, 5) for n in range(0, 9) if symmetric_spec_count(k, n) <= 1 << 20
] + [(4, 3), (4, 4), (4, 5), (3, 5)]


def cell_gaps(n):
    """The gaps of the y-fictive cell (2), the z-fictive cell (n - 1) and the
    cell of both (n): the first two meet at n = 3, and at n = 2 the class is
    one cell, of gap 2."""
    return [{2}, {n - 1}, {n}]


@pytest.mark.parametrize("k,n", FULL_GAP_DOMAINS)
def test_full_gap_listing_equals_filter(k, n):
    listed = nontrivial_gap_specs(k, n)
    gap = [spec_ess_gap(k, n, s)[1] for s in listed]
    for gaps in cell_gaps(n):
        assert cell_specs(k, n, gaps) == [s for s, g in zip(listed, gap) if g in gaps]


def test_full_gap_listing_follows_the_ascending_listing():
    # a budget that admits the class but not the domain lists it ascending,
    # so the two gap-2 cells at n = 3 interleave
    listed = nontrivial_gap_specs(3, 3, budget=150)
    for gaps, size in zip(cell_gaps(3), (144, 144, 6)):
        want = [s for s in listed if spec_ess_gap(3, 3, s)[1] in gaps]
        assert cell_specs(3, 3, gaps, budget=150) == want
        assert len(want) == size


@pytest.mark.parametrize("k,n,budget", [(3, 3, 149), (5, 2, 10**8), (3, 20, 10**8)])
def test_full_gap_listing_refused_like_the_class(k, n, budget):
    with pytest.raises(BudgetError) as want:
        nontrivial_gap_specs(k, n, budget=budget)
    for gaps in cell_gaps(n):
        with pytest.raises(BudgetError) as got:
            cell_specs(k, n, gaps, budget=budget)
        assert str(got.value) == str(want.value)
        assert (got.value.required, got.value.budget) == (want.value.required,
                                                          want.value.budget)


def loop_shape_gathers(k, n):
    """Per partition of n, the multiset index of each point's y_1^l1 ...
    y_r^lr, one point at a time."""
    index = symmetry_index(k, n).index
    return {
        shape: [index[tuple(sorted(itertools.chain.from_iterable(
            (v,) * part for v, part in zip(y, shape))))] for y in iter_points(k, len(shape))]
        for shape, _ in _shape_dag(n)
    }


@pytest.mark.parametrize("k,n", [(2, 2), (2, 7), (3, 3), (3, 5), (4, 3), (4, 4), (5, 2),
                                 (2, 0), (3, 1), (300, 2)])
def test_shape_gathers_equal_loop(k, n):
    want = loop_shape_gathers(k, n)
    # every shape but the root, whose k^n table the walk never gathers
    for shape in list(want)[1:]:
        gather = _shape_gather(k, n, shape)
        assert gather.dtype == np.intp
        assert gather.tolist() == want[shape], shape
    # the root shape's gather is the multiset index of every point
    assert list(symmetry_index(k, n).orbit_of_point) == want[(1,) * n]


def loop_sample_gap2_n4(k, n, count, seed):
    """The structured n = 4 gap-2 draw loop, one Counter per multiset."""
    msets = multisets(k, n)
    out = []
    attempt = 0
    while len(out) < count and attempt < 60 * count:
        rng = random.Random((seed << 28) ^ attempt)
        attempt += 1
        shared = rng.randrange(k)
        pair_val = {}
        for a in range(k):
            pair_val[(a, a)] = shared
        for p in itertools.combinations(range(k), 2):
            pair_val[p] = rng.randrange(k)
        spec = []
        for m in msets:
            counts = Counter(m)
            doubled = next((v for v, c in counts.items() if c >= 2), None)
            if doubled is None:
                spec.append(rng.randrange(k))
            else:
                rest = list(m)
                rest.remove(doubled)
                rest.remove(doubled)
                spec.append(pair_val[tuple(sorted(rest))])
        t = tuple(spec)
        ess, g = spec_ess_gap(k, n, t)
        if ess == n and g == 2:
            out.append(t)
    return out


# 17, -3 and 2**40 make multi-word and negative seeding keys
SEEDS = [0, 1, 2, 3, 4, 5, 17, -3, 2**40]


def _rows(specs):
    return list(map(tuple, specs.tolist()))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gap2_sampler_draws_equal_loop(k, seed):
    got, draws = _sample_gap2_specs(k, 4, 100, seed)
    want = loop_sample_gap2_n4(k, 4, 100, seed)
    assert _rows(got) == want
    assert got.shape == (len(want), math.comb(k + 3, 4))
    assert got.dtype == _values(k, [0]).dtype
    assert len(got) == 100 <= draws < 6000


def test_gap2_sampler_refusal_message_unchanged():
    with pytest.raises(BudgetError) as err:
        _sample_gap2_specs(5, 2, 5, 1)
    assert str(err.value) == (
        "listing requires 1220703000 table entries, over the listing limit of 100000000"
    )


def loop_sample_specs(k, n, count, seed):
    """The uniform spec draw loop, one generator per draw."""
    m = math.comb(k + n - 1, n)
    out = []
    for i in range(count):
        rng = random.Random((seed << 24) ^ i)
        out.append(tuple(rng.randrange(k) for _ in range(m)))
    return out


def loop_sample_raw_tables(k, n, count, seed):
    """The raw-table draw loop, one generator per draw."""
    size = k**n
    out = []
    for i in range(count):
        rng = random.Random((seed << 20) ^ i)
        out.append(tuple(rng.randrange(k) for _ in range(size)))
    return out


@pytest.mark.parametrize(
    "k,n", [(2, 0), (2, 3), (3, 3), (4, 2), (3, 4), (5, 2), (257, 1), (300, 1)])
@pytest.mark.parametrize("seed", [0, 1, 7, 17, -3, 2**40])
def test_seeded_rows_equal_the_draw_loops(k, n, seed):
    specs = _seeded_rows(k, math.comb(k + n - 1, n), 30, seed, 24)
    tables = _seeded_rows(k, k**n, 30, seed, 20)
    assert specs.dtype == tables.dtype == _values(k, [0]).dtype
    assert _rows(specs) == loop_sample_specs(k, n, 30, seed)
    if seed < 0:  # random.Random seeds with |seed|, so the public sampler refuses it
        with pytest.raises(DomainError, match="seed must be at least 0"):
            sample_specs(k, n, 30, seed)
    else:
        assert sample_specs(k, n, 30, seed) == loop_sample_specs(k, n, 30, seed)
    assert _rows(tables) == loop_sample_raw_tables(k, n, 30, seed)
    assert _seeded_rows(k, k**n, 0, seed, 20).shape == (0, k**n)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 257])
def test_short_draw_blocks_carry_on_from_the_same_generator(monkeypatch, k):
    # a block of three outputs keeps at most three values, so nearly every
    # row is drawn on, block after block, past its first one
    monkeypatch.setattr("aritygap.enumeration._DRAW_WORDS", 3)
    n = 2 if k < 257 else 1
    for seed in (0, 17, -3, 2**40):
        specs = _seeded_rows(k, math.comb(k + n - 1, n), 12, seed, 24)
        tables = _seeded_rows(k, k**n, 12, seed, 20)
        assert _rows(specs) == loop_sample_specs(k, n, 12, seed)
        assert _rows(tables) == loop_sample_raw_tables(k, n, 12, seed)
        if k < 257:
            assert _rows(_sample_gap2_specs(k, 4, 20, seed)[0]) == loop_sample_gap2_n4(
                k, 4, 20, seed)


def test_seeded_draws_refuse_a_radix_of_33_bits():
    with pytest.raises(DomainError, match="below 2\\*\\*32"):
        _seeded_rows(2**32, 1, 3, 1, 20)
    assert _seeded_rows(2**32 - 1, 1, 3, 1, 20).tolist() == [
        [random.Random((1 << 20) ^ i).randrange(2**32 - 1)] for i in range(3)]


@pytest.mark.parametrize("k,width", [(2, 1), (5, 1), (2, 4), (3, 4), (4, 3), (2, 16)])
def test_full_space_equals_product(k, width):
    got = _solutions(k, np.arange(width))
    assert list(map(tuple, got.tolist())) == list(itertools.product(range(k), repeat=width))


@pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 6) for n in range(0, 6)])
def test_essential_mask_equals_the_scan(k, n, monkeypatch):
    # rows of every kind of table: random, two-valued, constant and with a
    # single essential position; with a small chunk the rows outnumber
    # _CHUNK // k^n, so they are compared in several parts
    rng = np.random.default_rng(k * 10 + n)
    w = k**n
    rows = [rng.integers(0, k, (6, w)), rng.integers(0, 2, (6, w)),
            np.full((2, w), k - 1)]
    for p in range(n):
        rows.append((np.arange(w) // k ** (n - 1 - p) % k)[None] % 2)
    tabs = _values(k, np.concatenate(rows).tolist()).reshape(-1, w)
    want = [[q + 1 in _essential_positions(k, n, tuple(t)) for q in range(n)]
            for t in tabs.tolist()]
    assert _essential_mask(k, n, tabs).tolist() == want
    monkeypatch.setattr("aritygap.minors._CHUNK", 3 * w)
    assert len(tabs) > 3
    assert _essential_mask(k, n, tabs).tolist() == want
