import hashlib
import itertools
import math
from collections import Counter

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aritygap import (
    BudgetError,
    DomainError,
    census,
    enumerate_symmetric,
    gap_profile,
    nontrivial_gap_specs,
    spec_to_function,
    symmetric_spec_count,
)
from aritygap.enumeration import (
    LIST_LIMIT,
    _bucket_counts,
    _component_counts,
    _fictive_reps,
    _nontrivial,
    _nontrivial_gap_array,
    _shape_walk,
    sample_specs,
)
from aritygap.minors import _rounds
from oracles import (
    _fictive_groups,
    full_shape_walk,
    gap_n_images,
    spec_ess_gap,
    union_find_reps,
)

_BATCH = 1 << 18


def spec_of_index(k, n, idx):
    """The spec whose base-k digits (first multiset most significant) are idx."""
    m = math.comb(k + n - 1, n)
    digits = []
    for _ in range(m):
        idx, r = divmod(idx, k)
        digits.append(r)
    return tuple(reversed(digits))


def scan_range(k, n, start, stop):
    """Oracle: bucket counts plus non-trivial-gap spec indices for one index
    range, by testing every candidate's y and z groups (numpy, in batches)."""
    m = math.comb(k + n - 1, n)
    y_groups, z_groups = _fictive_groups(k, n)
    counts = Counter()
    nontrivial = []
    weights = np.array([k ** (m - 1 - j) for j in range(m)], dtype=np.int64)
    for lo in range(start, stop, _BATCH):
        hi = min(lo + _BATCH, stop)
        a = np.arange(lo, hi, dtype=np.int64)
        v = ((a[:, None] // weights[None, :]) % k).astype(np.int8)
        const = np.all(v == v[:, :1], axis=1)
        if n < 2:
            nc = int(const.sum())
            counts[(0, None)] += nc
            counts[(n, None)] += len(a) - nc
            continue
        y_fict = np.ones(len(a), dtype=bool)
        for grp in y_groups:
            g0 = v[:, grp[0]]
            for t in grp[1:]:
                y_fict &= v[:, t] == g0
        z_fict = np.ones(len(a), dtype=bool)
        for grp in z_groups:
            g0 = v[:, grp[0]]
            for t in grp[1:]:
                z_fict &= v[:, t] == g0
        ess_n = ~const
        counts[(0, None)] += int(const.sum())
        for y_f, z_f in itertools.product((False, True), repeat=2):
            mask = ess_n & (y_fict == y_f) & (z_fict == z_f)
            c = int(mask.sum())
            if not c:
                continue
            minor_ess = (0 if y_f else 1) + (n - 2) * (0 if z_f else 1)
            g = n - minor_ess
            counts[(n, g)] += c
            if g >= 2:
                nontrivial.extend(int(i) for i in a[mask])
    return counts, nontrivial


# every (k, n) with k in 2..4, n in 0..8 and at most 2^20 candidates
SCANNABLE = [
    (k, n)
    for k in range(2, 5)
    for n in range(0, 9)
    if symmetric_spec_count(k, n) <= 1 << 20
]


def _digest(specs):
    h = hashlib.sha256()
    for s in specs:
        h.update(bytes(s))
    return h.hexdigest()


def census_reference(k, n):
    """Independent census: expand every spec, classify with the generic
    minor machinery."""
    counts = {}
    for f in enumerate_symmetric(k, n):
        p = gap_profile(f)
        key = (p.ess, p.gap)
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_population_counts():
    assert symmetric_spec_count(2, 2) == 8
    assert symmetric_spec_count(3, 3) == 59049
    assert symmetric_spec_count(3, 4) == 14348907
    fns = list(enumerate_symmetric(2, 2))
    assert len(fns) == 8
    assert len({f.table for f in fns}) == 8


def test_enumeration_budget_refusal():
    with pytest.raises(BudgetError) as err:
        list(enumerate_symmetric(4, 3, budget=10**6))
    assert err.value.required == 4**20
    with pytest.raises(BudgetError):
        census(4, 3)


@pytest.mark.parametrize(
    "k,n,message",
    [(1, 3, "radix must be at least 2, got 1"), (3, -1, "arity must be non-negative, got -1")],
)
def test_census_rejects_bad_domain(k, n, message):
    # k = 1 used to give a one-function census, n = -1 to fail inside math.comb
    with pytest.raises(DomainError, match=message):
        census(k, n)


def test_sampling_requires_seed():
    with pytest.raises(DomainError):
        list(enumerate_symmetric(3, 3, sample=5))
    sampled = list(enumerate_symmetric(3, 3, sample=5, seed=1))
    assert len(sampled) == 5
    again = list(enumerate_symmetric(3, 3, sample=5, seed=1))
    assert [f.table for f in sampled] == [f.table for f in again]


def test_sample_specs_seed_scheme():
    specs = sample_specs(3, 4, 50, 7)
    # recorded from the suites' former private copy of the sampler
    assert _digest(specs) == (
        "14a0c5b608c135df107197f13fef29fbe1cb297489f7acdd2a4a6d4a6cf6c71f"
    )
    sampled = enumerate_symmetric(3, 4, sample=50, seed=7)
    assert [f.table for f in sampled] == [spec_to_function(3, 4, s).table for s in specs]


def test_sample_specs_refuses_a_negative_seed():
    # seeds 1 and -1 would share their first row
    with pytest.raises(DomainError, match="seed must be at least 0"):
        sample_specs(3, 3, 5, -1)
    with pytest.raises(DomainError, match="seed must be at least 0"):
        list(enumerate_symmetric(3, 3, sample=5, seed=-1))


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (2, 3)])
def test_census_matches_reference(k, n):
    fast = census(k, n)
    assert fast.counts == census_reference(k, n)
    assert sum(fast.counts.values()) == symmetric_spec_count(k, n)


def test_census_3_3_buckets():
    c = census(3, 3)
    assert c.counts[(3, 3)] == 6
    assert c.counts[(3, 2)] == 144
    assert c.counts[(0, None)] == 3
    assert c.counts[(3, 1)] == 59049 - 144 - 6 - 3
    assert c.ind_distribution == {1: 150}


def test_census_worker_determinism():
    a = census(3, 3, workers=1)
    b = census(3, 3, workers=2)
    assert a.counts == b.counts
    assert a.ind_distribution == b.ind_distribution
    assert a.to_doc() == b.to_doc()


@pytest.mark.parametrize(
    "k,n", [(2, n) for n in range(2, 9)] + [(3, 3), (3, 4), (3, 5), (3, 6)]
)
def test_census_index_equals_the_minor_closure(k, n):
    # the rounds of the per-function minor closure are the oracle of the
    # batched shape DAG, counted without gap_index's tight chain; (3, 6)
    # has index 3, a chain deeper than 2
    oracle = Counter(
        sum(1 for _ in _rounds(spec_to_function(k, n, s))) for s in nontrivial_gap_specs(k, n)
    )
    assert census(k, n, override=True).ind_distribution == oracle


def test_census_index_summed_over_small_chunks(monkeypatch):
    # 3 entries in the largest shape the walk gathers, (3): chunks of 21
    # members, summed into one Counter
    whole = census(3, 3)
    monkeypatch.setattr("aritygap.minors._CHUNK", 64)
    chunked = census(3, 3)
    assert chunked.ind_distribution == whole.ind_distribution == {1: 150}
    assert chunked.stats["specs_indexed"] == 150


def assert_walk_is_the_full_walk(k, n, specs):
    """The walk of the reached shapes against the walk of every shape: the
    same depth on every row, and the same ess and gap wherever the shape
    is reached; a shape it leaves out is reached by no row."""
    walk = _shape_walk(k, n, specs)
    full = full_shape_walk(k, n, specs)
    assert list(walk) == [shape for shape in full if shape in walk]
    for shape, (depth, ess, gap) in full.items():
        if shape not in walk:
            assert (depth < 0).all(), shape
            continue
        got, reached = walk[shape], depth >= 0
        assert reached.any(), shape
        assert np.array_equal(got.depth, depth), shape
        assert np.array_equal(got.ess[reached], ess[reached]), shape
        assert np.array_equal(got.gap[reached], gap[reached]), shape


@pytest.mark.parametrize(
    "k,n", [(2, 3), (3, 3), (4, 3), (3, 4), (2, 5), (3, 5), (3, 6), (4, 4)]
)
def test_shape_walk_of_the_class_is_the_full_walk(k, n):
    assert_walk_is_the_full_walk(k, n, _nontrivial_gap_array(k, n, 10**8))


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2), (2, 4), (2, 5)])
def test_shape_walk_of_uniform_specs_is_the_full_walk(k, n):
    specs = np.array(sample_specs(k, n, 2000, 1))
    kinds = {spec_ess_gap(k, n, tuple(s))[1] for s in specs.tolist()}
    assert {None, 1} <= kinds  # constant and gap-1 rows, not only the class
    assert_walk_is_the_full_walk(k, n, specs)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_fast_profile_matches_generic(data):
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(1, 4))
    m = math.comb(k + n - 1, n)
    spec = tuple(data.draw(st.integers(0, k - 1)) for _ in range(m))
    f = spec_to_function(k, n, spec)
    p = gap_profile(f)
    assert (p.ess, p.gap) == spec_ess_gap(k, n, spec)


def test_spec_index_roundtrip():
    m = math.comb(3 + 3 - 1, 3)
    for idx in (0, 1, 59048, 1234):
        spec = spec_of_index(3, 3, idx)
        back = 0
        for v in spec:
            back = back * 3 + v
        assert back == idx
        assert len(spec) == m


def test_nontrivial_specs_small_scan():
    specs = nontrivial_gap_specs(3, 3)
    assert len(specs) == 150
    gaps = [spec_ess_gap(3, 3, s)[1] for s in specs]
    assert gaps.count(3) == 6
    assert gaps.count(2) == 144


def test_nontrivial_specs_structural_ternary():
    # 4^20 specs is over any scan budget; listed by components, the class
    # must agree with the non-trivial-gap arithmetic: 1020 full-gap +
    # 129024 gap-2, ascending, and the very list the n = 3 structural
    # enumeration gave
    specs = nontrivial_gap_specs(4, 3, budget=10**6)
    assert len(specs) == 130044
    assert specs == sorted(specs)
    gaps = [spec_ess_gap(4, 3, s)[1] for s in specs]
    assert gaps.count(3) == 1020
    assert gaps.count(2) == 129024
    assert _digest(specs) == (
        "fb575330b033e5d8981930fd1e25702278d01d88c533ab88681af84b252af90a"
    )


def test_structural_equals_scan_where_both_available():
    # (3, 3) over a budget that admits the class but not the domain: the
    # ascending listing holds exactly the oracle's members
    _, nontrivial = scan_range(3, 3, 0, symmetric_spec_count(3, 3))
    structural = nontrivial_gap_specs(3, 3, budget=150)
    assert structural == sorted(spec_of_index(3, 3, i) for i in nontrivial)
    with pytest.raises(BudgetError) as err:
        nontrivial_gap_specs(3, 3, budget=149)
    assert err.value.required == 150


@pytest.mark.parametrize("k,n", [
    (k, n) for k in range(2, 9) for n in range(9)
    if n < 2 or math.comb(k + n - 1, n) <= 6000
])
def test_fictive_components_equal_union_find(k, n):
    # the closed forms against the union-find over the groups themselves
    for comps, reps, count in zip(_fictive_reps(k, n), union_find_reps(k, n),
                                  _component_counts(k, n)):
        assert comps.rep.tolist() == list(reps)
        # components numbered in order of first position
        assert comps.label.tolist() == np.unique(reps, return_inverse=True)[1].tolist()
        assert len(set(reps)) == count


def test_class_over_listing_limit_refused():
    # 48 828 120 members under the default budget, but 25 table entries each
    # put the class over LIST_LIMIT; (3, 20) has 78 members of 3^20 entries
    for k, n, size in ((5, 2, 48828120), (3, 20, 78)):
        assert _nontrivial(_bucket_counts(k, n)) == size
        with pytest.raises(BudgetError) as err:
            nontrivial_gap_specs(k, n)
        assert err.value.required == size * k**n
        assert err.value.budget == LIST_LIMIT
    with pytest.raises(BudgetError):
        census(5, 2, override=True)


@pytest.mark.parametrize("k,n", SCANNABLE)
def test_counts_and_class_equal_scan(k, n):
    total = symmetric_spec_count(k, n)
    counts, nontrivial = scan_range(k, n, 0, total)
    assert _bucket_counts(k, n) == dict(counts)
    assert nontrivial_gap_specs(k, n) == [spec_of_index(k, n, i) for i in nontrivial]


def test_nontrivial_specs_gap4_quaternary():
    specs = nontrivial_gap_specs(4, 4)
    assert len(specs) == 65532
    assert specs == sorted(specs)
    gaps = Counter(spec_ess_gap(4, 4, s) for s in specs)
    assert gaps == {(4, 4): 12, (4, 2): 65520}


@pytest.mark.parametrize("k,n,size", [(4, 5, 65532), (3, 5, 78), (3, 6, 78)])
def test_nontrivial_specs_beyond_scan(k, n, size):
    specs = nontrivial_gap_specs(k, n)
    assert len(specs) == size
    assert len(set(specs)) == size
    sample = specs[:: max(1, size // 200)]
    assert all(spec_ess_gap(k, n, s)[1] >= 2 for s in sample)


def test_gap_n_images_counts():
    assert len(gap_n_images(3, 3)) == 6
    assert len(gap_n_images(4, 3)) == 1020
    assert gap_n_images(3, 4) == set()

