"""The gather-index table kernels against the per-entry loops they replaced.

The loop versions below are kept verbatim as oracles: an identification, a
restriction and the symmetric (ess, gap) test must give the same tables and
the same answers, on every position pair and constant, for k in 2..4 and
n in 0..4.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aritygap import FiniteFunction, DomainError
from aritygap.enumeration import (
    _fictive_reps,
    nontrivial_gap_specs,
    spec_ess_gap,
)
from aritygap.minors import _identify_table
from aritygap.subfunctions import _restrict_table

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


def loop_restrict_table(k, n, table, i, c):
    # fix 1-based position i to c, dropping the position
    step = k ** (n - i)
    block = step * k
    out = []
    for base in range(0, len(table), block):
        s = base + c * step
        out.extend(table[s : s + step])
    return tuple(out)


def loop_spec_ess_gap(k, n, spec):
    first = spec[0]
    if all(v == first for v in spec):
        return 0, None
    if n < 2:
        return n, None
    y_rep, z_rep, _ = _fictive_reps(k, n)
    y_ess = any(spec[j] != spec[r] for j, r in enumerate(y_rep))
    z_ess = any(spec[j] != spec[r] for j, r in enumerate(z_rep))
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
    table = data.draw(tables(k, n))
    for i, j in itertools.product(range(n), repeat=2):
        got = _identify_table(k, n, table, i, j)
        assert type(got) is tuple
        assert got == loop_identify_table(k, n, table, i, j)


@pytest.mark.parametrize("k,n", DOMAINS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_restrict_table_equals_loop(k, n, data):
    table = data.draw(tables(k, n))
    for i, c in itertools.product(range(1, n + 1), range(k)):
        got = _restrict_table(k, n, table, i, c)
        assert type(got) is tuple
        assert len(got) == k ** (n - 1)
        assert got == loop_restrict_table(k, n, table, i, c)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_restrict_to_single_entry_is_a_tuple(k):
    table = tuple(range(k))
    for c in range(k):
        assert _restrict_table(k, 1, table, 1, c) == (c,)


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
