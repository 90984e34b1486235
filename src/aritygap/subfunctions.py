"""Subfunctions by constant substitution, dominants, and separable sets.

A simple subfunction fixes one essential variable to a constant; the fixed
position is removed from the table (remaining positions keep their order).
The closure iterates this over every essential position and constant. Two
subfunctions are the same when their reduced tables are equal, regardless
of which original positions were fixed; constant subfunctions are
identified by their value alone (normalized to arity 0), which is what
makes the count of constant subfunctions equal the range size.

The order of a subfunction is the longest substitution chain reaching its
reduced table. A set of variables is separable when it is the essential
set of some chain state, mapped back to original positions; the empty set
is always included, and the essential set of f itself (the zero-step
state) counts as separable.

For multiset-determined tables the closure collapses to one state per
multiset of substituted constants, which is what makes exhaustive sweeps
over large symmetric populations affordable; the two paths are
interchangeable and cross-checked by tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

from .core import DomainError, FiniteFunction, PreconditionError
from .minors import _essential_positions, essential_count, identify
from .symmetric import is_symmetric, is_totally_symmetric


@functools.lru_cache(maxsize=1024)
def _restrict_index(k: int, n: int, i: int, c: int) -> tuple[int, ...]:
    step = k ** (n - i)
    return tuple(
        s for base in range(c * step, k**n, step * k) for s in range(base, base + step)
    )


def _restrict_table(k: int, n: int, table: tuple, i: int, c: int) -> tuple:
    # fix 1-based position i to c, dropping the position; a gather through a
    # shared index (map keeps the one-entry result at n = 1 a tuple)
    return tuple(map(table.__getitem__, _restrict_index(k, n, i, c)))


def restrict(f: FiniteFunction, i: int, c: int) -> FiniteFunction:
    """The simple subfunction fixing position i (1-based) to the constant c."""
    if not 1 <= i <= f.n:
        raise DomainError(f"position {i} outside 1..{f.n}")
    if not 0 <= c < f.k:
        raise DomainError(f"constant {c} outside 0..{f.k - 1}")
    return FiniteFunction(f.k, f.n - 1, _restrict_table(f.k, f.n, f.table, i, c))


@dataclass(frozen=True)
class SubfunctionRecord:
    """A reduced subfunction, a representative remaining-variable tuple, and
    the maximal substitution-chain length reaching it."""

    function: FiniteFunction
    remaining_vars: tuple[int, ...]
    max_order: int


@dataclass(frozen=True)
class SeparabilityReport:
    """Separable variable sets of one function, with closure counts."""

    separable_sets: frozenset[frozenset[int]]
    sep_count: int
    sub_count: int


def _canonical_key(k: int, arity: int, table: tuple):
    first = table[0]
    if all(v == first for v in table):
        return ("const", first)
    return ("table", arity, table)


def _build_records(k: int, found: dict) -> tuple[SubfunctionRecord, ...]:
    records = []
    for key, (order, rem) in found.items():
        if key[0] == "const":
            fn = FiniteFunction(k, 0, (key[1],))
        else:
            fn = FiniteFunction(k, key[1], key[2])
        records.append(SubfunctionRecord(fn, tuple(rem), order))
    records.sort(key=lambda r: (r.max_order, r.function.n, r.function.table))
    return tuple(records)


class _Closure:
    __slots__ = ("records", "separable", "sub_count", "sep_count")

    def __init__(self, records, separable):
        self.records = records
        self.separable = separable
        self.sub_count = len(records)
        self.sep_count = len(separable)


def _closure_generic(f: FiniteFunction) -> _Closure:
    k, n = f.k, f.n
    root = (tuple(range(1, n + 1)), f.table)
    seen = {root}
    queue = deque([root])
    separable = {frozenset()}
    found: dict = {}  # canonical key -> [max_order, representative remaining]
    while queue:
        remaining, table = queue.popleft()
        arity = len(remaining)
        order = n - arity
        ess_local = _essential_positions(k, arity, table)
        separable.add(frozenset(remaining[p - 1] for p in ess_local))
        if order > 0:
            key = _canonical_key(k, arity, table)
            entry = found.get(key)
            if entry is None:
                found[key] = [order, remaining]
            elif order > entry[0]:
                entry[0] = order
                entry[1] = remaining
        for p in ess_local:
            rest = remaining[: p - 1] + remaining[p:]
            for c in range(k):
                child = (rest, _restrict_table(k, arity, table, p, c))
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    return _Closure(_build_records(k, found), frozenset(separable))


def _closure_symmetric(f: FiniteFunction) -> _Closure:
    """Closure over multisets of substituted constants.

    Valid only for multiset-determined tables, where restrictions do not
    depend on the position fixed and every non-constant state has all of
    its remaining variables essential.
    """
    k, n = f.k, f.n
    states: dict[tuple, tuple] = {(): f.table}
    queue = deque([()])
    separable = {frozenset()}
    found: dict = {}
    all_positions = tuple(range(1, n + 1))
    while queue:
        mu = queue.popleft()
        table = states[mu]
        arity = n - len(mu)
        order = len(mu)
        first = table[0]
        constant = all(v == first for v in table)
        if not constant:
            m = n - order
            for combo in itertools.combinations(all_positions, m):
                separable.add(frozenset(combo))
        if order > 0:
            key = _canonical_key(k, arity, table)
            rep = tuple(range(order + 1, n + 1))
            entry = found.get(key)
            if entry is None:
                found[key] = [order, rep]
            elif order > entry[0]:
                entry[0] = order
                entry[1] = rep
        if constant or arity == 0:
            continue
        for c in range(k):
            child = tuple(sorted(mu + (c,)))
            if child not in states:
                states[child] = _restrict_table(k, arity, table, 1, c)
                queue.append(child)
    return _Closure(_build_records(k, found), frozenset(separable))


@functools.lru_cache(maxsize=1 << 10)
def _closure_cached(k: int, n: int, table: tuple) -> _Closure:
    f = FiniteFunction(k, n, table)
    if is_totally_symmetric(f):
        return _closure_symmetric(f)
    return _closure_generic(f)


def subfunction_closure(f: FiniteFunction) -> _Closure:
    return _closure_cached(f.k, f.n, f.table)


def all_subfunctions(f: FiniteFunction) -> tuple[SubfunctionRecord, ...]:
    """Every subfunction reachable by iterated essential-variable fixing."""
    return subfunction_closure(f).records


def sub_count(f: FiniteFunction) -> int:
    return subfunction_closure(f).sub_count


def separable_sets(f: FiniteFunction) -> SeparabilityReport:
    """The family of separable variable sets, empty set included."""
    closure = subfunction_closure(f)
    return SeparabilityReport(closure.separable, closure.sep_count, closure.sub_count)


def sub_bound(n: int, k: int) -> int:
    """Upper bound C(k,1) + ... + C(k,n-1) on non-constant subfunction counts."""
    if n < 1:
        raise DomainError(f"arity must be at least 1, got {n}")
    if k < 2:
        raise DomainError(f"radix must be at least 2, got {k}")
    return sum(math.comb(k, i) for i in range(1, n))


def dominants(f: FiniteFunction) -> frozenset[int]:
    """Constants whose substitution in the last position makes f constant.

    Defined for symmetric functions; for arity 1 the condition quantifies
    over an empty prefix, so every constant qualifies.
    """
    if f.n < 1:
        raise PreconditionError("dominants undefined for arity-0 functions")
    if not is_symmetric(f):
        raise PreconditionError("dominants are defined for symmetric functions")
    return frozenset(
        c for c in range(f.k) if restrict(f, f.n, c).is_constant()
    )


def essential_core(f: FiniteFunction) -> FiniteFunction:
    """Drop fictive positions until every remaining variable is essential."""
    g = f
    while True:
        ess = _essential_positions(g.k, g.n, g.table)
        if len(ess) == g.n:
            return g
        fictive = next(p for p in range(1, g.n + 1) if p not in ess)
        g = restrict(g, fictive, 0)


def weak_dominants(f: FiniteFunction) -> frozenset[int]:
    """Constants that are dominants of an identification minor of f.

    The minor identifies the first two essential positions; for a symmetric
    function all identification minors agree up to relabeling, so one
    representative suffices. The dominance test runs on the minor's
    essential core; a core with at most one essential variable makes the
    condition vacuous, so every constant qualifies.
    """
    if not is_symmetric(f):
        raise PreconditionError("weak dominants are defined for symmetric functions")
    ess = sorted(_essential_positions(f.k, f.n, f.table))
    if len(ess) < 2:
        raise PreconditionError("weak dominants need at least 2 essential variables")
    p, q = ess[0], ess[1]
    minor = identify(f, p, q)
    reduced = restrict(minor, p, 0)  # position p is fictive in the minor
    core = essential_core(reduced)
    if core.n <= 1:
        return frozenset(range(f.k))
    return dominants(core)


@dataclass(frozen=True)
class DominantSet:
    """Dominants and weak dominants of one symmetric function."""

    dominants: frozenset[int]
    weak_dominants: frozenset[int]


def dominant_profile(f: FiniteFunction) -> DominantSet:
    dom = dominants(f)
    wdom = weak_dominants(f) if essential_count(f) >= 2 else frozenset()
    return DominantSet(dom, wdom)
