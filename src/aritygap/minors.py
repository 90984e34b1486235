"""Essential variables, identification minors, arity gap and gap index.

Identifying variable x_i with x_j (both essential) produces a minor of the
same arity in which x_i is fictive. The arity gap is ess(f) minus the
largest essential count among minors. Because an identification can only
remove essential variables, the maximum over all iterated minors is
attained after a single step; the single-step computation is used here and
the equivalence with the closure-wide maximum is exercised by tests.

Variable positions are 1-based throughout the public API (x_1, ..., x_n).
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .core import DomainError, FiniteFunction, PreconditionError


@functools.lru_cache(maxsize=1 << 15)
def _essential_positions(k: int, n: int, table: tuple) -> tuple[int, ...]:
    ess = []
    size = len(table)
    for i in range(n):
        step = k ** (n - 1 - i)
        block = step * k
        hit = False
        for base in range(0, size, block):
            for off in range(base, base + step):
                first = table[off]
                for r in range(1, k):
                    if table[off + r * step] != first:
                        hit = True
                        break
                if hit:
                    break
            if hit:
                break
        if hit:
            ess.append(i + 1)
    return tuple(ess)


def essential_variables(f: FiniteFunction) -> frozenset[int]:
    """Positions (1-based) whose value can change the function's output."""
    return frozenset(_essential_positions(f.k, f.n, f.table))


def essential_count(f: FiniteFunction) -> int:
    return len(_essential_positions(f.k, f.n, f.table))


@functools.lru_cache(maxsize=1024)
def _identify_getter(k: int, n: int, i: int, j: int) -> operator.itemgetter:
    # entry m of the minor is entry m + (c_j - c_i) * k^(n-1-i) of the table
    step_i = k ** (n - 1 - i)
    step_j = k ** (n - 1 - j)
    return operator.itemgetter(
        *(m + ((m // step_j) % k - (m // step_i) % k) * step_i for m in range(k**n))
    )


def _identify_table(k: int, n: int, table: tuple, i: int, j: int) -> tuple:
    # x_i := x_j on 0-based positions i, j; a gather of k^n >= 2 entries,
    # so the getter returns a tuple
    return _identify_getter(k, n, i, j)(table)


def identify(f: FiniteFunction, i: int, j: int) -> FiniteFunction:
    """The identification minor substituting x_j for x_i.

    Both variables must be essential; the result keeps arity n and x_i is
    fictive in it.
    """
    if i == j:
        raise DomainError("cannot identify a variable with itself")
    for pos in (i, j):
        if not 1 <= pos <= f.n:
            raise DomainError(f"position {pos} outside 1..{f.n}")
    ess = _essential_positions(f.k, f.n, f.table)
    for pos in (i, j):
        if pos not in ess:
            raise PreconditionError(
                f"variable x_{pos} is not essential; minors are defined only "
                f"for essential pairs"
            )
    return FiniteFunction(f.k, f.n, _identify_table(f.k, f.n, f.table, i - 1, j - 1))


@dataclass(frozen=True)
class MinorRecord:
    """A minor table together with the longest identification chain to it."""

    function: FiniteFunction
    depth: int


@functools.lru_cache(maxsize=4)
def _minor_closure(f: FiniteFunction) -> Mapping[tuple, int]:
    """All iterated minor tables mapped to their maximal chain length.

    Memoised on f, that is on (k, n, table), for the last 4 functions
    only: a check that asks about one table twice (the gap index and then
    the minors of f) builds the closure once, while a run over many
    functions keeps none of them. Callers share the mapping, so it is
    read-only.
    """
    k, n, table = f.k, f.n, f.table
    children: dict[tuple, set[tuple]] = {}
    seen: set[tuple] = {table}
    queue = deque([table])
    while queue:
        tab = queue.popleft()
        kids = set()
        ess = _essential_positions(k, n, tab)
        for i in ess:
            for j in ess:
                if i == j:
                    continue
                child = _identify_table(k, n, tab, i - 1, j - 1)
                kids.add(child)
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        children[tab] = kids
    # Longest path; every edge strictly reduces the essential count, so
    # sorting by essential count descending is a topological order.
    depth = {tab: 0 for tab in seen}
    order = sorted(seen, key=lambda t: -len(_essential_positions(k, n, t)))
    for tab in order:
        d = depth[tab]
        for child in children[tab]:
            if d + 1 > depth[child]:
                depth[child] = d + 1
    depth.pop(table, None)
    return MappingProxyType(depth)


def all_minors(f: FiniteFunction) -> tuple[MinorRecord, ...]:
    """Every iterated identification minor with its maximal chain depth."""
    depths = _minor_closure(f)
    records = [
        MinorRecord(FiniteFunction(f.k, f.n, tab), d) for tab, d in depths.items()
    ]
    records.sort(key=lambda r: (r.depth, r.function.table))
    return tuple(records)


def gap(f: FiniteFunction) -> int:
    """The essential arity gap, from single-step minors."""
    ess = _essential_positions(f.k, f.n, f.table)
    if len(ess) < 2:
        raise PreconditionError(
            f"arity gap undefined: only {len(ess)} essential variable(s)"
        )
    best = 0
    for i in ess:
        for j in ess:
            if i == j:
                continue
            child = _identify_table(f.k, f.n, f.table, i - 1, j - 1)
            m = len(_essential_positions(f.k, f.n, child))
            if m > best:
                best = m
    return len(ess) - best


def gap_index(f: FiniteFunction) -> int:
    """Maximal identification-chain depth over all minors."""
    if essential_count(f) < 2:
        raise PreconditionError("gap index undefined below 2 essential variables")
    return max(_minor_closure(f).values())


@dataclass(frozen=True)
class GapProfile:
    """ess, gap, gap index and the (ess, gap, k) class label of one function."""

    ess: int
    gap: int | None
    index: int | None
    class_label: tuple[int, int, int] | None


def gap_profile(f: FiniteFunction) -> GapProfile:
    """Bundle essential count, gap, gap index and class label.

    gap and index are None when fewer than two variables are essential; the
    class label (m, p, k) is present exactly when the gap is non-trivial
    (at least 2).
    """
    ess = essential_count(f)
    if ess < 2:
        return GapProfile(ess, None, None, None)
    depths = _minor_closure(f)
    k, n = f.k, f.n
    one_step_best = max(
        len(_essential_positions(k, n, tab)) for tab, d in depths.items() if d == 1
    )
    g = ess - one_step_best
    ind = max(depths.values())
    label = (ess, g, f.k) if g >= 2 else None
    return GapProfile(ess, g, ind, label)
