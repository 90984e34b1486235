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

A chain state is a pair (remaining positions, table); every state of
order o has arity n - o. The closure of one table is read two ways, both
numpy kernels that take the states a level (an order) at a time:

* the counts (``sub_count``, the separable sets) come from one restriction
  plan per (k, n), ``_count_plan``: every partial assignment of the n
  positions, the essential positions of each of their slices of f in one
  gather, and one boolean step per level for those that a chain of
  essential fixings reaches. It is used while the entries it gathers per
  table, 2 n 2^(n-1) (k-1) k^(n-1), number at most ``_PLAN_ENTRIES``;
* the level walk, ``_closure_levels``, gathers only the reached states,
  one gather per level for all of the next level's, in breadth-first
  order. The records (``all_subfunctions``, ``records``) always come from
  it, and so do the counts past the plan's bound, where a structured
  table (a parity, or two essential variables) reaches far fewer states
  than the plan's (k + 1)^n and the walk is the faster.

The tests hold both to the breadth-first walks they are checked against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, FiniteFunction, PreconditionError
from .minors import (
    _chunks,
    _collect,
    _digits,
    _essential_mask,
    _essential_positions,
    _group,
    _values,
    essential_count,
    identify,
)
from .symmetric import is_symmetric


def restrict(f: FiniteFunction, i: int, c: int) -> FiniteFunction:
    """The simple subfunction fixing position i (1-based) to the constant c."""
    if not 1 <= i <= f.n:
        raise DomainError(f"position {i} outside 1..{f.n}")
    if not 0 <= c < f.k:
        raise DomainError(f"constant {c} outside 0..{f.k - 1}")
    index, _ = _restrict_plan(f.k, f.n)
    return FiniteFunction(f.k, f.n - 1, _values(f.k, f.table)[index[i - 1, c]].tolist())


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
    """Counts and separable sets of one closure; its records are built by
    ``build`` when first read."""

    __slots__ = ("_records", "_build", "separable", "sub_count", "sep_count")

    def __init__(self, build, separable, sub_count):
        self._records = None
        self._build = build
        self.separable = separable
        self.sub_count = sub_count
        self.sep_count = len(separable)

    @property
    def records(self) -> tuple[SubfunctionRecord, ...]:
        if self._records is None:
            self._records = self._build()
            self._build = None
        return self._records


@functools.lru_cache(maxsize=64)
def _restrict_plan(k: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """At arity a >= 1: (a, k, k^(a-1)), entry [j, c] indexes a table into
    its restriction x_j := c (0-based j), and (a, a - 1), row j the
    positions other than j."""
    m = np.arange(k**a, dtype=np.intp)
    index = np.stack([m.reshape(k**j, k, -1).transpose(1, 0, 2).reshape(k, -1) for j in range(a)])
    keep = np.array([[q for q in range(a) if q != j] for j in range(a)], dtype=np.intp)
    return index, keep.reshape(a, a - 1)


def _states(k: int, n: int, tabs: np.ndarray, bits: np.ndarray):
    """The distinct (table, remaining positions) rows among ``tabs`` (m, k^a)
    and ``bits`` (m, a), each at its first occurrence and in the order of
    those, and for each whether it counts its table: one state of each
    distinct table does."""
    tie = bits.sum(axis=1)
    order, new = _group(k, tabs, tie, 1 << n)
    t = tie[order]
    keep = new.copy()
    keep[1:] |= t[1:] != t[:-1]
    pick = order[keep]
    first = np.argsort(pick)
    pick = pick[first]
    return tabs[pick], bits[pick], new[keep][first]


def _next_level(k: int, n: int, tabs: np.ndarray, bits: np.ndarray, mask: np.ndarray):
    """The states that fixing one more essential position gives, from the
    states (``tabs``, ``bits``) of one level with their essential masks:
    (tables, remaining positions as bits, whether it counts its table),
    each state once, in the order the breadth-first walk reaches them (the
    values left by fixing the last position in increasing order)."""
    a = bits.shape[1]
    rows, j = np.nonzero(mask)
    if a == 1:
        # fixing the last position leaves a value and no position
        values = np.flatnonzero(np.bincount(tabs[rows].ravel(), minlength=k))
        return (values.astype(tabs.dtype)[:, None], np.zeros((len(values), 0), dtype=np.int64),
                np.ones(len(values), dtype=bool))
    index, keep = _restrict_plan(k, a)

    flat, w = tabs.reshape(-1), k**a

    def make(p):
        kids = flat[rows[p, None, None] * w + index[j[p]]].reshape(-1, k ** (a - 1))
        return _states(k, n, kids, np.repeat(bits[rows[p, None], keep[j[p]]], k, axis=0))

    return _collect(_chunks(len(rows), k**a), make, lambda t, b, _: _states(k, n, t, b))


def _closure_levels(k: int, n: int, table: tuple):
    """The states of the closure of one table, a level at a time: per
    number o of fixed positions, (o, the remaining positions as bits
    1 << p, 0-based, (m, n - o), the tables (m, k^(n-o)), their essential
    masks (m, n - o), whether each counts its table: one state of each
    distinct table does).

    The states of a level are the distinct (remaining positions, table)
    pairs that the breadth-first walk reaches, in the order it reaches
    them: by parent, then fixed position, then constant, each state at its
    first occurrence; at level n, where no position is left, the values in
    increasing order. One gather gives all of the next level's. Only
    reached states are ever gathered, so the cost follows the size of the
    closure.
    """
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))[None]
    tabs = _values(k, table)[None]
    first = np.ones(1, dtype=bool)
    for o in range(n + 1):
        mask = _essential_mask(k, n - o, tabs)
        yield o, bits, tabs, mask, first
        if not mask.any():
            return
        tabs, bits, first = _next_level(k, n, tabs, bits, mask)


@functools.lru_cache(maxsize=1 << 12)
def _position_set(mask: int) -> frozenset[int]:
    """The 1-based positions of the bits of ``mask``."""
    return frozenset(p + 1 for p in range(mask.bit_length()) if mask >> p & 1)


def _level_closure(k: int, n: int, table: tuple) -> _Closure:
    """The closure of one table from the states of its levels. A
    non-constant table of level o has arity n - o, so tables of different
    levels never meet; constants count by value."""
    separable = np.zeros(1 << n, dtype=bool)
    separable[0] = True  # the empty set always counts
    # per state below f: its essential positions, first entry, and whether
    # it is the state that counts its table
    ess = [np.zeros(0, dtype=np.int64)]
    values = [np.zeros(0, dtype=np.intp)]
    first = [np.zeros(0, dtype=bool)]
    for o, bits, tabs, mask, head in _closure_levels(k, n, table):
        e = (mask * bits).sum(axis=1)
        separable[e] = True
        if o:
            ess.append(e)
            values.append(tabs[:, 0])
            first.append(head)
    const = np.concatenate(ess) == 0
    count = np.count_nonzero(np.concatenate(first)[~const]) + np.count_nonzero(
        np.bincount(np.concatenate(values)[const], minlength=k))
    sets = frozenset(map(_position_set, np.flatnonzero(separable).tolist()))
    return _Closure(functools.partial(_level_records, k, n, table), sets, int(count))


def _level_records(k: int, n: int, table: tuple) -> tuple[SubfunctionRecord, ...]:
    """The records of a closure. A record's ``remaining_vars`` are those of
    a state that gives its table: at level n - arity for a non-constant
    table, at the deepest level reaching its value for a constant."""
    found: dict = {}
    for o, bits, tabs, mask, _ in _closure_levels(k, n, table):
        if o == 0:
            continue
        rems = [tuple(b.bit_length() for b in row) for row in bits.tolist()]
        for row, rem, live in zip(tabs.tolist(), rems, mask.any(axis=1).tolist()):
            if live:
                found.setdefault(("table", n - o, tuple(row)), [o, rem])
            else:
                found[("const", row[0])] = [o, rem]
    return _build_records(k, found)


@functools.lru_cache(maxsize=8)
def _count_plan(k: int, n: int):
    """The restriction plan of the closure counts at (k, n). Its states
    are the partial assignments of the n positions, (k + 1)^n of them,
    level o holding the S_o that fix o positions; a state's table is f's
    slice there, of arity a = n - o.

    Returns (pair index, pair bits, state starts, levels). Gathering f
    through the pair index and comparing its two halves gives t[x] != t[x
    with x_p := 0] for every state below level n, free position p and
    point x with x_p != 0; times the pair bits, 1 << p (0-based, of f's
    positions), ``bitwise_or.reduceat`` at the state starts gives the
    essential positions of each such state as bits. Per level: where its
    states start among those, each state's slice of f (S_o, k^a) and its
    first entry, and for o >= 1 its parents (S_o, o), one per fixed
    position q (the state with q free, by its place in level o - 1), and
    the bits of those q. Built on first use and kept for the last 8
    domains.
    """
    steps = k ** np.arange(n - 1, -1, -1)
    codes = (k + 1) ** np.arange(n - 1, -1, -1)
    states = _digits(k + 1, n)  # digit k: the position is free
    level = (states != k).sum(axis=1)
    states = states[np.argsort(level, kind="stable")]
    sizes = np.bincount(level, minlength=n + 1).tolist()
    place = np.empty(len(states), dtype=np.intp)  # a state's code -> its place in its level
    place[states @ codes] = np.concatenate([np.arange(size) for size in sizes])
    bit = np.min_scalar_type((1 << n) - 1).type  # the narrowest dtype of n bits
    sides, bits, starts, levels = ([], []), [], [], []
    lo = 0
    for o, size in enumerate(sizes):
        d, a = states[lo:lo + size], n - o
        free = d == k
        pos = np.nonzero(free)[1].reshape(size, a)
        # intp, which numpy gathers through without a cast
        slices = (np.where(free, 0, d) @ steps)[:, None] + steps[pos] @ _digits(k, a).T
        fixed = np.nonzero(~free)[1].reshape(size, o)
        parents = place[(d @ codes)[:, None] + (k - np.take_along_axis(d, fixed, 1)) * codes[fixed]]
        levels.append((lo, slices, slices[:, 0], parents, np.left_shift(1, fixed).astype(bit)))
        if a:
            # per free position p in turn, the points with x_p != 0, and
            # the same points with x_p := 0, as places in the slice
            axes = [np.arange(k**a).reshape(k**p, k, -1) for p in range(a)]
            pairs = (np.concatenate([v[:, 1:].ravel() for v in axes]),
                     np.concatenate([np.repeat(v[:, :1], k - 1, axis=1).ravel() for v in axes]))
            for side, pair in zip(sides, pairs):
                side.append(slices[:, pair].ravel())
            seg = (k - 1) * k ** (a - 1)
            starts.append(sum(map(len, sides[0][:-1])) + a * seg * np.arange(size))
            bits.append(np.repeat(np.left_shift(1, pos).astype(bit), seg, axis=1).ravel())
        lo += size
    index = np.concatenate(sides[0] + sides[1] + [np.zeros(0, np.intp)])
    return (index, np.concatenate(bits + [np.zeros(0, bit)]),
            np.concatenate(starts + [np.zeros(0, np.intp)]), levels)


# The most entries the restriction plan gathers per table. Within 2^15 the
# plan counted random, symmetric, parity, AND and two-variable tables at
# least as fast as the walk (1.5-3x faster on the analyze classes, a tie at
# n = 2 for k = 50..64), constant tables up to 30 us slower; past it the
# walk overtakes it on structured tables, first on two-variable tables at
# (2, 8), (3, 6) and (4, 5), and on every kind at n = 2 from k = 100.
_PLAN_ENTRIES = 1 << 15


def _plan_fits(k: int, n: int) -> bool:
    """Whether the counts at (k, n) come from the restriction plan: when
    its index, 2 n 2^(n-1) (k-1) k^(n-1) entries, is at most
    ``_PLAN_ENTRIES``."""
    return 2 * n * (k - 1) * (2 * k) ** max(n - 1, 0) <= _PLAN_ENTRIES


def _plan_closure(k: int, n: int, table: tuple) -> _Closure:
    """The closure counts of one table from the restriction plan: the
    essential positions of every state in one gather, then a boolean step
    per level for the states that a chain of essential fixings reaches.
    These are the states of the walk, so a non-constant table counts once
    per level it is reached at, and a constant once by value."""
    index, pair_bits, starts, levels = _count_plan(k, n)
    v = _values(k, table)
    t = v[index]
    half = len(t) // 2
    ess = np.bitwise_or.reduceat((t[:half] != t[half:]) * pair_bits, starts)
    separable = np.zeros(1 << n, dtype=bool)
    separable[0] = True  # the empty set always counts
    reached = np.ones(1, dtype=bool)
    count, values = 0, [v[:0]]
    for o, (lo, slices, first, parents, fixed) in enumerate(levels):
        if o:
            reached = (e[parents] & fixed).any(axis=1)
        if o == n:  # fixing every position leaves constants
            values.append(v[first[reached]] if o else v[:0])
            break
        e = ess[lo:lo + len(first)] * reached  # 0 where not reached
        separable[e] = True
        live = e != 0
        if o:
            values.append(v[first[reached & ~live]])
            tabs = v[slices[live]]
            count += int(_group(k, tabs)[1].sum()) if len(tabs) > 1 else len(tabs)
        if not live.any():
            break
    # (np.unique would import numpy.ma on its first call, some 15 ms)
    count += np.count_nonzero(np.bincount(np.concatenate(values)))
    sets = frozenset(map(_position_set, np.flatnonzero(separable).tolist()))
    return _Closure(functools.partial(_level_records, k, n, table), sets, int(count))


@functools.lru_cache(maxsize=1 << 10)
def _closure_cached(k: int, n: int, table: tuple) -> _Closure:
    if _plan_fits(k, n):
        return _plan_closure(k, n, table)
    return _level_closure(k, n, table)


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
    # column c of the table as (k^(n-1), k) is its restriction x_n := c
    slices = _values(f.k, f.table).reshape(-1, f.k)
    return frozenset(np.flatnonzero((slices == slices[0]).all(axis=0)).tolist())


def essential_core(f: FiniteFunction) -> FiniteFunction:
    """Drop fictive positions until every remaining variable is essential:
    one index fixes every fictive position to 0."""
    ess = _essential_positions(f.k, f.n, f.table)
    if len(ess) == f.n:
        return f
    point = tuple(slice(None) if p in ess else 0 for p in range(1, f.n + 1))
    core = _values(f.k, f.table).reshape((f.k,) * f.n)[point]
    return FiniteFunction(f.k, len(ess), core.ravel().tolist())


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
    core = essential_core(identify(f, ess[0], ess[1]))
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
