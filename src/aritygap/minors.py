"""Essential variables, identification minors, arity gap and gap index.

Identifying variable x_i with x_j (both essential) produces a minor of the
same arity in which x_i is fictive. The arity gap is ess(f) minus the
largest essential count among minors. Because an identification can only
remove essential variables, the maximum over all iterated minors is
attained after a single step; the single-step computation is used here and
the equivalence with the closure-wide maximum is exercised by tests.

The minor closure of one table is a numpy kernel that walks the reached
minors a round at a time (``_rounds``): one gather through a per-(k, n)
index gives every minor of a whole round. The gap index is the number of
rounds, which is at most m = ess - gap, the most essential variables of a
one-step minor, since each identification makes at least one more
variable fictive. ``gap_index`` and ``gap_profile`` first look for a chain
that loses exactly one essential variable per identification down to 2,
which shows that the index is m (``_tight_chain``, the minors of one table
at a time); only without one do they count the rounds, keeping no minor.
Only ``all_minors`` maps every reached table to its depth.

Variable positions are 1-based throughout the public API (x_1, ..., x_n).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

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
    index = _identify_index(f.k, f.n, f.k ** (f.n - i), f.k ** (f.n - j))
    return FiniteFunction(f.k, f.n, _values(f.k, f.table)[index].tolist())


@dataclass(frozen=True)
class MinorRecord:
    """A minor table together with the longest identification chain to it."""

    function: FiniteFunction
    depth: int


def _values(k: int, table) -> np.ndarray:
    """A table as a numpy array of a dtype that holds 0..k-1."""
    return np.array(table, dtype=np.uint8 if k <= 256 else np.int64)


_CHUNK = 1 << 20  # table entries a closure kernel gathers at once


def _chunks(count: int, width: int):
    """Slices of range(count) whose rows of ``width`` entries fit in a chunk."""
    step = max(1, _CHUNK // width)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _essential_mask(k: int, n: int, tabs: np.ndarray) -> np.ndarray:
    """(m, n): whether each position is essential in each row of the
    (m, k^n) tables ``tabs``. Viewed as (k^p, k * s), s = k^(n-1-p), a
    table has the k slices x_p = 0, ..., k - 1 of each block side by
    side, so p is essential where some slice differs from the one before
    it, the table shifted by s; rows are compared in parts of about
    ``_CHUNK`` entries."""
    out = np.empty((len(tabs), n), dtype=bool)
    for part in _chunks(len(tabs), k**n):
        rows = tabs[part]
        for p in range(n):
            s = k ** (n - 1 - p)
            v = rows.reshape(len(rows), k**p, k * s)
            out[part, p] = (v[:, :, s:] != v[:, :, :-s]).any(axis=(1, 2))
    return out


@functools.lru_cache(maxsize=256)
def _hash_weights(width: int) -> np.ndarray:
    """Fixed pseudo-random odd 64-bit weights, one per entry of a row of
    ``width`` entries (splitmix64 of the entry's place)."""
    z = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) | np.uint64(1)).view(np.int64)


@functools.lru_cache(maxsize=256)
def _powers(k: int, w: int) -> np.ndarray:
    """k^(w-1), ..., k, 1: a table's base-k number as a dot product."""
    return k ** np.arange(w - 1, -1, -1, dtype=np.int64)


def _digits(base: int, width: int) -> np.ndarray:
    """(base^width, width): the base-``base`` digits of 0, ..., base^width - 1,
    most significant first, as intp, which numpy gathers through without a
    cast; for base k, the points of K^width in table order."""
    count = base**width
    return np.indices((base,) * width, dtype=np.intp).reshape(width, count).T


def _group(k: int, tabs: np.ndarray, tie: np.ndarray | None = None,
           span: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """An order of the rows of the tables ``tabs`` (m >= 1, w entries below
    k) that puts equal tables next to each other, those of one table by
    the integers ``tie`` (m,) below ``span`` when given; and, per place in
    that order, whether the table there differs from the one before (True
    at the first).

    When k^w * span fits in 63 bits, a table's base-k number (times span,
    plus its tie) is an exact key. Wider tables are sorted by a 64-bit
    hash of their entries; should two different tables share a hash, by
    their bytes instead, so the grouping is exact either way.
    """
    w = tabs.shape[1]
    if w * (k - 1).bit_length() + (span - 1).bit_length() <= 63:
        key = tabs @ _powers(k, w)
        if tie is not None:
            key = key * span + tie
        order = np.argsort(key, kind="stable")
        s = key[order] // span
        return order, np.concatenate(([True], s[1:] != s[:-1]))
    h = tabs @ _hash_weights(w)
    order = np.argsort(h, kind="stable") if tie is None else np.lexsort((tie, h))
    s = tabs[order]
    new = np.concatenate(([True], (s[1:] != s[:-1]).any(axis=1)))
    hs = h[order]
    if np.any(new[1:] & (hs[1:] == hs[:-1])):
        keys = np.ascontiguousarray(tabs).view(np.dtype((np.void, tabs.itemsize * w)))
        order = np.arange(len(tabs)) if tie is None else np.argsort(tie, kind="stable")
        order = order[np.argsort(keys.ravel()[order], kind="stable")]
        s = tabs[order]
        new = np.concatenate(([True], (s[1:] != s[:-1]).any(axis=1)))
    return order, new


def _distinct(k: int, tabs: np.ndarray) -> np.ndarray:
    """The distinct rows of the tables ``tabs`` (m >= 1, entries below k)."""
    order, new = _group(k, tabs)
    return tabs[order[new]]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One bytes key per row of a 2-d array of non-negative integers (at
    least one column): its entries in big-endian bytes, so keys compare as
    the rows do, entry by entry."""
    big = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return big.view(np.dtype((np.void, big.itemsize * rows.shape[1]))).ravel()


def _collect(parts, make, merge) -> tuple[np.ndarray, ...]:
    """The rows that ``make`` gives for the parts, each a tuple of arrays
    of distinct rows, made distinct together by ``merge``. Held rows are
    merged once they outgrow twice what the last merge kept, so they stay
    within about twice the distinct rows plus a part."""
    held, bound = [], 0
    for part in parts:
        held.append(make(part))
        if len(held) > 1 and sum(len(h[0]) for h in held) > bound:
            held = [merge(*map(np.concatenate, zip(*held)))]
            bound = 2 * len(held[0][0])
    return held[0] if len(held) == 1 else merge(*map(np.concatenate, zip(*held)))


def _identify_index(k: int, n: int, step_i, step_j) -> np.ndarray:
    """The index of a table into its minor x_i := x_j, from the steps
    k^(n-1-i) and k^(n-1-j) of the 0-based positions i and j: ints, or
    arrays that broadcast along a last axis of the k^n entries."""
    # entry m of the minor is entry m + (c_j - c_i) * k^(n-1-i) of the
    # table, c_p = m // k^(n-1-p) mod k
    m = np.arange(k**n)
    return m + (m // step_j % k - m // step_i % k) * step_i


@functools.lru_cache(maxsize=8)
def _identify_plan(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, n, k^n): entry [i, j] indexes a table into its minor x_i := x_j
    (0-based positions), n^2 k^n entries of 8 bytes; and (n, n), whether
    i != j."""
    steps = k ** np.arange(n - 1, -1, -1)
    return _identify_index(k, n, steps[:, None, None], steps[:, None]), ~np.eye(n, dtype=bool)


@functools.lru_cache(maxsize=16)
def _pair_rows(k: int, n: int, ess: tuple[int, ...]) -> np.ndarray:
    """The rows of the identification plan for x_i := x_j, i != j both in
    the 1-based positions ``ess``."""
    plan, _ = _identify_plan(k, n)
    pos = np.array(ess, dtype=np.intp) - 1
    i, j = np.nonzero(~np.eye(len(ess), dtype=bool))
    return plan[pos[i], pos[j]]


@functools.lru_cache(maxsize=4)
def _one_step(f: FiniteFunction) -> tuple[np.ndarray, np.ndarray]:
    """The one-step identification minors of f, which has at least two
    essential variables (x_i := x_j for every ordered pair of them), and
    their essential masks; shared by the gap and the closure."""
    k, n = f.k, f.n
    tabs = _values(k, f.table)[_pair_rows(k, n, _essential_positions(k, n, f.table))]
    mask = _essential_mask(k, n, tabs)
    tabs.flags.writeable = mask.flags.writeable = False
    return tabs, mask


# A round of at most this many tables is walked as it is: removing its
# repeats costs more than walking them.
_SMALL_ROUND = 32


def _next_round(k: int, n: int, tabs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The minors x_i := x_j of the tables ``tabs`` for every pair i != j
    of positions essential in them (``mask``): each once, or as often as
    they come when there are at most ``_SMALL_ROUND``."""
    plan, pairs = _identify_plan(k, n)
    rows, i, j = np.nonzero(mask[:, :, None] & mask[:, None, :] & pairs)
    # one flat gather: row r's entry e is entry r * k^n + e of the rows
    flat, w = tabs.reshape(-1), k**n
    parts = _chunks(len(rows), w)
    if len(parts) <= 1:
        kids = flat[rows[:, None] * w + plan[i, j]]
        return _distinct(k, kids) if len(kids) > _SMALL_ROUND else kids
    return _collect(parts, lambda p: (_distinct(k, flat[rows[p, None] * w + plan[i[p], j[p]]]),),
                    lambda t: (_distinct(k, t),))[0]


def _rounds(f: FiniteFunction):
    """The rounds of the minor closure of f, which has at least two
    essential variables, as (m, k^n) arrays of tables.

    Round d holds the tables that a chain of exactly d identifications
    reaches, each once (a round of at most ``_SMALL_ROUND`` tables as
    often as it was reached); one gather gives round d + 1 from it.
    Every identification makes one more variable fictive, so there are
    fewer rounds than essential variables, and only reached tables are
    ever gathered: the cost follows the size of the closure. Only the
    round in hand is held.
    """
    k, n = f.k, f.n
    tabs, mask = _one_step(f)
    if len(tabs) > _SMALL_ROUND:
        order, new = _group(k, tabs)
        tabs, mask = tabs[order[new]], mask[order[new]]
    most = int(mask.sum(axis=1).max())  # essential variables of the round at most
    while True:
        yield tabs
        if most < 2:
            return
        tabs = _next_round(k, n, tabs, mask)
        # a minor has fewer essential variables than its table
        most -= 1
        if most >= 2:
            mask = _essential_mask(k, n, tabs)
            most = int(mask.sum(axis=1).max())


@functools.lru_cache(maxsize=4)
def _minor_closure(f: FiniteFunction) -> Mapping[tuple, int]:
    """All iterated minor tables mapped to their maximal chain length, for
    ``all_minors``: a table's depth is the last round that holds it.

    Memoised on f, that is on (k, n, table), for the last 4 functions
    only, so a run over many functions keeps none of them. Callers share
    the mapping, so it is read-only.
    """
    if essential_count(f) < 2:
        return MappingProxyType({})
    found: dict[tuple, int] = {}
    for depth, tabs in enumerate(_rounds(f), 1):
        for p in _chunks(len(tabs), f.k**f.n):
            found.update(dict.fromkeys(map(tuple, tabs[p].tolist()), depth))
    return MappingProxyType(found)


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
    return len(ess) - int(_one_step(f)[1].sum(axis=1).max())


def _tight_chain(k: int, n: int, tab: np.ndarray, row: np.ndarray, ess: int,
                 seen: set) -> bool:
    """Whether a chain of identifications from the table ``tab``, with the
    ``ess`` essential positions ``row``, loses exactly one essential
    variable per step down to a table with 2. A depth-first search: the
    minors of the table in hand alone are gathered, and only those with
    one essential variable fewer are followed. A table is expanded at most
    once (``seen``): a table met again had no such chain below it."""
    if ess == 2:
        return True
    key = tab.tobytes()
    if key in seen:
        return False
    seen.add(key)
    kids = _next_round(k, n, tab[None], row[None])
    mask = _essential_mask(k, n, kids)
    return any(_tight_chain(k, n, kids[r], mask[r], ess - 1, seen)
               for r in np.flatnonzero(mask.sum(axis=1) == ess - 1))


def gap_index(f: FiniteFunction) -> int:
    """Maximal identification-chain depth over all minors: the number of
    rounds of the minor closure.

    Let m = ess(f) - gap(f), the most essential variables of a one-step
    minor. A minor has fewer essential variables than its table, so every
    table of round d has at most m - d + 1, and a round follows round d
    only when one of its tables has 2 or more: there are at most m rounds
    (one when m < 2). A chain of identifications that loses exactly one
    variable per step, from a one-step minor with m essential variables
    down to one with 2, reaches round m - 1 with a table that has a
    minor, so the index is then m. Such a chain is looked for first,
    among the minors of the first one-step minor with m essential
    variables (``_tight_chain``); only when none is found are the rounds
    walked and counted.
    """
    if essential_count(f) < 2:
        raise PreconditionError("gap index undefined below 2 essential variables")
    tabs, mask = _one_step(f)
    counts = mask.sum(axis=1)
    r = int(counts.argmax())
    m = int(counts[r])
    if m >= 2 and _tight_chain(f.k, f.n, tabs[r], mask[r], m, set()):
        return m
    return sum(1 for _ in _rounds(f))


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
    g = gap(f)  # the one-step minors, which the rounds start from
    label = (ess, g, f.k) if g >= 2 else None
    return GapProfile(ess, g, gap_index(f), label)
