"""Essential variables, identification minors, arity gap and gap index.

Identifying variable x_i with x_j (both essential) produces a minor of the
same arity in which x_i is fictive. The arity gap is ess(f) minus the
largest essential count among minors. Because an identification can only
remove essential variables, the maximum over all iterated minors is
attained after a single step; the single-step computation is used here and
the equivalence with the closure-wide maximum is exercised by tests.

The minor closures of a batch of tables are one numpy walk a round at a
time (``_rounds``), from round 0, the tables themselves: one gather through
a per-(k, n) index gives every minor of a round, tagged with the table it
comes from, and each round holds every (tag, table) once. ``_minor_rows``
gives each with its depth, the last round that holds it. The gap index is
the number of rounds after round 0, at most m = ess - gap, the most
essential variables of a one-step minor, since each identification makes
at least one more variable fictive. Within ``_PLAN_ENTRIES``, gap and index
come off a plan over the set partitions of the positions (``_minor_plan``);
past it the gap comes off round 1, and a chain from there that loses one
essential variable per identification down to 2 shows that the index is m
(``_tight_chain``); only without one are the other rounds counted.

Variable positions are 1-based throughout the public API (x_1, ..., x_n).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
def _powers(k: int, w: int) -> np.ndarray:
    """k^(w-1), ..., k, 1: a table's base-k number as a dot product."""
    return k ** np.arange(w - 1, -1, -1, dtype=np.int64)


def _digits(base: int, width: int) -> np.ndarray:
    """(base^width, width): the base-``base`` digits of 0, ..., base^width - 1,
    most significant first, as intp, which numpy gathers through without a
    cast; for base k, the points of K^width in table order."""
    count = base**width
    return np.indices((base,) * width, dtype=np.intp).reshape(width, count).T


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One bytes key per row of a 2-d array of non-negative integers (at
    least one column): its entries in big-endian bytes, so keys compare as
    the rows do, entry by entry."""
    big = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return big.view(np.dtype((np.void, big.itemsize * rows.shape[1]))).ravel()


def _group(k: int, tabs: np.ndarray, tie: np.ndarray | None = None,
           span: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """An order of the rows of the tables ``tabs`` (m >= 1, w entries below
    k) that puts equal tables next to each other, those of one table by
    the integers ``tie`` (m,) below ``span`` when given; and, per place in
    that order, whether the table there differs from the one before (True
    at the first).

    When k^w * span fits in 63 bits, a table's base-k number (times span,
    plus its tie) is an exact key. Wider tables are sorted by their bytes
    (``_row_keys``), then by their ties.
    """
    w = tabs.shape[1]
    if w * (k - 1).bit_length() + (span - 1).bit_length() <= 63:
        key = tabs @ _powers(k, w)
        if tie is not None:
            key = key * span + tie
        order = np.argsort(key, kind="stable")
        s = key[order] // span
        return order, np.concatenate(([True], s[1:] != s[:-1]))
    keys = _row_keys(tabs)
    order = np.argsort(keys) if tie is None else np.lexsort((tie, keys))
    s = keys[order]
    return order, np.concatenate(([True], s[1:] != s[:-1]))


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


# The most entries the restriction plan (``subfunctions._count_plan``) or
# the minor plan gathers per table. Within 2^15 the restriction plan counted
# random, symmetric, parity, AND and two-variable tables at least as fast as
# the walk (1.5-3x faster on the analyze classes), constant tables up to 30
# us slower; past it the walk overtakes it on structured tables, first on
# two-variable tables at (2, 8), (3, 6) and (4, 5), and on every kind at n =
# 2 from k = 100. The minor plan was faster on every kind of table within it.
_PLAN_ENTRIES = 1 << 15


def _zero_pairs(k: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Per position p of K^a in turn, the points with x_p != 0 and x_p := 0."""
    axes = [np.arange(k**a).reshape(k**p, k, -1) for p in range(a)]
    return (np.concatenate([v[:, 1:].ravel() for v in axes]),
            np.concatenate([np.repeat(v[:, :1], k - 1, axis=1).ravel() for v in axes]))


@functools.lru_cache(maxsize=64)
def _minor_plan_entries(k: int, n: int) -> int:
    """2 sum_r S(n, r) r (k-1) k^(r-1), S the Stirling numbers of the
    second kind: the entries the minor plan gathers per table."""
    s = [1]  # S(m, r) for r = 0..m
    for _ in range(n):
        s = [r * a + b for r, (a, b) in enumerate(zip(s + [0], [0] + s))]
    return 2 * sum(s[r] * r * (k - 1) * k ** (r - 1) for r in range(1, n + 1))


@functools.lru_cache(maxsize=8)
def _minor_plan(k: int, n: int):
    """The identification plan at (k, n), n >= 1: chains of
    identifications reach f with the blocks of a set partition of the
    positions set equal (a growth string; in order of depth, n less its
    blocks). Returns the pair index (2, H) of g[y], g[y with y_b := 0] for
    each partition's block table g, block b and y_b != 0; the starts of the
    blocks and of the partitions; per pair of blocks a < b of a partition,
    the two blocks, the partition and the one merging them; the depths."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    strings.sort(key=max, reverse=True)
    place = {s: i for i, s in enumerate(strings)}
    steps = k ** np.arange(n - 1, -1, -1)
    pairs, seg, edges, first = [], [], [], [0]
    for i, s in enumerate(strings):
        r = max(s) + 1
        table = np.equal.outer(range(r), s) @ steps @ _digits(k, r).T  # y_b at block b
        pairs.append(table[np.stack(_zero_pairs(k, r))])
        seg += [(k - 1) * k ** (r - 1)] * r
        edges += [(first[-1] + a, first[-1] + b, i,
                   place[tuple(a if x == b else x - (x > b) for x in s)])
                  for a in range(r) for b in range(a + 1, r)]
        first.append(first[-1] + r)
    return (np.concatenate(pairs, axis=1), np.cumsum([0] + seg[:-1]), np.array(first[:-1]),
            tuple(np.array(edges, dtype=np.intp).reshape(-1, 4).T),
            n - 1 - np.array([max(s) for s in strings]))


@functools.lru_cache(maxsize=8)
def _identify_plan(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, n, k^n): entry [i, j] indexes a table into its minor x_i := x_j
    (0-based positions), n^2 k^n entries of 8 bytes; and (n, n), whether
    i != j."""
    steps = k ** np.arange(n - 1, -1, -1)
    return _identify_index(k, n, steps[:, None, None], steps[:, None]), ~np.eye(n, dtype=bool)


def _next_round(k: int, n: int, tabs: np.ndarray, mask: np.ndarray, tags: np.ndarray):
    """The minors x_i := x_j of the tables ``tabs`` for every pair i != j
    of positions essential in them (``mask``), as (tags, tables): a minor
    takes the tag of its table, and each (tag, table) comes once. The tags
    ascend, and so do the minors'."""
    plan, pairs = _identify_plan(k, n)
    rows, i, j = np.nonzero(mask[:, :, None] & mask[:, None, :] & pairs)
    # one flat gather: row r's entry e is entry r * k^n + e of the rows
    flat, w = tabs.reshape(-1), k**n

    def distinct(tags, kids):  # each (tag, table) once, in the order they first come
        # a dict of row bytes per tag, as tags ascend: a sort (``_group``) or tuple keys was slower
        edges = [0, *(np.flatnonzero(np.diff(tags)) + 1).tolist(), len(tags)]
        keep = [r for lo, hi in zip(edges, edges[1:]) for r in
                dict(zip(map(np.ndarray.tobytes, kids[lo:hi]), range(lo, hi))).values()]
        return tags[keep], kids[keep]

    return _collect(_chunks(len(rows), w), lambda p: distinct(
        tags[rows[p]], flat[rows[p, None] * w + plan[i[p], j[p]]]), distinct)


def _rounds(k: int, n: int, tabs: np.ndarray):
    """The rounds of the minor closures of the (m, k^n) tables ``tabs``, as
    (tags, tables), a minor tagged with the row of ``tabs`` it comes from.
    Round 0 is ``tabs``; one gather of round d gives round d + 1, each (tag,
    table) that exactly d + 1 identifications reach, once. Rounds 1, 2, ...
    are yielded, fewer than the essential variables, as each identification
    makes one more fictive; only the round in hand is held."""
    tags = np.arange(len(tabs))
    mask = _essential_mask(k, n, tabs)
    most = int(mask.sum(axis=1).max(initial=0))  # essential variables of the round at most
    while most >= 2:
        tags, tabs = _next_round(k, n, tabs, mask, tags)
        yield tags, tabs
        # a minor has fewer essential variables than its table
        most -= 1
        if most >= 2:
            mask = _essential_mask(k, n, tabs)
            most = int(mask.sum(axis=1).max())


def _minor_rows(k: int, n: int, tabs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every iterated identification minor of each of the (m, k^n) tables
    ``tabs``: the row of ``tabs`` it comes from, its depth (the longest
    chain to it, the last round that holds it) and its table, (T,), (T,)
    and (T, k^n), by row, then depth, then table."""
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), tabs[:0])]
    parts += [(t, np.full(len(t), d), r) for d, (t, r) in enumerate(_rounds(k, n, tabs), 1)]
    tag, depth, tables = map(np.concatenate, zip(*parts))
    keys = _row_keys(tables)
    # each (tag, table) once, from the last round that holds it
    last = {(t, key): m for m, (t, key) in enumerate(zip(tag.tolist(), keys.tolist()))}
    keep = np.array(list(last.values()), dtype=np.intp)
    keep = keep[np.lexsort((keys[keep], depth[keep], tag[keep]))]
    return tag[keep], depth[keep], tables[keep]


def all_minors(f: FiniteFunction) -> tuple[MinorRecord, ...]:
    """Every iterated identification minor with its maximal chain depth."""
    _, depth, tables = _minor_rows(f.k, f.n, _values(f.k, f.table)[None])
    return tuple(MinorRecord(FiniteFunction(f.k, f.n, t), d)
                 for t, d in zip(tables.tolist(), depth.tolist()))


def gap(f: FiniteFunction) -> int:
    """The essential arity gap, from single-step minors."""
    ess = _essential_positions(f.k, f.n, f.table)
    if len(ess) < 2:
        raise PreconditionError(
            f"arity gap undefined: only {len(ess)} essential variable(s)"
        )
    return _gap_and_index(f, index=False)[0]


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
    _, kids = _next_round(k, n, tab[None], row[None], np.zeros(1, dtype=np.intp))
    mask = _essential_mask(k, n, kids)
    return any(_tight_chain(k, n, kids[r], mask[r], ess - 1, seen)
               for r in np.flatnonzero(mask.sum(axis=1) == ess - 1))


def _gap_and_index(f: FiniteFunction, index: bool = True) -> tuple[int, int | None]:
    """The gap of f (ess >= 2) and, if ``index``, its gap index: the
    deepest partition reached on the minor plan. Past it, with m = ess -
    gap, round d has at most m - d + 1 essential variables, so at most m
    rounds; a chain from the best minor of round 1 losing one per
    identification down to 2 (``_tight_chain``) shows m, else the walk
    that gave round 1 counts the rest."""
    k, n = f.k, f.n
    if _minor_plan_entries(k, n) <= _PLAN_ENTRIES:
        pairs, starts, first, (a, b, parent, child), depth = _minor_plan(k, n)
        t = _values(k, f.table)[pairs]
        ess = np.logical_or.reduceat(t[0] != t[1], starts)
        live, reached = ess[a] & ess[b], depth == 0
        for _ in range(n - 1):
            reached[child[live & reached[parent]]] = True
        counts, one = np.add.reduceat(ess, first, dtype=np.intp), slice(1, 1 + n * (n - 1) // 2)
        return int(counts[0] - (counts[one] * reached[one]).max()), int(depth[reached][-1])
    rounds = _rounds(k, n, _values(k, f.table)[None])
    _, tabs = next(rounds)
    mask = _essential_mask(k, n, tabs)
    r = int(mask.sum(axis=1).argmax())
    m = int(mask[r].sum())
    if not index or m >= 2 and _tight_chain(k, n, tabs[r], mask[r], m, set()):
        return essential_count(f) - m, m if index else None
    return essential_count(f) - m, 1 + sum(1 for _ in rounds)


def gap_index(f: FiniteFunction) -> int:
    """Maximal identification-chain depth over all minors: the number of
    rounds of the minor closure."""
    if essential_count(f) < 2:
        raise PreconditionError("gap index undefined below 2 essential variables")
    return _gap_and_index(f)[1]


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
    g, index = _gap_and_index(f)
    return GapProfile(ess, g, index, (ess, g, f.k) if g >= 2 else None)
