"""Enumeration of symmetric functions, the gap census and the gap >= 2 class.

The population is the multiset representation (``symmetric.SymmetryIndex``):
a symmetric function of arity n over K is one value per size-n multiset, so
there are k^C(k+n-1, n) of them. The census classifies every one by
(essential count, gap).

For a multiset-determined table the whole profile reduces to equality
patterns on the multiset vector:

* a non-constant multiset-determined function has every variable
  essential (changing one coordinate walks between any two multisets);
* all of its one-step identification minors agree up to relabeling, and
  the minor m(y, z_3, ..., z_n) = F({y, y, z_3, ..., z_n}) is symmetric
  in the z's, so its essential count is [y essential] + (n-2)*[z essential];
* y is fictive iff F is constant on {y, y} + alpha over y for each alpha,
  z is fictive iff F({y, y, z} + alpha) does not depend on z.

Each condition says that F is constant on each component of these groups,
so it has exactly k^c solutions, c_Y, c_Z or c_YZ for both. The components
have closed forms (``_fictive_reps``, ``_component_counts``):

* y fictive: F depends only on the parity of each value's multiplicity,
  as swapping a pair {a, a} for {b, b} keeps a parity vector, and the
  y-groups do only that: c_Y = sum of C(k, j) over j <= n, j = n (mod 2);
* z fictive: at n >= 4, F is constant on the multisets that repeat a value,
  as {y, y, w, w} + gamma links the repeated values y and w (c_Z = C(k, n)
  + 1); at n = 3, per repeated value (c_Z = C(k, 3) + k);
* both: F is constant on all multisets that repeat a value (c_YZ = C(k, n)
  + 1). All-distinct multisets lie in no group.

The census counts every bucket from c_Y, c_Z and c_YZ without visiting a
candidate. The gap >= 2 class is listed for any n >= 2 within the budget
and ``LIST_LIMIT``, cell by cell, by assigning values to the components of
each cell's condition; a caller that needs one gap lists only its cells.
The census reads the gap index of every member off the identification-shape
DAG (``_shape_walk``, which the suite screens read through
``facts.SpecFacts``), a chunk of the listed array at a time. Tests check
the counts and the class against a scan of every candidate, the components
against a union-find over the groups, and the indices against the generic
minor closure.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from math import ceil, comb, log2, sqrt
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .core import (
    BudgetError,
    DomainError,
    _at_least,
    _power,
    check_domain,
)
from .minors import _chunks, _digits, _essential_mask, _row_keys, _values
from .symmetric import spec_to_function, symmetry_index

DEFAULT_BUDGET = 10**8
# Most table entries (members x k^n) a listing of the gap >= 2 class, or a
# sample of raw tables, may span, whatever the budget: the raw-table screens
# gather k^n entries for every row, chunk by chunk (the census and the shape
# screens at most k^(n-1)), and the class jumps from 130 044 members at
# (4, 3) to 48 828 120 at (5, 2). A sample of specs may span as many spec
# entries.
LIST_LIMIT = 10**8


class _Components(NamedTuple):
    """Each multiset's component, numbered in order of first position, and
    that first position: a spec is constant on each component iff
    spec[j] == spec[rep[j]] for every j."""

    label: np.ndarray
    rep: np.ndarray


def _components(key: np.ndarray) -> _Components:
    """One component per distinct key of the multisets."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return _Components(rank[inverse], first[inverse])


@functools.lru_cache(maxsize=64)
def _fictive_reps(k: int, n: int) -> tuple[_Components, _Components, _Components]:
    """The components of "y fictive", "z fictive" and both, read off each
    multiset's sorted values: its parity vector, whether it repeats a value
    and, at n = 3, the value it repeats."""
    rows = symmetry_index(k, n).rows
    own = np.arange(len(rows))
    if n < 2:  # no groups: each multiset is a component of its own
        return (_Components(own, own),) * 3
    places = np.arange(n)
    starts = np.maximum.accumulate(
        np.where(np.diff(rows, axis=1, prepend=-1) != 0, places, 0), axis=1)
    # a value's multiplicity is odd where its run ends an even step past its start
    odd = (np.diff(rows, axis=1, append=k) != 0) & ((places - starts) % 2 == 0)
    parity = _row_keys(np.sort(np.where(odd, rows, k), axis=1))
    repeat = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    both = _components(np.where(repeat, -1, own))
    if n == 2:  # the minor has no z
        z = _Components(own, own)
    elif n == 3:  # the middle value is the repeated one
        z = _components(np.where(repeat, rows[:, 1] - k, own))
    else:
        z = both
    return _components(parity), z, both


def _component_counts(k: int, n: int) -> tuple[int, int, int]:
    """c_Y, c_Z and c_YZ, the component counts of "y fictive", "z fictive"
    and both, in closed form: below n = 2 every multiset is its own."""
    if n < 2:
        return (comb(k + n - 1, n),) * 3
    c_yz = comb(k, n) + 1
    c_z = comb(k + 1, 2) if n == 2 else comb(k, 3) + k if n == 3 else c_yz
    return sum(comb(k, j) for j in range(n % 2, min(n, k) + 1, 2)), c_z, c_yz


def symmetric_spec_count(k: int, n: int) -> int:
    return k ** comb(k + n - 1, n)


def _spec_width(k: int, n: int) -> int:
    """C(k + n - 1, n) spec entries, refused past ``LIST_LIMIT`` before any listing."""
    width = comb(k + n - 1, n)
    if width > LIST_LIMIT:
        raise BudgetError(width, LIST_LIMIT, "spec entries", "listing limit")
    return width


# The most generator outputs ``_draw_rows`` decodes at once, 64 KiB of them.
_DRAW_WORDS = 1 << 14


def _draw_rows(k: int, width: int, seeds) -> np.ndarray:
    """Row i holds the first ``width`` values of
    ``random.Random(seeds[i]).randrange(k)``, as an array of the dtype of
    ``minors._values``.

    CPython draws ``randrange(k)`` as ``getrandbits(b)``, b = k.bit_length(),
    until a value is below k, and ``getrandbits(b)`` for b <= 32 is the top
    b bits of one 32-bit output. So one generator is seeded with each seed
    in turn and read as one ``getrandbits(32 * w)`` block, which holds its
    first w outputs, the first one lowest; the top b bits of the outputs,
    kept where they are below k, are the seed's draws in order. w is the
    expected number of outputs a row needs plus three standard deviations,
    at most ``_DRAW_WORDS``; a row whose block keeps fewer than ``width``
    values is seeded again, read past its block and decoded on, a block at
    a time.
    """
    bits = k.bit_length()
    if bits > 32:
        raise DomainError(f"seeded draws need a radix below 2**32, got {k}")
    out = np.empty((len(seeds), width), dtype=_values(k, [0]).dtype)
    if not width:
        return out
    kept = k / (1 << bits)  # the share of outputs a draw keeps
    words = min(_DRAW_WORDS, ceil((width + 3 * sqrt(width * (1 - kept))) / kept) + 1)

    rng = random.Random()
    # For an int, Random.seed only checks the type and calls this seeding.
    seed = super(random.Random, rng).seed

    def read() -> bytes:  # the next ``words`` outputs of rng, the first lowest
        return rng.getrandbits(32 * words).to_bytes(4 * words, "little")

    def first(s: int) -> bytes:  # the first ``words`` outputs of seed s
        seed(s)
        return read()

    def top(raw: bytes) -> np.ndarray:  # the top ``bits`` bits of each output
        return np.frombuffer(raw, "<u4") >> (32 - bits)

    flat = out.reshape(-1)
    step = max(1, _DRAW_WORDS // words)
    for lo in range(0, len(seeds), step):
        block = seeds[lo : lo + step]
        draws = top(b"".join([first(s) for s in block])).reshape(-1, words)
        keep = draws < k
        rank = np.cumsum(keep, axis=1)  # the draws kept up to each output
        at = np.flatnonzero(keep & (rank <= width))
        flat[(lo + at // words) * width + rank.reshape(-1)[at] - 1] = draws.reshape(-1)[at]
        for i in np.flatnonzero(rank[:, -1] < width):
            first(block[i])
            have = int(rank[i, -1])
            while have < width:
                more = top(read())
                more = more[more < k][: width - have]
                out[lo + i, have : have + len(more)] = more
                have += len(more)
    return out


def _seeded_rows(k: int, width: int, count: int, seed: int, shift: int) -> np.ndarray:
    """``count`` uniformly random rows of ``width`` values below k
    (``_draw_rows``); row i comes from its own generator, seeded with
    (seed << shift) ^ i, one ``randrange(k)`` per entry."""
    return _draw_rows(k, width, [(seed << shift) ^ i for i in range(count)])


def _check_seed(seed: int | None) -> None:
    """Refuse a negative seed: ``random.Random`` seeds with its absolute
    value, so s and -s would draw the same rows."""
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be at least 0, got {seed}")


def sample_specs(k: int, n: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """``count`` uniformly random specs; draw i comes from its own
    generator, seeded with (seed << 24) ^ i (seed >= 0)."""
    _check_seed(seed)
    return _tuples(_seeded_rows(k, comb(k + n - 1, n), count, seed, 24))


def enumerate_symmetric(
    k: int,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
    sample: int | None = None,
    seed: int | None = None,
):
    """Yield symmetric functions, each exactly once (or a seeded sample).

    Exhaustive mode refuses politely when the candidate count exceeds the
    budget; sampling mode requires an explicit seed and yields uniformly
    random multiset assignments.
    """
    if sample is not None:
        if seed is None:
            raise DomainError("sampling mode requires an explicit seed")
        specs = sample_specs(k, n, sample, seed)
    else:
        total = symmetric_spec_count(k, n)
        if total > budget:
            raise BudgetError(total, budget)
        specs = itertools.product(range(k), repeat=comb(k + n - 1, n))
    for spec in specs:
        yield spec_to_function(k, n, spec)


def _constant(a: np.ndarray) -> np.ndarray:
    """Whether each vector along the last axis is constant."""
    return np.all(a == a[..., :1], axis=-1)


def _yz_essential(k: int, n: int, specs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether y and whether z is essential in the identification minor
    m(y, z_3, ..., z_n) = s({y, y, z_3, ..., z_n}) of the specs along the
    last axis (n >= 2)."""
    y, z, _ = _fictive_reps(k, n)
    return tuple(np.any(specs != specs[..., c.rep], axis=-1) for c in (y, z))


def _partitions(n: int, most: int | None = None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _merge(shape: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    rest = [p for q, p in enumerate(shape) if q not in (i, j)]
    return tuple(sorted(rest + [shape[i] + shape[j]], reverse=True))


@functools.lru_cache(maxsize=16)
def _shape_dag(n: int):
    """Partitions of n with more parts first (a topological order of the
    merges, the root (1^n) first), and each one's merges (i, j, child)."""
    shapes = sorted(_partitions(n), key=len, reverse=True)
    return tuple(
        (shape, tuple((i, j, _merge(shape, i, j))
                      for i, j in itertools.combinations(range(len(shape)), 2)))
        for shape in shapes
    )


@functools.lru_cache(maxsize=1024)
def _shape_gather(k: int, n: int, shape: tuple[int, ...]) -> np.ndarray:
    """For a partition of n into r < n parts, the gather whose entry y (a
    point of K^r in table order) is the index of the multiset y_1^l1 ...
    y_r^lr: the table of F_shape, gathered from a spec. Built on first use;
    the root's table is the whole k^n table, which nothing gathers."""
    return symmetry_index(k, n).ranks(np.repeat(_digits(k, len(shape)), shape, axis=1))


class _Shape(NamedTuple):
    """One reached shape of a chunk's walk, (N, ...) arrays: which of its
    parts are essential, the longest merge chain reaching it (-1 on rows it
    does not reach), its essential parts and its gap (-1 below 2 essential
    parts)."""

    mask: np.ndarray
    depth: np.ndarray
    ess: np.ndarray
    gap: np.ndarray


def _shape_walk(k: int, n: int, specs: np.ndarray) -> dict[tuple[int, ...], _Shape]:
    """The identification-shape DAG of a chunk of specs, (N, C(k+n-1, n)).

    An iterated identification minor of s is F_lambda(y) = s(y_1^l1 ...
    y_r^lr) up to a relabeling of its variables, lambda a partition of n,
    and identifying two essential variables merges two essential parts.
    Every path of the table closure lifts to a path of shapes and back, so
    the longest merge chain is the gap index, and a shape's gap is its
    essential count minus the best among the children it merges into.

    The shapes are walked in topological order, and a shape is gathered and
    masked only when some row reaches it. The two largest shapes are never
    gathered: their masks come from the representation. A non-constant
    spec has all n variables essential, and the root's one child, (2,
    1^(n-2)), is the minor m(y, z_3, ..., z_n), whose y and z parts are
    essential as ``_yz_essential`` says. Gives the reached shapes in walk
    order, the root first."""
    rows, root = len(specs), (1,) * n
    masks = {root: np.repeat(~_constant(specs)[:, None], n, axis=1)}
    if n >= 2:
        y, z = _yz_essential(k, n, specs)
        masks[(2,) + (1,) * (n - 2)] = np.column_stack([y] + [z] * (n - 2))
    depth = {root: np.zeros(rows, dtype=np.int64)}
    reached = {}
    for shape, merges in _shape_dag(n):
        d = depth.pop(shape, None)
        if d is None:
            continue
        if shape in masks:
            mask = masks[shape]
        else:
            mask = _essential_mask(k, len(shape), specs[:, _shape_gather(k, n, shape)])
        edges = []  # (rows that merge into child, child)
        for i, j, child in merges:
            active = (d >= 0) & mask[:, i] & mask[:, j]
            if active.any():
                depth[child] = np.maximum(depth.get(child, -1), np.where(active, d + 1, -1))
                edges.append((active, child))
        reached[shape] = mask, d, mask.sum(axis=1), edges
    walk = {}
    for shape, (mask, d, count, edges) in reached.items():
        best = np.full(rows, -1, dtype=np.int64)
        for active, child in edges:  # every child of an edge is reached
            best = np.maximum(best, np.where(active, reached[child][2], -1))
        walk[shape] = _Shape(mask, d, count, np.where(count >= 2, count - best, -1))
    return walk


def _deepest(walk: dict[tuple[int, ...], _Shape]) -> np.ndarray:
    """The gap index per row: the longest merge chain of a shape walk (0
    below 2 essential variables, where only the root is reached)."""
    return np.max([s.depth for s in walk.values()], axis=0)


@dataclass
class Census:
    """Counts of symmetric functions per (essential count, gap) bucket."""

    k: int
    n: int
    population: int
    counts: dict
    ind_distribution: dict
    # specs gap-indexed and the seconds spent counting, listing the class and
    # indexing it; never part of the report
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def nontrivial_count(self) -> int:
        return _nontrivial(self.counts)

    def to_doc(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "population": self.population,
            "counts": [
                {"ess": e, "gap": g, "count": c}
                for (e, g), c in sorted(
                    self.counts.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)
                )
            ],
            "ind_distribution": [
                {"ind": i, "count": c}
                for i, c in sorted(self.ind_distribution.items())
            ],
            "nontrivial_count": self.nontrivial_count,
        }


def _bucket_counts(k: int, n: int) -> dict:
    """(ess, gap) -> count, in closed form: a condition of c components has
    exactly k^c solutions, and inclusion-exclusion over c_Y, c_Z and c_YZ
    splits the non-constant specs into the four (y fictive, z fictive)
    cells."""
    m = comb(k + n - 1, n)
    counts = Counter({(0, None): k})
    if n < 2:
        counts[(n, None)] += k**m - k
        return dict(counts)
    cy, cz, cyz = _component_counts(k, n)
    cells = {
        (True, True): k**cyz - k,
        (True, False): k**cy - k**cyz,
        (False, True): k**cz - k**cyz,
        (False, False): k**m - k**cy - k**cz + k**cyz,
    }
    for (y_f, z_f), c in cells.items():
        if c:
            counts[(n, n - (not y_f) - (n - 2) * (not z_f))] += c
    return dict(counts)


def _nontrivial(counts: dict) -> int:
    return sum(c for (e, g), c in counts.items() if g is not None and g >= 2)


def census(
    k: int,
    n: int,
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    override: bool = False,
) -> Census:
    """Classify every symmetric function of arity n over K by (ess, gap).

    The counts take no scan, so the census runs in one process whatever
    ``workers`` says; the budget still bounds the candidate count. The gap
    index distribution covers the listed gap >= 2 class, refused like every
    listing of it (``_listable_class_size``), and is read off one shape walk
    (``_shape_walk``) per chunk of the class, which gathers only the shapes
    that some member of the chunk reaches, never the root's k^n table nor
    its child's k^(n-1).
    """
    check_domain(k, n)
    width = comb(k + n - 1, n)
    # k >= 2, so k^width is over the budget once width passes its bit length
    if not override and (width > budget.bit_length() or k**width > budget):
        raise BudgetError(_power(k, width), budget)
    total = k ** _spec_width(k, n)
    t0 = perf_counter()
    counts = _bucket_counts(k, n)
    t1 = perf_counter()
    specs = _nontrivial_gap_array(k, n, total)
    t2 = perf_counter()
    ind_dist = Counter()
    # the largest shapes the walk gathers have n - 2 parts, k^(n-2) entries
    for p in _chunks(len(specs), k ** max(n - 2, 0)):
        ind_dist.update(_deepest(_shape_walk(k, n, specs[p])).tolist())
    stats = {"specs_indexed": len(specs), "count_s": t1 - t0, "list_s": t2 - t1,
             "index_s": perf_counter() - t2}
    return Census(k, n, total, counts, dict(ind_dist), stats)


def nontrivial_gap_specs(
    k: int, n: int, *, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """The rows of ``_nontrivial_gap_array`` as tuples."""
    return _tuples(_nontrivial_gap_array(k, n, budget))


def _solutions(k: int, label: np.ndarray) -> np.ndarray:
    """Every spec constant on each component of ``label`` (components
    numbered in order of first position), one row each, in ascending spec
    order: the base-k digits of 0, 1, ... (component 0 most significant)
    are the components' values."""
    c = int(label.max()) + 1
    values = _values(k, range(k))
    digits = [np.tile(np.repeat(values, k ** (c - 1 - d)), k**d) for d in range(c)]
    return np.stack(digits, axis=1)[:, label]


def _fictive(specs: np.ndarray, rep: np.ndarray) -> np.ndarray:
    return np.all(specs == specs[:, rep], axis=1)


def _listable_class_size(k: int, n: int, budget: int, limit: str = "budget") -> int:
    """Size of the gap >= 2 class, k^c_Y - k, plus k^c_Z - k^c_YZ at n >= 3,
    refused before anything is built when it is over the budget or its
    table entries are over ``LIST_LIMIT``; a spec wider than ``LIST_LIMIT``
    is refused first. ``limit`` names the budget in the refusal: "budget"
    for one an option sets, any other name for a fixed one. The class is
    over the budget once c_Y passes its bit length (k^c_Y - k >= 2^(c_Y-1)),
    and such a size past 2^21 bits is named as ``core._power`` names one."""
    _spec_width(k, n)
    if n < 2:  # a gap needs two essential variables
        return 0
    cy, cz, cyz = _component_counts(k, n)
    if cy > budget.bit_length() and cy * log2(k) > 1 << 21:
        # the bits of k^c_Y, one fewer where k is a power of two, and one
        # more at n = 3, where c_Z = c_Y and the class is about twice k^c_Y
        bits = int(cy * log2(k)) + 1 + (n == 3) - (k & (k - 1) == 0)
        raise BudgetError(_at_least(bits), budget, "class members", limit)
    size = k**cy - k + (k**cz - k**cyz if n >= 3 else 0)
    if size > budget:
        raise BudgetError(size, budget, "class members", limit)
    if size * k**n > LIST_LIMIT:
        raise BudgetError(size * k**n, LIST_LIMIT, "table entries", "listing limit")
    return size


def _tuples(specs: np.ndarray) -> list[tuple[int, ...]]:
    members: list[tuple[int, ...]] = []
    for lo in range(0, len(specs), 4096):  # blocks bound the transient lists
        members.extend(zip(*specs[lo : lo + 4096].T.tolist()))
    return members


def _nontrivial_gap_array(
    k: int, n: int, budget: int, limit: str = "budget", gaps: set[int] | None = None
) -> np.ndarray:
    """Multiset specs of every symmetric function with gap at least 2, or
    of the cells of that class whose gap is in ``gaps``, one row each.

    For n >= 3 the class splits into three cells: z fictive alone (gap
    n - 1), y fictive alone (gap 2) and both (gap n); for n = 2 it is the
    y-fictive cell (gap 2). Each cell is listed from its own components,
    less the specs that also meet the other condition, or the constants for
    the both-fictive cell. The budget bounds the whole class's size and
    ``LIST_LIMIT`` its table entries, both checked from the counts before
    anything is built, whatever ``gaps`` selects (``limit`` names the
    budget, as in ``_listable_class_size``).
    Suite witness lists follow the order of this list, so the order is part
    of every report: when the whole domain fits the budget, the cells come
    in the order above, each ascending, as a scan of the domain in batches
    of 2^18 candidates finds them (a class spans several cells only at
    (2, 3), (3, 3) and beyond 10^12 candidates). Beyond the budget the list
    is ascending.
    """
    m = comb(k + n - 1, n)
    if not _listable_class_size(k, n, budget, limit):
        return np.zeros((0, m), dtype=np.uint8)
    y, z, both = _fictive_reps(k, n)
    # each cell: its gap, its components, and the representatives of what
    # its members must not satisfy (the other condition; constancy for both)
    cells = [(n, both, np.zeros(m, dtype=np.intp))]
    if n >= 3:
        cells = [(n - 1, z, y.rep), (2, y, z.rep)] + cells
    parts = []
    for gap, comps, other in cells:
        if gaps is None or gap in gaps:
            specs = _solutions(k, comps.label)
            parts.append(specs[~_fictive(specs, other)])
    specs = np.concatenate(parts) if parts else np.zeros((0, m), dtype=np.uint8)
    if len(parts) > 1 and symmetric_spec_count(k, n) > budget:
        specs = specs[np.lexsort(specs.T[::-1])]  # each cell ascends alone
    return specs
