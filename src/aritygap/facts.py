"""Batched facts about chunks of functions, for the suite screens.

A chunk is an (N, C(k+n-1, n)) array of multiset specs, one row per
function, in the canonical multiset order, held in the dtype of
``minors._values``. :class:`SpecFacts` computes, for
every row at once, the facts that the symmetric claims are about:

* (ess, gap) from the "y fictive" / "z fictive" components;
* the order-o restrictions: fixing a multiset mu of o constants maps a spec
  to the spec s_mu(m') = s(m' + mu) over size-(n - o) multisets, one gather
  per (k, n, o); their (ess, gap), the dominants (constant order-1
  restrictions) and the weak dominants (read off the identification minor,
  the shape (2, 1^(n-2)) below);
* the subfunction closure counts: the closure of a multiset-determined
  function has one state per multiset of substituted constants; every state
  it never reaches is constant with a value it already counts, so sub is the
  range size plus the distinct non-constant restrictions of each order, and
  the separable sets are whole levels: every set of n - o variables for each
  order o with a non-constant restriction, and the empty set;
* the identification-shape DAG, walked by ``enumeration._shape_walk`` as
  the census walks it: an iterated identification minor of s is
  F_lambda(y) = s(y_1^l1 ... y_r^lr) up to a relabeling of its variables,
  lambda a partition of n, so the longest merge chain is the gap index, a
  shape's gap is its essential count minus the best among its children,
  and every minor is symmetric exactly when every reached F_lambda is
  symmetric in its essential parts. Only the shapes that some row of the
  chunk reaches are gathered, and never the two largest.

:class:`TableFacts` computes (ess, gap) for a chunk of raw value tables
from their essential masks and the essential masks of their one-step
minors; ess alone reads no minor, so a hypothesis over it leaves the
minors to the instance rows.

``screens.SCREENS`` turns these facts into each population suite's claim;
a census does not import this module.

Gathers are built on first use and cached per (k, n, o), the shapes' per
(k, n, shape) in ``enumeration``; nothing is built at import.
"""

from __future__ import annotations

import functools
from math import comb

import numpy as np

from .enumeration import _constant, _deepest, _shape_walk, _yz_essential
from .minors import _chunks, _essential_mask, _identify_plan, _values
from .symmetric import multisets, symmetry_index


def _ess_gap(k: int, n: int, specs: np.ndarray):
    """(ess, gap) of specs at (k, n) along the last axis, gap -1 for None,
    as the per-spec oracle ``spec_ess_gap`` of ``tests/oracles.py`` gives
    them."""
    const = _constant(specs)
    ess = np.where(const, 0, n).astype(np.int8)
    if n < 2:
        return ess, np.full(const.shape, -1, np.int8)
    y_ess, z_ess = _yz_essential(k, n, specs)
    gap = n - y_ess.astype(np.int8) - (n - 2) * z_ess.astype(np.int8)
    return ess, np.where(const, -1, gap).astype(np.int8)


@functools.lru_cache(maxsize=64)
def _restriction_gather(k: int, n: int, o: int) -> np.ndarray:
    """Entry [mu, m'] is the index of the multiset m' + mu: row mu of a
    gathered spec is the spec of the restriction fixing the constants mu."""
    index = symmetry_index(k, n).index
    return np.array(
        [[index[tuple(sorted(m + mu))] for m in multisets(k, n - o)]
         for mu in multisets(k, o)],
        dtype=np.intp,
    )


def _distinct_codes(rows: np.ndarray, k: int) -> np.ndarray:
    """One int64 code per row of a 2-d array of values below k, equal
    exactly when the rows are equal: base-k digits, re-numbered densely
    whenever another digit could overflow."""
    code = np.zeros(len(rows), dtype=np.int64)
    room = (1 << 62) // k
    top = 0  # an upper bound on the codes so far
    for j in range(rows.shape[1]):
        if top >= room:
            _, code = np.unique(code, return_inverse=True)
            code = code.astype(np.int64).reshape(-1)
            top = len(rows)
        code = code * k + rows[:, j]
        top = top * k + k
    return code


def _distinct_per_row(codes: np.ndarray) -> np.ndarray:
    """Distinct non-negative codes in each row of a 2-d array."""
    codes = np.sort(codes, axis=1)
    new = np.ones(codes.shape, dtype=bool)
    new[:, 1:] = codes[:, 1:] != codes[:, :-1]
    return np.sum(new & (codes >= 0), axis=1)


class SpecFacts:
    """Facts about a chunk of specs at (k, n), each computed on first use."""

    def __init__(self, k: int, n: int, specs):
        self.k = k
        self.n = n
        self.specs = _values(k, specs).reshape(-1, comb(k + n - 1, n))
        self._restrictions: dict[int, np.ndarray] = {}

    @functools.cached_property
    def ess_gap(self) -> tuple[np.ndarray, np.ndarray]:
        """(ess, gap) per row, gap -1 where it is undefined."""
        return _ess_gap(self.k, self.n, self.specs)

    @property
    def ess(self) -> np.ndarray:
        """The essential variables per row: n, or 0 for a constant row."""
        return self.ess_gap[0]

    @functools.cached_property
    def yz_essential(self) -> tuple[np.ndarray, np.ndarray]:
        """Whether y and whether z is essential in the identification minor
        m(y, z_3, ..., z_n) = s({y, y, z_3, ..., z_n}) (n >= 2)."""
        return _yz_essential(self.k, self.n, self.specs)

    def restriction(self, o: int) -> np.ndarray:
        """(N, C(k+o-1, o), C(k+n-o-1, n-o)): the spec of every order-o
        restriction, one per multiset of fixed constants (1 <= o <= n)."""
        if o not in self._restrictions:
            self._restrictions[o] = self.specs[:, _restriction_gather(self.k, self.n, o)]
        return self._restrictions[o]

    def restriction_ess_gap(self, o: int) -> tuple[np.ndarray, np.ndarray]:
        """(ess, gap) of every order-o restriction, (N, C(k+o-1, o)) each."""
        return _ess_gap(self.k, self.n - o, self.restriction(o))

    @functools.cached_property
    def dominants(self) -> np.ndarray:
        """(N, k): whether fixing one variable to c makes the row constant."""
        return _constant(self.restriction(1))

    @functools.cached_property
    def weak_dominants(self) -> np.ndarray:
        """(N, k): the dominants of the essential core of the minor
        m(y, z_3, ..., z_n) = s({y, y, z_3, ..., z_n}); every constant when
        the core has at most one variable. Defined where the core has at
        most one variable or y is fictive, which covers every gap-2 row."""
        k, n = self.k, self.n
        out = np.ones((len(self.specs), k), dtype=bool)
        if n >= 4:
            y_ess, z_ess = self.yz_essential
            index = symmetry_index(k, 3).index
            # the core is h(z) = s({0, 0, z...}); its dominants are the c
            # that make s({0, 0, c, z...}) constant
            h_dom = _constant(self.restriction(3)[:, [index[(0, 0, c)] for c in range(k)]])
            rows = z_ess & ~y_ess
            out[rows] = h_dom[rows]
        return out

    @functools.cached_property
    def closure_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(sub, sep) per row, as the subfunction closure counts them."""
        k, n, specs = self.k, self.n, self.specs
        sub = sum(np.any(specs == v, axis=1) for v in range(k)).astype(np.int64)
        for o in range(1, n):
            r = self.restriction(o)
            codes = _distinct_codes(r.reshape(-1, r.shape[-1]), k).reshape(r.shape[:2])
            sub += _distinct_per_row(np.where(_constant(r), -1, codes))
        sub[_constant(specs)] = 0
        return sub, self.separable_levels @ np.array([comb(n, m) for m in range(n + 1)])

    @functools.cached_property
    def separable_levels(self) -> np.ndarray:
        """(N, n + 1): whether the sets of m variables are separable, per m:
        the empty set always, the n-set when the row is not constant, the
        (n - o)-sets when some order-o restriction is not constant."""
        n = self.n
        levels = np.zeros((len(self.specs), n + 1), dtype=bool)
        levels[:, n] = ~_constant(self.specs)
        for o in range(1, n):
            levels[:, n - o] = np.any(~_constant(self.restriction(o)), axis=1)
        levels[:, 0] = True
        return levels

    @functools.cached_property
    def _shape_tables(self):
        """The chunk's identification-shape walk (``enumeration._shape_walk``):
        per shape that some row reaches, its essential parts, depth,
        essential count and gap."""
        return _shape_walk(self.k, self.n, self.specs)

    @functools.cached_property
    def shapes(self) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]]:
        """(shape, depth, ess, gap) for every reached shape but the root,
        each an (N,) array: the longest merge chain reaching the shape (-1
        on the rows it does not reach), its essential parts and its gap (-1
        below 2 essential parts). Empty for n < 2."""
        return [(shape, s.depth, s.ess, s.gap) for shape, s in self._shape_tables.items()
                if shape != (1,) * self.n]

    @functools.cached_property
    def gap_index(self) -> np.ndarray:
        """The longest merge chain per row (0 below 2 essential variables)."""
        return _deepest(self._shape_tables)

    @functools.cached_property
    def diagonal(self) -> np.ndarray:
        """(N, k): s(c^n) for every constant c."""
        index = symmetry_index(self.k, self.n).index
        return self.specs[:, [index[(c,) * self.n] for c in range(self.k)]]

    def table(self, row: int) -> list[int]:
        """The value table of one row."""
        return self.specs[row, symmetry_index(self.k, self.n).orbit_of_point].tolist()


class TableFacts:
    """Facts about a chunk of value tables at (k, n), an (N, k^n) array."""

    def __init__(self, k: int, n: int, tables):
        self.k = k
        self.n = n
        self.tables = _values(k, tables).reshape(-1, k**n)

    @functools.cached_property
    def minor_masks(self) -> np.ndarray:
        """(N, n(n-1), n), n >= 2: the essential mask of each one-step minor
        x_i := x_j, for the ordered pairs i != j (0-based) in row-major
        order."""
        k, n, tables = self.k, self.n, self.tables
        plan, pairs = _identify_plan(k, n)
        i, j = np.nonzero(pairs)
        return np.concatenate([
            _essential_mask(k, n, tables[p][:, plan[i, j]].reshape(-1, k**n)).reshape(-1, len(i), n)
            for p in _chunks(len(tables), len(i) * k**n)])

    @functools.cached_property
    def _essential(self) -> np.ndarray:
        """(N, n): whether each position is essential in each row."""
        return _essential_mask(self.k, self.n, self.tables)

    @functools.cached_property
    def ess(self) -> np.ndarray:
        """The essential variables per row, read without any minor."""
        return self._essential.sum(axis=1).astype(np.int8)

    @functools.cached_property
    def ess_gap(self) -> tuple[np.ndarray, np.ndarray]:
        """(ess, gap) per row, gap -1 where it is undefined: ess minus the
        most essential variables of a one-step minor x_i := x_j, i != j
        both essential."""
        k, n, mask, ess = self.k, self.n, self._essential, self.ess
        best = np.zeros(len(self.tables), dtype=np.int64)
        if n >= 2:
            i, j = np.nonzero(_identify_plan(k, n)[1])
            counts = self.minor_masks.sum(axis=2)
            best = np.where(mask[:, i] & mask[:, j], counts, -1).max(axis=1)
        return ess, np.where(ess >= 2, ess - best, -1).astype(np.int8)

    def table(self, row: int) -> list[int]:
        """The value table of one row."""
        return self.tables[row].tolist()

