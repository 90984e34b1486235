"""Symmetry testing, multiset representation, and normal-form constructors.

A function is symmetric when its table is invariant under every permutation
of its essential positions (fictive positions are exempt). A non-constant
function that is invariant under all of S_n is determined by one value per
size-n multiset over K; ``SymmetricSpec`` is that representation and drives
enumeration. ``SymmetryIndex`` (``symmetry_index``) is the one map between
table points and multisets: expansion, compression, the total-symmetry test,
the census and the suite screens all read it.

The constructors build the classified families:

* ``construct_gap_n``: value a0 on every point with a repeated coordinate,
  one value per n-element value set on the all-distinct points. Any such
  function with not-all-equal coefficients has all variables essential and
  gap equal to its essential arity.
* ``construct_gap2_ternary``: the two ternary gap-2 families. On a point
  with value pattern {c, c, d} the "minority" family reads its coefficient
  off the lone value d, the "majority" family off the doubled value c.
  Each form is one gather from its coefficients (``_gap_n_plan``,
  ``_ternary_plan``), which the classification suites read as well.
* ``construct_linear``: the table of a1*x1 + ... + an*xn + c mod k.
* ``recompose`` / ``extract_decomposition``: the pairwise-conjunction
  decomposition f = (sum over equal pairs i<j of g on the remaining
  coordinates) + h, with h vanishing on every repeated-coordinate point.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DecompositionError,
    DomainError,
    FiniteFunction,
    PreconditionError,
)
from .minors import (_digits, _essential_positions, _powers, _row_keys, _values, essential_count,
                     gap, gap_index, gap_profile)


def multisets(k: int, n: int) -> list[tuple[int, ...]]:
    """Size-n multisets over K as sorted tuples, lexicographically ordered."""
    return list(itertools.combinations_with_replacement(range(k), n))


@functools.lru_cache(maxsize=256)
def _swap_getter(k: int, n: int, a: int, b: int):
    # entry m of the table with the 0-based positions a and b swapped
    step_a = k ** (n - 1 - a)
    step_b = k ** (n - 1 - b)
    # k^n >= 2 entries, so the getter returns a tuple
    return operator.itemgetter(
        *(m + ((m // step_b) % k - (m // step_a) % k) * (step_a - step_b) for m in range(k**n))
    )


def _swap_invariant(f: FiniteFunction, a: int, b: int) -> bool:
    # a, b are 0-based positions
    return _swap_getter(f.k, f.n, a, b)(f.table) == f.table


def is_symmetric(f: FiniteFunction) -> bool:
    """Invariance under all permutations of the essential positions."""
    ess = sorted(_essential_positions(f.k, f.n, f.table))
    for a, b in zip(ess, ess[1:]):
        if not _swap_invariant(f, a - 1, b - 1):
            return False
    return True


@dataclass(frozen=True)
class SymmetryIndex:
    """The multiset representation at one (k, n), in arrays: the size-n
    multisets in canonical order, their ranks, and the gathers between a
    table and its one value per multiset. The only map to multisets."""

    k: int
    n: int

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """(C(k+n-1, n), n): each multiset's values, sorted, one row each."""
        k, n = self.k, self.n
        width = math.comb(k + n - 1, n)
        values = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(k), n))
        return np.fromiter(values, dtype=np.int64, count=width * n).reshape(width, n)

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """The table index of each multiset's sorted point, ascending: the
        gather of a multiset-determined table's spec."""
        return self.rows @ _powers(self.k, self.n)

    @functools.cached_property
    def distinct(self) -> np.ndarray:
        """Whether each multiset has n distinct values."""
        return np.all(self.rows[:, 1:] != self.rows[:, :-1], axis=1)

    @functools.cached_property
    def _after(self) -> np.ndarray:
        """(n + 1, k): [r, a] counts the size-r multisets over a + 1..k-1."""
        k, n = self.k, self.n
        after = np.zeros((n + 1, k), dtype=np.int64)
        after[0] = 1
        for r in range(1, n + 1):
            after[r, :k - 1] = np.cumsum(after[r - 1, :k - 1][::-1])[::-1]
        return after

    def ranks(self, values: np.ndarray) -> np.ndarray:
        """The index of the multiset of each row of ``values`` (n values
        below k on the last axis), exact whatever k^n is: after a_0 <= ... <=
        a_(n-1) come, per place i, the multisets that exceed a_i first at i."""
        ordered = np.sort(values, axis=-1)
        rank = np.full(ordered.shape[:-1], math.comb(self.k + self.n - 1, self.n) - 1)
        for i in range(self.n):
            rank -= self._after[self.n - i][ordered[..., i]]
        return rank

    @functools.cached_property
    def orbit_of_point(self) -> np.ndarray:
        """Multiset index of each of the k^n table points, built on first
        use: the gather of a spec into its table."""
        orbit = self.ranks(_digits(self.k, self.n))
        orbit.flags.writeable = False
        return orbit


symmetry_index = functools.lru_cache(maxsize=64)(SymmetryIndex)


def spec_to_function(k: int, n: int, spec: tuple[int, ...]) -> FiniteFunction:
    """Expand a multiset value tuple (canonical order) to a full table."""
    return FiniteFunction(k, n, np.asarray(spec)[symmetry_index(k, n).orbit_of_point].tolist())


def is_totally_symmetric(f: FiniteFunction) -> bool:
    """Whether the table depends only on the multiset of coordinates: the
    expansion of its entries at the sorted points is the table."""
    idx = symmetry_index(f.k, f.n)
    table = _values(f.k, f.table)
    return np.array_equal(table[idx.codes][idx.orbit_of_point], table)


@dataclass
class SymmetricSpec:
    """A symmetric function given by one value per size-n multiset over K."""

    k: int
    n: int
    values: dict[tuple[int, ...], int]

    def __post_init__(self):
        expected = multisets(self.k, self.n)
        if set(self.values) != set(expected):
            raise DomainError(
                f"spec must assign exactly the {len(expected)} size-{self.n} "
                f"multisets over 0..{self.k - 1}"
            )
        for v in self.values.values():
            if not 0 <= v < self.k:
                raise DomainError(f"value {v} outside 0..{self.k - 1}")

    def as_tuple(self) -> tuple[int, ...]:
        """Values in the canonical multiset order."""
        return tuple(self.values[m] for m in multisets(self.k, self.n))


def expand(spec: SymmetricSpec) -> FiniteFunction:
    """The value table assigning each point the value of its sorted multiset."""
    return spec_to_function(spec.k, spec.n, spec.as_tuple())


def compress(f: FiniteFunction) -> SymmetricSpec:
    """Inverse of :func:`expand`; requires a multiset-determined table."""
    if not is_totally_symmetric(f):
        raise PreconditionError("table is not invariant under all coordinate permutations")
    spec = _values(f.k, f.table)[symmetry_index(f.k, f.n).codes].tolist()
    return SymmetricSpec(f.k, f.n, dict(zip(multisets(f.k, f.n), spec)))


def orbit_sum(n: int, alpha: Sequence[int], k: int) -> FiniteFunction:
    """Sum over all n! coordinate permutations of the indicator of alpha.

    Repeated entries of alpha make permutation terms coincide, so each point
    in the orbit receives the stabilizer size (product of multiplicity
    factorials) mod k.
    """
    if len(alpha) != n:
        raise DomainError(f"alpha has length {len(alpha)}, expected {n}")
    for c in alpha:
        if not 0 <= c < k:
            raise DomainError(f"alpha entry {c} outside 0..{k - 1}")
    weight = math.prod(map(math.factorial, Counter(alpha).values()))
    idx = symmetry_index(k, n)
    hit = idx.orbit_of_point == idx.ranks(np.array(alpha, dtype=np.int64).reshape(1, n))
    return FiniteFunction(k, n, np.where(hit, weight % k, 0).tolist())


@functools.lru_cache(maxsize=64)
def _zero_coefficients(k: int, size: int) -> dict[frozenset[int], int]:
    """Every size-element subset of K, in combinations order, mapped to 0."""
    return {frozenset(c): 0 for c in itertools.combinations(range(k), size)}


def _normalize_coefficient_map(
    b: Mapping, k: int, size: int, what: str
) -> dict[frozenset[int], int]:
    out = dict(_zero_coefficients(k, size))
    for key, v in b.items():
        fs = frozenset(key)
        if fs not in out and (len(fs) != size or any(not 0 <= c < k for c in fs)):
            raise DomainError(
                f"{what} key {sorted(key)} is not a {size}-element subset of 0..{k - 1}"
            )
        if not 0 <= v < k:
            raise DomainError(f"{what} value {v} outside 0..{k - 1}")
        out[fs] = v
    return out


@dataclass
class GapNSpec:
    """Coefficients of the full-gap form: a0 plus one value per n-subset of K."""

    a0: int
    b: Mapping


def construct_gap_n(k: int, n: int, spec: GapNSpec) -> FiniteFunction:
    """Build the symmetric function with gap equal to its arity.

    Every repeated-coordinate point gets a0; an all-distinct point gets the
    coefficient of its value set. Unlisted subsets default to 0. At least
    two of the coefficients (a0 included) must differ, otherwise the result
    would be constant and is rejected.
    """
    if not 2 <= n <= k:
        raise DomainError(f"requires 2 <= n <= k, got n={n}, k={k}")
    if not 0 <= spec.a0 < k:
        raise DomainError(f"a0 value {spec.a0} outside 0..{k - 1}")
    b = _normalize_coefficient_map(spec.b, k, n, "subset coefficient")
    if all(v == spec.a0 for v in b.values()):
        raise PreconditionError(
            "at least two among a0 and the subset coefficients must be "
            "distinct (all equal would give a constant function)"
        )
    plan, _ = _gap_n_plan(k, n)
    return FiniteFunction(k, n, np.array([spec.a0, *b.values()])[plan].tolist())


@dataclass
class TernaryGap2Spec:
    """Coefficients of a ternary gap-2 family member."""

    family: str
    a: Sequence[int]
    b: Mapping = field(default_factory=dict)


def construct_gap2_ternary(k: int, spec: TernaryGap2Spec) -> FiniteFunction:
    """Build a ternary symmetric function with gap 2.

    Diagonal points (i, i, i) get a_i. A point with pattern {c, c, d}
    (c != d) gets a_d under the minority family, a_c under the majority
    family. All-distinct points get the coefficient of their value set.
    At least two of the a_i must differ.
    """
    if k < 3:
        raise DomainError(f"requires k >= 3, got k={k}")
    if spec.family not in ("minority", "majority"):
        raise DomainError(f"unknown family {spec.family!r}")
    a = tuple(spec.a)
    if len(a) != k:
        raise DomainError(f"coefficient vector has {len(a)} entries, expected {k}")
    for v in a:
        if not 0 <= v < k:
            raise DomainError(f"coefficient {v} outside 0..{k - 1}")
    if len(set(a)) < 2:
        raise PreconditionError(
            "at least two among the diagonal coefficients a_i must be distinct"
        )
    b = _normalize_coefficient_map(spec.b, k, 3, "subset coefficient")
    plan = _ternary_plan(k)[0][("minority", "majority").index(spec.family)]
    return FiniteFunction(k, 3, np.array([*a, *b.values()])[plan].tolist())


def _distinct_points(k: int, n: int) -> np.ndarray:
    """(k^n,): whether each point of K^n, in table order, has n distinct
    coordinates."""
    idx = symmetry_index(k, n)
    return idx.distinct[idx.orbit_of_point]


@functools.lru_cache(maxsize=64)
def _gap_n_plan(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The full-gap form as a gather from its coefficients (a0, then one
    per n-subset of K in combinations order): each point's slot, 0 (a0)
    where a coordinate repeats, 1 + r where its value set is subset r; and
    a point per slot to read them off a table, 0 and each sorted subset."""
    idx = symmetry_index(k, n)
    # the n-subsets are the multisets of n distinct values, in the same order
    slots = np.where(idx.distinct, np.cumsum(idx.distinct), 0)
    return slots[idx.orbit_of_point], np.concatenate([[0], idx.codes[idx.distinct]])


@functools.lru_cache(maxsize=16)
def _ternary_plan(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The two ternary gap-2 families as gathers from their coefficients
    (a_0, ..., a_{k-1}, then one per 3-subset of K): per family, minority
    first, each point's slot, a_i on (i, i, i), the subset's on an
    all-distinct point, a_d (minority) or a_c (majority) on {c, c, d}; and
    a point per slot to read them off a table, (i, i, i) and each subset."""
    subset_slots, reader = _gap_n_plan(k, 3)
    x, y, z = _digits(k, 3).T.astype(np.int64)
    doubled = np.where((x == y) | (x == z), x, y)
    lone = x + y + z - 2 * doubled
    plans = np.where(subset_slots > 0, k - 1 + subset_slots, np.stack([lone, doubled]))
    return plans, np.concatenate([np.arange(k) * (k * k + k + 1), reader[1:]])


def _distinct_images(plans: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The distinct tables that the plans (one gather per row of ``plans``)
    make of the coefficient rows ``rows``, in ascending order."""
    tables = rows[:, plans.reshape(-1)].reshape(len(rows) * len(plans), -1)
    _, first = np.unique(_row_keys(tables), return_index=True)
    return tables[first]


def _gap_n_images(k: int, n: int) -> np.ndarray:
    """The tables of every full-gap construction at (k, n): the plan
    applied to every coefficient row that is not constant. None below
    n = 2 or above n = k, where the form is not defined or not valid."""
    if not 2 <= n <= k:
        return np.zeros((0, k**n), dtype=_values(k, ()).dtype)
    plan, _ = _gap_n_plan(k, n)
    rows = _values(k, _digits(k, 1 + math.comb(k, n)))
    return _distinct_images(plan[None], rows[np.any(rows != rows[:, :1], axis=1)])


def _ternary_images(k: int) -> np.ndarray:
    """The tables of every ternary gap-2 construction of either family:
    both plans applied to every coefficient row whose diagonal
    coefficients are not all equal."""
    plans, _ = _ternary_plan(k)
    rows = _values(k, _digits(k, k + math.comb(k, 3)))
    return _distinct_images(plans, rows[np.any(rows[:, :k] != rows[:, :1], axis=1)])


@dataclass
class LinearSpec:
    """Coefficients and constant of an affine map mod k."""

    coefficients: Sequence[int]
    constant: int = 0


def construct_linear(k: int, spec: LinearSpec) -> FiniteFunction:
    coeffs = tuple(spec.coefficients)
    for v in coeffs:
        if not 0 <= v < k:
            raise DomainError(f"coefficient {v} outside 0..{k - 1}")
    if not 0 <= spec.constant < k:
        raise DomainError(f"constant {spec.constant} outside 0..{k - 1}")
    dots = _digits(k, len(coeffs)) @ np.array(coeffs, dtype=np.int64)
    return FiniteFunction(k, len(coeffs), ((dots + spec.constant) % k).tolist())


def linear_tables(k: int, n: int) -> np.ndarray:
    """(k^(n+1), k^n): the table that :func:`construct_linear` builds for
    every (a_1, ..., a_n, c), in product order, the constant last. The dot
    products a.x of the first m coefficients and coordinates extend to m + 1
    by adding a_(m+1) x_(m+1) mod k, read off a (k, k) product table."""
    # two values below k add up to less than 256 in uint8 up to k = 128
    values = np.arange(k, dtype=np.uint8 if k <= 128 else np.int64)
    product = (np.arange(k)[:, None] * np.arange(k) % k).astype(values.dtype)
    dots = np.zeros((1, 1), dtype=values.dtype)
    for _ in range(n):
        dots = (dots[:, None, :, None] + product[None, :, None, :]) % k
        dots = dots.reshape(len(dots) * k, -1)
    tables = dots[:, None, :] + values[:, None]
    tables %= k
    return tables.reshape(k ** (n + 1), k**n)


@dataclass(frozen=True)
class DecompositionPair:
    """The (g, h) pair of the pairwise-conjunction decomposition."""

    g: FiniteFunction
    h: FiniteFunction


def recompose(g: FiniteFunction, h: FiniteFunction) -> FiniteFunction:
    """f(p) = sum over pairs i<j with p_i = p_j of g(p minus i, j), plus h(p).

    Arithmetic is mod k; h must vanish on every repeated-coordinate point,
    so f agrees with h on all-distinct points.
    """
    if g.k != h.k:
        raise DomainError(f"radices differ: {g.k} vs {h.k}")
    if g.n != h.n - 2:
        raise DomainError(
            f"arities incompatible: need arity(g) = arity(h) - 2, "
            f"got {g.n} and {h.n}"
        )
    k, n = h.k, h.n
    points, table, g_table = _digits(k, n), np.array(h.table), np.array(g.table)
    bad = np.flatnonzero(~_distinct_points(k, n) & (table != 0))
    if len(bad):
        m = int(bad[0])
        raise PreconditionError(f"h must vanish on repeated-coordinate points, "
                                f"h{tuple(points[m].tolist())} = {h.table[m]}")
    for i, j in itertools.combinations(range(n), 2):
        # g at each point without its coordinates i and j, where they agree
        rest = np.delete(points, (i, j), axis=1) @ _powers(k, n - 2)
        table += np.where(points[:, i] == points[:, j], g_table[rest], 0)
    return FiniteFunction(k, n, (table % k).tolist())


def _propagate(assign: dict, pending: list, k: int):
    """Forward-solve single-unknown equations with unit coefficients."""
    changed = True
    while changed:
        changed = False
        rest = []
        for coeffs, rhs in pending:
            live = {}
            r = rhs % k
            for idx, c in coeffs.items():
                c %= k
                if idx in assign:
                    r = (r - c * assign[idx]) % k
                elif c:
                    live[idx] = c
            if not live:
                if r:
                    return None
                continue
            if len(live) == 1:
                (idx, c), = live.items()
                g = math.gcd(c, k)
                if r % g:
                    return None
                if g == 1:
                    assign[idx] = (r * pow(c, -1, k)) % k
                    changed = True
                    continue
            rest.append((coeffs, rhs))
        pending = rest
    return pending


def _solutions(assign: dict, pending: list, k: int, total: int):
    """Yield every full assignment satisfying the equations, deterministically."""
    pending = _propagate(assign, pending, k)
    if pending is None:
        return
    if len(assign) == total:
        if not pending:
            yield dict(assign)
        return
    unassigned = sorted(
        {idx for coeffs, _ in pending for idx in coeffs if idx not in assign}
    )
    if not unassigned:
        # every unknown appears in some equation by construction
        return
    target = unassigned[0]
    for v in range(k):
        trial = dict(assign)
        trial[target] = v
        yield from _solutions(trial, list(pending), k, total)


def extract_decomposition(f: FiniteFunction) -> DecompositionPair:
    """Recover some (g, h) with recompose(g, h) = f.

    Requires a symmetric input with all variables essential, gap 2, and
    min(n, k) > 3. h is f on all-distinct points and 0 elsewhere; g is
    solved per multiset from the repeated-point equations
    sum_v C(mult(v), 2) * g(M - {v, v}) = f(M), by unit-coefficient
    propagation with a small backtracking search over the rest (Z_k has
    zero divisors, so plain elimination is not enough). Solutions are not
    unique; among the first few hundred the solver prefers one whose g has
    n - 2 essential variables and the gap matching the input's gap index
    (2 below index 3, full otherwise), falling back to any valid solution.
    Some class members have no solution at all (the diagonal equations can
    demand 2x = odd mod even k); those raise DecompositionError.
    """
    k, n = f.k, f.n
    if min(n, k) <= 3:
        raise PreconditionError(f"requires 3 < min(n, k), got n={n}, k={k}")
    if not is_symmetric(f):
        raise PreconditionError("input is not symmetric")
    if essential_count(f) != n:
        raise PreconditionError("input must depend on all of its variables")
    got = gap(f)
    if got != 2:
        raise PreconditionError(f"input has gap {got}, expected 2")

    h = FiniteFunction(k, n, np.where(_distinct_points(k, n), f.table, 0).tolist())
    # per multiset with a repeated value, C(mult(v), 2) per repeated v, and
    # the multisets M - {v, v}, whose indices one rank call reads
    equations, reduced = [], []
    values = _values(k, f.table)[symmetry_index(k, n).codes].tolist()
    for big, value in zip(multisets(k, n), values):
        repeated = [(v, math.comb(c, 2)) for v, c in Counter(big).items() if c >= 2]
        if repeated:
            equations.append(([c for _, c in repeated], value))
            reduced += [big[:big.index(v)] + big[big.index(v) + 2:] for v, _ in repeated]
    unknowns = iter(symmetry_index(k, n - 2).ranks(np.array(reduced)).tolist())
    equations = [({next(unknowns): c for c in coeffs}, value) for coeffs, value in equations]

    want_gap = 2 if gap_index(f) > 2 else n - 2

    m = math.comb(k + n - 3, n - 2)
    g = None
    for count, solution in enumerate(_solutions({}, equations, k, m)):
        candidate = spec_to_function(k, n - 2, tuple(solution[i] for i in range(m)))
        if g is None:
            g = candidate
        p = gap_profile(candidate)
        if p.ess == n - 2 and (p.ess < 2 or p.gap == want_gap):
            g = candidate
            break
        if count >= 500:
            break
    if g is None:
        raise DecompositionError(
            "no pairwise-conjunction decomposition exists for this table"
        )
    rebuilt = recompose(g, h)
    if rebuilt.table != f.table:
        raise DecompositionError("solver produced a non-reproducing pair")
    return DecompositionPair(g, h)


def diagonal_values(f: FiniteFunction) -> tuple[int, ...]:
    """The k values f(c, c, ..., c) for c in K: the point c^n has index
    c (k^n - 1) / (k - 1), which is 0 at arity 0."""
    return tuple(f.table[c * (f.k**f.n - 1) // (f.k - 1)] for c in range(f.k))
