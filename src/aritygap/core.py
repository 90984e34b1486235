"""Value tables for finite k-valued functions.

A function f : K^n -> K over K = {0, ..., k-1} is stored as an immutable
flat table of k^n values. The table index of a point (c_1, ..., c_n) is
m = c_1*k^(n-1) + ... + c_n, i.e. the first coordinate is the most
significant digit, so ``itertools.product(range(k), repeat=n)`` enumerates
points in table order. Arity 0 is allowed: a one-entry table holding a
constant, which turns up as the terminal object of restriction chains.

All operations here are pure and deterministic; nothing mutates a table
after construction, so everything is safe to use from parallel workers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence


class DomainError(ValueError):
    """A value, point, or table is malformed for the given radix/arity."""


class PreconditionError(ValueError):
    """Inputs are well formed but an operation's precondition fails."""


class DecompositionError(PreconditionError):
    """No pairwise-conjunction decomposition exists for the input."""


def _at_least(bits: int) -> str:
    """A count of ``bits`` bits as a power of ten it reaches (0.30102 < log10(2))."""
    return f"at least 10^{(bits - 1) * 30102 // 100000}"


def _count(value: int | str) -> str:
    """A count in decimal or, past the digits Python turns into text, as
    ``_at_least`` gives it; the text of ``_power`` is kept as it is."""
    try:
        return str(value)
    except ValueError:
        return _at_least(value.bit_length())


def _power(k: int, m: int) -> int | str:
    """k^m (k >= 2) or, past 2^21 bits, slow to raise, its ``_count`` text."""
    bits = m * math.log2(k)
    return k**m if bits <= 1 << 21 else _at_least(int(bits) + 1)


class BudgetError(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int, unit="candidates", limit="budget"):
        if limit == "budget":
            message = (
                f"exhaustive enumeration requires {_count(required)} {unit}, over the "
                f"budget of {_count(budget)}; use sampling (with an explicit seed) or an "
                f"explicit budget override"
            )
        else:
            # a fixed limit, which no override lifts, or a budget that
            # sampling would not help meet: there is nothing to suggest
            message = (
                f"listing requires {_count(required)} {unit}, over the {limit} of "
                f"{_count(budget)}"
            )
        super().__init__(message)
        self.required = required
        self.budget = budget


def index_of(point: Sequence[int], k: int) -> int:
    """Table index of a point; the first coordinate is most significant."""
    m = 0
    for c in point:
        if not 0 <= c < k:
            raise DomainError(f"coordinate {c} outside 0..{k - 1}")
        m = m * k + c
    return m


def point_of(index: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`index_of` at arity n."""
    if not 0 <= index < k**n:
        raise DomainError(f"index {index} outside the table of size {k}^{n}")
    digits = []
    for _ in range(n):
        index, r = divmod(index, k)
        digits.append(r)
    return tuple(reversed(digits))


def iter_points(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All points of K^n in table order."""
    return itertools.product(range(k), repeat=n)


def check_domain(k: int, n: int):
    """Reject a radix below 2 or a negative arity."""
    if k < 2:
        raise DomainError(f"radix must be at least 2, got {k}")
    if n < 0:
        raise DomainError(f"arity must be non-negative, got {n}")


class FiniteFunction:
    """An n-ary k-valued function as an immutable value table."""

    __slots__ = ("k", "n", "table", "_hash")

    def __init__(self, k: int, n: int, table: Iterable[int]):
        check_domain(k, n)
        tab = tuple(table)
        # k >= 2, so past the table's bit length k^n outgrows it whatever k is
        if n > len(tab).bit_length() or len(tab) != k**n:
            raise DomainError(
                f"table has {len(tab)} entries, expected {k}^{n} = {_count(_power(k, n))}"
            )
        if not (0 <= min(tab) and max(tab) < k):
            v = next(v for v in tab if not 0 <= v < k)
            raise DomainError(f"table value {v} outside 0..{k - 1}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "_hash", hash((k, n, tab)))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteFunction is immutable")

    @classmethod
    def from_callable(cls, k: int, n: int, fn: Callable[..., int]) -> "FiniteFunction":
        return cls(k, n, (fn(*p) % k for p in iter_points(k, n)))

    @classmethod
    def constant(cls, k: int, value: int, n: int = 0) -> "FiniteFunction":
        if not 0 <= value < k:
            raise DomainError(f"constant {value} outside 0..{k - 1}")
        return cls(k, n, (value,) * (k**n))

    def __call__(self, point: Sequence[int]) -> int:
        if len(point) != self.n:
            raise DomainError(
                f"point has {len(point)} coordinates, function has arity {self.n}"
            )
        return self.table[index_of(point, self.k)]

    def is_constant(self) -> bool:
        first = self.table[0]
        return all(v == first for v in self.table)

    def __eq__(self, other):
        if isinstance(other, FiniteFunction):
            return (
                self.k == other.k and self.n == other.n and self.table == other.table
            )
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteFunction(k={self.k}, n={self.n}, table={self.table})"


def is_all_distinct(point: Sequence[int]) -> bool:
    return len(set(point)) == len(point)


def embeds(beta: Sequence[int], alpha: Sequence[int]) -> bool:
    """Whether beta embeds into alpha.

    True iff distinct positions of alpha can carry the coordinates of beta
    with no leftover position of alpha holding any value used by beta;
    equivalently, every value occurring in beta has exactly the same
    multiplicity in alpha. The check is therefore invariant under permuting
    either tuple.
    """
    counts_alpha = Counter(alpha)
    return all(counts_alpha[v] == c for v, c in Counter(beta).items())


@dataclass(frozen=True)
class IndicatorTerm:
    """One coefficient * point-indicator term of a table expansion.

    The conjunction of single-point indicators x_1^{c_1} ... x_n^{c_n} is 1
    exactly at the point (c_1, ..., c_n), so a function equals the sum
    (mod k) of one term per point with coefficient f(c_1, ..., c_n).
    """

    coefficient: int
    exponents: tuple[int, ...]


def indicator_terms(f: FiniteFunction) -> tuple[IndicatorTerm, ...]:
    """The sparse indicator expansion: one term per nonzero table value."""
    return tuple(
        IndicatorTerm(v, p)
        for p, v in zip(iter_points(f.k, f.n), f.table)
        if v != 0
    )


def from_indicator_terms(
    terms: Iterable[IndicatorTerm], k: int, n: int
) -> FiniteFunction:
    """Sum coefficient * indicator over the given terms, addition mod k.

    Terms with equal exponent tuples accumulate. Round trip with
    :func:`indicator_terms` is the identity.
    """
    table = [0] * (k**n)
    for t in terms:
        if len(t.exponents) != n:
            raise DomainError(
                f"exponent tuple {t.exponents} does not have arity {n}"
            )
        if not 0 <= t.coefficient < k:
            raise DomainError(f"coefficient {t.coefficient} outside 0..{k - 1}")
        m = index_of(t.exponents, k)
        table[m] = (table[m] + t.coefficient) % k
    return FiniteFunction(k, n, table)


def range_of(f: FiniteFunction) -> frozenset[int]:
    """The set of values the function attains."""
    return frozenset(f.table)


def range_size(f: FiniteFunction) -> int:
    return len(range_of(f))
