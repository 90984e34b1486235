"""Each population suite's claim as predicates over the facts of a chunk.

A screen is (hypothesis, verdict) over :class:`facts.SpecFacts`, or over
:class:`facts.TableFacts` of raw tables for the suites of
``TABLE_SCREENS``. The hypothesis gives each row its instance flag; the
verdict gives the subcase counts of each row and its violations.

An exact verdict gives its violations as :class:`Violations`, one slot per
record the claim can write: a row's violation count is its number of
violated slots, and its records are read off the same arrays, so each claim
is stated once. The verdicts of the five suites with a checker in
``suites._BOUND_CHECKERS`` only bound the violations, one flag per row: a
row they pass has none, and a row they flag may have none.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np

from .enumeration import symmetry_index
from .facts import SpecFacts, _constant
from .subfunctions import sub_bound


class Violations(NamedTuple):
    """An exact claim's violations in a chunk: per row and slot whether the
    slot is violated, (N, S), the slots of a row in the order of its
    records; the assertion of each slot; and ``info(row, slot)``, the
    details of a record."""

    assertions: tuple[str, ...]
    mask: np.ndarray
    info: Callable[[int, int], dict]


def _restricted(ess: np.ndarray, gap: np.ndarray, row: int, c: int) -> dict:
    """The details of a record about the restriction to c, column c of
    ``ess`` and ``gap``."""
    g = int(gap[row, c])
    return {"c": c, "ess": int(ess[row, c]), "gap": None if g < 0 else g}


def _all_essential(f: SpecFacts):
    return f.ess_gap[0] == f.n


def _nontrivial_gap(f: SpecFacts):
    ess, gap = f.ess_gap
    return (ess == f.n) & (gap >= 2)


def _gap_2(f: SpecFacts):
    ess, gap = f.ess_gap
    return (ess == f.n) & (gap == 2)


def _gap_n(f: SpecFacts):
    ess, gap = f.ess_gap
    return (ess == f.n) & (gap == f.n)


def _verdict_thm3_1(f):
    k, n = f.k, f.n
    ess, gap = f.restriction_ess_gap(1)
    wrong = ~f.dominants & ~((ess == n - 1) & (gap == n - 1))
    # a slot per position i and constant c, i-major; a symmetric row's
    # restriction does not depend on i
    return Violations(("thm3_1.restriction-class",) * (n * k), np.tile(wrong, n),
                      lambda r, s: {"i": s // k + 1, **_restricted(ess, gap, r, s % k)}), {}


def _verdict_thm3_2(f):
    k, n = f.k, f.n
    ind = f.gap_index if n >= 4 else np.ones(len(f.specs), dtype=np.int64)
    doubled = [symmetry_index(k, 2).index[(c, c)] for c in range(k)]
    ess2, gap2 = (a[:, doubled] for a in f.restriction_ess_gap(2))
    ess1, gap1 = f.restriction_ess_gap(1)
    wdom = f.weak_dominants
    # slots: (i) per c, (ii) per c, then (iii) and (iv) alternating per c,
    # of which the row's weak dominance of c leaves one
    wrong_i = (ind > 2)[:, None] & ~((ess2 == n - 2) & (gap2 == 2))
    wrong_ii = (ind == 2)[:, None] & ~((ess2 == n - 2) & ((ess2 < 2) | (gap2 == ess2)))
    wrong_iii = wdom & ~((ess1 == n - 1) & (gap1 == n - 1))
    wrong_iv = ~wdom & ~((ess1 == n - 1) & (gap1 == 2))
    mask = np.concatenate(
        [wrong_i, wrong_ii, np.stack([wrong_iii, wrong_iv], axis=2).reshape(len(wdom), 2 * k)],
        axis=1)

    def info(r, s):
        if s < 2 * k:
            return _restricted(ess2, gap2, r, s % k)
        return _restricted(ess1, gap1, r, (s - 2 * k) // 2)

    subcounts = {
        "i": k * (ind > 2), "ii": k * (ind == 2),
        "iii": wdom.sum(axis=1), "iv": (~wdom).sum(axis=1),
    }
    assertions = ("thm3_2.i",) * k + ("thm3_2.ii",) * k + ("thm3_2.iii", "thm3_2.iv") * k
    return Violations(assertions, mask, info), subcounts


def _verdict_cor3_1(f):
    ess, gap = f.restriction_ess_gap(1)
    return Violations(("cor3_1.restriction-gap",) * f.k, ~f.dominants & (gap < 2),
                      lambda r, c: _restricted(ess, gap, r, c)), {}


def _verdict_lemma3_1(f):
    sub = f.closure_counts[0]
    bound = sub_bound(f.n, f.k) + sum(np.any(f.specs == v, axis=1) for v in range(f.k))
    return Violations(("lemma3_1.bound",), (sub > bound)[:, None],
                      lambda r, _: {"sub": int(sub[r]), "bound": int(bound[r])}), {}


def _verdict_thm4_1(f):
    n, levels = f.n, f.separable_levels

    def info(r, _):
        return {"missing": sorted(itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), m) for m in range(n + 1)
            if not levels[r, m]))}

    return Violations(("thm4_1.all-subsets",), ~levels.all(axis=1, keepdims=True), info), {}


def _verdict_cor4_1(f):
    sep = f.closure_counts[1]
    return Violations(("cor4_1.sep-count",), (sep != 2**f.n)[:, None],
                      lambda r, _: {"sep": int(sep[r])}), {}


def _verdict_cor4_2(f):
    sub = f.closure_counts[0]
    return Violations(("cor4_2.sub-count",), (sub < 2**f.n)[:, None],
                      lambda r, _: {"sub": int(sub[r])}), {}


def _verdict_lemma2_4(f):
    n = f.n
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    # identifying x_u with x_v leaves x_v essential exactly when y is
    # essential in s({y, y, z_3, ..., z_n}), whatever the pair
    mask = np.repeat(f.yz_essential[0][:, None], len(pairs), axis=1)
    return Violations(("lemma2_4.substituted-var-fictive",) * len(pairs), mask,
                      lambda r, s: dict(zip("uv", pairs[s]))), {}


def _verdict_thm2_4(f):
    k, n = f.k, f.n
    gap, ind, diag = f.ess_gap[1], f.gap_index, f.diagonal
    equal = _constant(diag)
    equal_case = (gap == n) | ((gap == 2) & (n % 2 == 0)) | ((gap == 2) & (2 * ind < n - 1))
    differs_case = (n % 2 == 1 and 3 <= n <= k) & (gap == 2) & (2 * ind == n - 1)
    return (Violations(("thm2_4.i.diagonal-equal", "thm2_4.ii.diagonal-differs"),
                       np.stack([equal_case & ~equal, differs_case & equal], axis=1),
                       lambda r, _: {"diag": diag[r].tolist()}),
            {"diagonal-equal": equal_case, "diagonal-differs": differs_case})


def _verdict_lemma2_5(f):
    n, ind = f.n, f.gap_index
    flagged = ~((1 <= ind) & (2 * ind <= n))
    for _, depth, ess, _ in f.shapes:
        flagged |= (depth >= 0) & (ess != n - 2 * depth)
    return flagged, {}


def _verdict_remark2_2(f):
    n, ind = f.n, f.gap_index
    flagged = np.zeros(len(f.specs), dtype=bool)
    for _, depth, ess, gap in f.shapes:
        below = (depth < ind) & ~((ess >= 2) & (gap == 2))
        at = (depth >= ind) & ~((ess < 2) | (gap == ess))
        flagged |= (depth >= 0) & ((ess != n - 2 * depth) | below | at)
    return flagged, {}


def _verdict_lemma2_2(f):
    gap = f.ess_gap[1]
    wrong = (2 <= gap) & (gap <= min(f.n, f.k)) & (gap != 2) & (gap != f.n)
    return Violations(("lemma2_2.dichotomy",), wrong[:, None],
                      lambda r, _: {"gap": int(gap[r])}), {}


def _verdict_willard(f):
    k, n, gap = f.k, f.n, f.ess_gap[1]
    return Violations(("willard.min-bound", "willard.two-bound"),
                      np.stack([gap > min(n, k), (k < n) & (gap > 2)], axis=1),
                      lambda r, _: {"gap": int(gap[r])}), {}


SCREENS = {
    "thm3_1": (lambda f: _gap_n(f) & (f.n > 2), _verdict_thm3_1),
    "lemma3_1": (lambda f: _gap_n(f) & (f.n <= f.k), _verdict_lemma3_1),
    "thm3_2": (lambda f: _gap_2(f) & (min(f.n, f.k) >= 3), _verdict_thm3_2),
    "cor3_1": (_nontrivial_gap, _verdict_cor3_1),
    "thm4_1": (_nontrivial_gap, _verdict_thm4_1),
    "cor4_1": (_nontrivial_gap, _verdict_cor4_1),
    "cor4_2": (_nontrivial_gap, _verdict_cor4_2),
    "lemma2_4": (lambda f: _gap_2(f) & (f.n > 3), _verdict_lemma2_4),
    "lemma2_5": (_gap_2, _verdict_lemma2_5),
    "remark2_2": (_gap_2, _verdict_remark2_2),
    "thm2_4": (_nontrivial_gap, _verdict_thm2_4),
    "lemma2_1": (_all_essential, lambda f: (f.slice_flags, {})),
    "lemma2_2": (lambda f: _all_essential(f) & (f.ess_gap[1] >= 0), _verdict_lemma2_2),
    "remark2_1": (_nontrivial_gap, lambda f: (f.asymmetric_minor, {})),
    # the pair is searched per instance: every instance goes to its checker
    "lemma2_3": (lambda f: _gap_2(f) & (f.n > 3),
                 lambda f: (np.ones(len(f.tables), dtype=bool), {})),
    "willard": (lambda f: _all_essential(f) & (f.n >= 2), _verdict_willard),
}
TABLE_SCREENS = frozenset({"lemma2_3", "willard"})
