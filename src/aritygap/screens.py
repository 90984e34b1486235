"""Each population suite's claim as predicates over the facts of a chunk.

A screen is (hypothesis, verdict) over :class:`facts.SpecFacts`, or over
:class:`facts.TableFacts` of raw tables for the suites of
``TABLE_SCREENS``. The hypothesis gives each row its instance flag; the
verdict gives each row's violations, as :class:`Violations`, and its
subcase counts.

A verdict has one slot per record the claim can write: a row's violation
count is its number of violated slots, and its records are read off the
same arrays, so each claim is stated once. The claims about every state of
a closure are each one predicate over that state's facts: Lemma 2.1 over a
subfunction's arity, symmetry and essential count (``_lemma2_1``), Lemma
2.5 and Remark 2.2 over a minor's depth, essential count and gap
(``_lemma2_5``, ``_remark2_2``), Remark 2.1 over a minor's symmetry
(``_asymmetric``). Their verdicts find the rows that can violate it, Lemma
2.1's by the essential count of every order-o restriction of a spec, the
others over every reached identification shape; ``records`` applies it to
each state of those rows' closures and writes their slots, imported by the
first such row. On specs both of Lemma 2.1's assertions hold by the
representation (a restriction of a multiset spec is a multiset spec), so no
row is flagged; ``slice_flags`` in ``tests/oracles.py``, which slices the
expanded tables, is what tests that representation."""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np

from .enumeration import _shape_gather
from .facts import SpecFacts, _constant
from .subfunctions import sub_bound
from .symmetric import symmetry_index


class Violations(NamedTuple):
    """A claim's violations in a chunk: per row and slot whether the slot
    is violated, (N, S), the slots of a row in the order of its records;
    the assertion of each slot; and ``info(row, slot)``, the details of a
    record."""

    assertions: tuple[str, ...]
    mask: np.ndarray
    info: Callable[[int, int], dict]


def _no_slots(rows: int) -> Violations:
    """No violations, with no slot, for a chunk of ``rows`` rows."""
    return Violations((), np.zeros((rows, 0), dtype=bool), None)


def _restricted(ess: np.ndarray, gap: np.ndarray, row: int, c: int) -> dict:
    """The details of a record about the restriction to c, column c of
    ``ess`` and ``gap``."""
    g = int(gap[row, c])
    return {"c": c, "ess": int(ess[row, c]), "gap": None if g < 0 else g}


def _all_essential(f: SpecFacts):
    return f.ess == f.n


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


def _asymmetric(k: int, tables: np.ndarray, ess: np.ndarray, pairs) -> np.ndarray:
    """Whether each table of an (m, k^r) array changes under the swap of
    some pair (a, b) of ``pairs`` of positions essential in it (``ess``,
    (m, r)): with every pair of positions, whether it is not symmetric."""
    t = tables.reshape((len(tables),) + (k,) * ess.shape[1])
    out = np.zeros(len(t), dtype=bool)
    for a, b in pairs:
        changes = np.any((t != np.swapaxes(t, 1 + a, 1 + b)).reshape(len(t), -1), axis=1)
        out |= ess[:, a] & ess[:, b] & changes
    return out


def _lemma2_1(arity, asymmetric, ess):
    """Lemma 2.1 for subfunctions of the given arity below an all-essential
    function, as (subfunction-symmetric, ess-equals-n-minus-order): each is
    symmetric, and has no essential variable or ``arity`` of them."""
    return np.stack([asymmetric, (ess > 0) & (ess != arity)], axis=-1)


def _verdict_lemma2_1(f):
    # a restriction of a multiset spec is a multiset spec: never asymmetric
    flagged = np.zeros(len(f.specs), dtype=bool)
    for o in range(1, f.n):
        ess = f.restriction_ess_gap(o)[0]
        flagged |= _lemma2_1(f.n - o, np.zeros(ess.shape, dtype=bool), ess).any(axis=(1, 2))
    if flagged.any():
        from .records import lemma2_1_violations
        return lemma2_1_violations(f, flagged), {}
    return _no_slots(len(f.specs)), {}


def _lemma2_5(n, depth, ess):
    """Lemma 2.5's chain-ess: a minor at depth l has n - 2l essential
    variables."""
    return ess != n - 2 * depth


def _verdict_lemma2_5(f):
    n, ind = f.n, f.gap_index
    bounds = ~((1 <= ind) & (2 * ind <= n))
    head = Violations(("lemma2_5.index-bounds",), bounds[:, None],
                      lambda r, _: {"ind": int(ind[r])})
    flagged = np.zeros(len(f.specs), dtype=bool)
    for _, depth, ess, _ in f.shapes:
        flagged |= (depth >= 0) & _lemma2_5(n, depth, ess)
    if flagged.any():
        from .records import lemma2_5_violations
        return lemma2_5_violations(f, head, flagged), {}
    return head, {}


def _remark2_2(n, ind, depth, ess, gap):
    """Remark 2.2 for a minor at depth l, as (minor-ess, below-index-class,
    at-index-class): it has n - 2l essential variables, and then gap 2
    below the gap index and, from it on, full gap or fewer than 2
    essential variables."""
    chain = ess != n - 2 * depth
    below = (depth < ind) & ~((ess >= 2) & (gap == 2))
    at = (depth >= ind) & ~((ess < 2) | (gap == ess))
    return np.stack([chain, ~chain & below, ~chain & at], axis=-1)


def _verdict_remark2_2(f):
    n, ind = f.n, f.gap_index
    flagged = np.zeros(len(f.specs), dtype=bool)
    for _, depth, ess, gap in f.shapes:
        flagged |= (depth >= 0) & _remark2_2(n, ind, depth, ess, gap).any(axis=1)
    if flagged.any():
        from .records import remark2_2_violations
        return remark2_2_violations(f, flagged), {}
    return _no_slots(len(f.specs)), {}


def _verdict_remark2_1(f):
    flagged = np.zeros(len(f.specs), dtype=bool)
    for shape, depth, _, _ in f.shapes:
        table = f.specs[:, _shape_gather(f.k, f.n, shape)]
        ess = f._shape_tables[shape].mask
        # swapping two parts of equal size leaves a shape's table as it is
        unequal = [(a, b) for a, b in itertools.combinations(range(len(shape)), 2)
                   if shape[a] != shape[b]]
        flagged |= (depth >= 0) & _asymmetric(f.k, table, ess, unequal)
    if flagged.any():
        from .records import remark2_1_violations
        return remark2_1_violations(f, flagged), {}
    return _no_slots(len(f.specs)), {}


def _verdict_lemma2_3(f):
    n = f.n
    # minor[r, u, v]: the essential mask of x_u := x_v, u != v
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    minor = np.zeros((len(f.tables), n, n, n), dtype=bool)
    minor[:, i, j] = f.minor_masks
    eye = np.eye(n, dtype=bool)
    drops = minor.sum(axis=3) == n - 2
    # x_u := x_m and x_v := x_m both drop to n - 2 for every m outside {u, v}
    good = drops | eye
    third = ((good[:, :, None] | eye) & (good[:, None] | eye[:, None])).all(axis=3)
    pair = drops & ~minor[:, :, np.arange(n), np.arange(n)] & third & ~eye
    return Violations(("lemma2_3.pair-exists",), ~pair.any(axis=(1, 2))[:, None],
                      lambda r, _: {}), {}


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


def _verdict_thm2_6(f):
    k, n, gap = f.k, f.n, f.ess_gap[1]
    # the coefficients of a linear table: c = t[0], a_i = t[e_i] - c mod k
    const = f.tables[:, :1].astype(np.int64)
    coeffs = (f.tables[:, [k ** (n - 1 - i) for i in range(n)]] - const) % k
    half = (gap == 2) & np.all(coeffs == k // 2, axis=1)
    odd = k % 2 == 1
    return (Violations(("thm2_6.odd-radix-gap", "thm2_6.even-witness-form"),
                       np.stack([odd & (gap >= 2), (not odd) & (gap >= 2) & ~half], axis=1),
                       lambda r, s: {"coeffs": coeffs[r].tolist(),
                                     **({"gap": int(gap[r])} if s else {})}),
            {"odd" if odd else "even": np.ones(len(gap), dtype=np.int64)})


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
    "lemma2_1": (_all_essential, _verdict_lemma2_1),
    "lemma2_2": (lambda f: _all_essential(f) & (f.ess_gap[1] >= 0), _verdict_lemma2_2),
    "remark2_1": (_nontrivial_gap, _verdict_remark2_1),
    "lemma2_3": (lambda f: _gap_2(f) & (f.n > 3), _verdict_lemma2_3),
    "willard": (lambda f: _all_essential(f) & (f.n >= 2), _verdict_willard),
    "thm2_6": (lambda f: _all_essential(f) & (f.n >= 2), _verdict_thm2_6),
}
TABLE_SCREENS = frozenset({"lemma2_3", "willard", "thm2_6"})
# The screens whose verdicts read the identification shapes of SpecFacts
# (its ``gap_index``, ``shapes`` or ``_shape_tables``), with the least n from
# which they read them. A sample of one is bounded by k^n table entries per
# row, over the k^(n-1) entries of the largest shape a verdict gathers.
SHAPE_SCREENS = {"thm2_4": 0, "lemma2_5": 0, "remark2_1": 0, "remark2_2": 0, "thm3_2": 4}


def reads_shapes(name: str, n: int) -> bool:
    """Whether the verdict of ``name`` reads the identification shapes at
    arity n."""
    return n >= SHAPE_SCREENS.get(name, n + 1)
