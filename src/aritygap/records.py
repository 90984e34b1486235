"""The violations of the claims about every state of a closure, row by row.

A verdict of ``screens`` finds the rows that can violate Lemma 2.1, Lemma
2.5, Remark 2.1 or Remark 2.2 by a pass over every order-o restriction of a
spec or over every reached identification shape. For those rows the
functions here apply the same predicate to each state of the row's
closure, and lay the verdicts out as :class:`screens.Violations` in the
order of the per-instance records: the subfunctions of
``subfunctions._closure_levels`` in breadth-first order, the minors of
``minors.all_minors`` by depth, then table. The screens import this module
for the first row they flag.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import FiniteFunction
from .facts import TableFacts
from .minors import _essential_mask, _values, all_minors
from .screens import Violations, _asymmetric, _lemma2_1, _lemma2_5, _no_slots, _remark2_2
from .subfunctions import _closure_levels


def _per_state(head: Violations, assertions, row, wrong, info) -> Violations:
    """The slots of ``head``, then one slot per state and assertion of
    ``assertions``. ``row`` (T,) gives the row of each state, ascending,
    with a row's states in the order of their records; ``wrong`` (T, A)
    whether each state violates each assertion, and ``info(state,
    assertion)`` the details of a record. Rows are padded to the one with
    the most states."""
    rows = len(head.mask)
    place = np.arange(len(row)) - np.searchsorted(row, row)
    width = int(place.max(initial=-1)) + 1
    state = np.zeros((rows, width), dtype=np.intp)
    state[row, place] = np.arange(len(row))
    mask = np.zeros((rows, width, len(assertions)), dtype=bool)
    mask[row, place] = wrong

    def details(r, s):
        if s < len(head.assertions):
            return head.info(r, s)
        p, a = divmod(s - len(head.assertions), len(assertions))
        return info(state[r, p], a)

    return Violations(head.assertions + assertions * width,
                      np.concatenate([head.mask, mask.reshape(rows, -1)], axis=1), details)


def lemma2_1_violations(f, flagged: np.ndarray) -> Violations:
    """Lemma 2.1's violations of the rows of spec or table facts ``f``: two
    slots (``_lemma2_1``) per state of the subfunction closure of each
    ``flagged`` row, below the row itself and in breadth-first order."""
    k, n = f.k, f.n
    row, order, ess = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    wrong = [np.zeros((0, 2), dtype=bool)]
    for r in np.flatnonzero(flagged).tolist():
        for o, _, tabs, mask, _ in _closure_levels(k, n, f.table(r)):
            if o:
                e = mask.sum(axis=1)
                pairs = itertools.combinations(range(n - o), 2)
                wrong.append(_lemma2_1(n - o, _asymmetric(k, tabs, mask, pairs), e))
                row.append(np.full(len(e), r))
                order.append(np.full(len(e), o))
                ess.append(e)
    row, order, ess = map(np.concatenate, (row, order, ess))

    def info(t, a):
        return {"order": int(order[t]), **({"ess": int(ess[t])} if a else {})}

    return _per_state(_no_slots(len(flagged)),
                      ("lemma2_1.subfunction-symmetric", "lemma2_1.ess-equals-n-minus-order"),
                      row, np.concatenate(wrong), info)


def _minors(f, flagged: np.ndarray):
    """The iterated identification minors of the flagged rows of the spec
    facts ``f``, row by row in ``all_minors`` order: the row and depth of
    each, (T,), and their tables, (T, k^n)."""
    rows = np.flatnonzero(flagged)
    minors = [all_minors(FiniteFunction(f.k, f.n, f.table(r))) for r in rows.tolist()]
    depth = np.array([m.depth for ms in minors for m in ms], dtype=np.int64)
    tables = _values(f.k, [m.function.table for ms in minors for m in ms])
    return np.repeat(rows, [len(ms) for ms in minors]), depth, tables


def lemma2_5_violations(f, head: Violations, flagged: np.ndarray) -> Violations:
    """``head``, then Lemma 2.5's chain-ess slot per minor of each flagged
    row."""
    row, depth, tables = _minors(f, flagged)
    ess = _essential_mask(f.k, f.n, tables).sum(axis=1)
    return _per_state(head, ("lemma2_5.chain-ess",), row, _lemma2_5(f.n, depth, ess)[:, None],
                      lambda t, _: {"depth": int(depth[t]), "ess": int(ess[t])})


def remark2_2_violations(f, flagged: np.ndarray) -> Violations:
    """Remark 2.2's three slots per minor of each flagged row."""
    row, depth, tables = _minors(f, flagged)
    ess, gap = TableFacts(f.k, f.n, tables).ess_gap
    return _per_state(_no_slots(len(flagged)),
                      ("remark2_2.minor-ess", "remark2_2.below-index-class",
                       "remark2_2.at-index-class"),
                      row, _remark2_2(f.n, f.gap_index[row], depth, ess, gap),
                      lambda t, a: {"depth": int(depth[t]), **({} if a else {"ess": int(ess[t])})})


def remark2_1_violations(f, flagged: np.ndarray) -> Violations:
    """Remark 2.1's slot per minor of each flagged row: whether it is not
    symmetric in its essential positions."""
    row, depth, tables = _minors(f, flagged)
    pairs = itertools.combinations(range(f.n), 2)
    wrong = _asymmetric(f.k, tables, _essential_mask(f.k, f.n, tables), pairs)
    return _per_state(_no_slots(len(flagged)), ("remark2_1.minor-symmetric",), row,
                      wrong[:, None], lambda t, _: {"depth": int(depth[t])})
