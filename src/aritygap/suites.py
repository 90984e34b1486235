"""Registered verification suites, one per numbered structural claim.

Each suite enumerates (or samples, with a mandatory seed) its hypothesis
population, evaluates the claim's conclusion on every instance, and returns
a machine-checkable report: instances checked, violating witnesses (first
100 in full), per-subcase tallies, and an explicit vacuity flag when the
hypothesis filter is empty at the given parameters.

Every screened suite is a population suite. Its population is one array,
one row per instance in report order, built by ``_population``: multiset
specs for the symmetric claims, raw value tables for the unrestricted ones
(``lemma2_3``, ``willard``) and for ``thm2_6``'s linear maps. Where a full symmetric space is out of reach,
the exhaustively enumerable non-trivial-gap subclass (see
``nontrivial_gap_specs``) is used and the report says so in its notes.

``_run_population`` decides every population chunk by chunk, in one
process, by the batched screens of ``screens`` over ``facts`` (imported on
first use: every CLI process imports this module, and only these suites
need them). A screen is the only statement of its claim: its violation
count and its records are read off the same arrays. The classifications by
construction (``thm2_2``, ``thm2_3``, ``cor2_1``) compare the sorted tables of
a listed cell with those of one gather per construction form.

Reports are deterministic: byte-identical for identical parameters and
seed. A worker count is accepted and has no effect.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from math import comb, log2, perm
from time import perf_counter

import numpy as np

from .core import (
    BudgetError,
    DomainError,
    FiniteFunction,
    _at_least,
    _power,
    check_domain,
)
from .documents import dump_function
from .minors import _digits, _row_keys, _values, gap, gap_index, gap_profile
from .subfunctions import sub_bound
from .symmetric import (
    _distinct_points,
    _gap_n_images,
    _gap_n_plan,
    _ternary_images,
    _ternary_plan,
    construct_linear,
    LinearSpec,
    expand,
    extract_decomposition,
    is_symmetric,
    linear_tables,
    multisets,
    recompose,
    SymmetricSpec,
    symmetry_index,
)
from .enumeration import (
    DEFAULT_BUDGET,
    LIST_LIMIT,
    _check_seed,
    _component_counts,
    _constant,
    _draw_rows,
    _fictive,
    _fictive_reps,
    _nontrivial_gap_array,
    _seeded_rows,
    _solutions,
    symmetric_spec_count,
)

VIOLATION_CAP = 100
FULL_SCAN_LIMIT = 200_000


class UnknownSuiteError(ValueError):
    pass


@dataclass
class SuiteReport:
    suite: str
    k: int
    n: int
    mode: str
    parameters: dict
    instances_checked: int
    violations_total: int
    violations: list
    vacuous: bool
    subcases: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    # how the run went (population source, generators seeded to draw it,
    # rows read for violation records or checked one at a time,
    # build/check/merge seconds, workers); never part of the report
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "k": self.k,
            "n": self.n,
            "mode": self.mode,
            "parameters": self.parameters,
            "instances_checked": self.instances_checked,
            "violations_total": self.violations_total,
            "violations": self.violations,
            "vacuous": self.vacuous,
            "subcases": self.subcases,
            "notes": self.notes,
            "passed": self.passed,
        }


def _violation(f: FiniteFunction, assertion: str, **info) -> dict:
    return {"function": dump_function(f), "assertion": assertion, "info": info}


# ---------------------------------------------------------------------------
# populations


def _sample_gap2_specs(k: int, n: int, count: int, seed: int) -> tuple[np.ndarray, int]:
    """``count`` seeded gap-2 symmetric specs, one row each, and the number
    of generators seeded for them. Attempt i draws from its own generator,
    seeded with (seed << 28) ^ i. At n = 4 an attempt is one uniform
    y-fictive spec, one value per parity class of multisets in order of
    first multiset (a y-fictive spec depends only on the parity of each
    value's multiplicity: ``enumeration._fictive_reps``), kept if z is
    essential in it, which makes its gap 2; the first ``count`` kept in
    attempt order are the sample, within 60 * count attempts. At any other
    n an attempt is one uniform draw, with replacement, from the listed
    gap-2 cell. The listing is bounded by ``DEFAULT_BUDGET``, a fixed limit
    here, since no budget option reaches a sample."""
    if n != 4:
        members = _nontrivial_gap_array(k, n, DEFAULT_BUDGET, "sampling limit", {2})
        if not len(members):
            return members, 0
        picks = _draw_rows(len(members), 1, [(seed << 28) ^ i for i in range(count)])
        return members[picks[:, 0]], count
    y, z, _ = _fictive_reps(k, n)
    blocks = []
    kept = attempt = 0
    while kept < count and attempt < 60 * count:
        # no more attempts than specs still wanted, so none is drawn in vain
        stop = min(attempt + count - kept, 60 * count)
        seeds = [(seed << 28) ^ i for i in range(attempt, stop)]
        specs = _draw_rows(k, _component_counts(k, n)[0], seeds)[:, y.label]
        attempt = stop
        blocks.append(specs[~_fictive(specs, z.rep)])
        kept += len(blocks[-1])
    return np.concatenate(blocks), attempt


# Suites whose hypothesis is gap = n: an exhaustive run lists them only that
# cell of the gap >= 2 class, every other member being skipped anyway, and a
# gap-2 sample has no member of it beyond n = 2.
_FULL_GAP_SUITES = frozenset({"thm3_1", "lemma3_1"})


def _check_listing_size(count: int, width: int, unit: str, limit: str = "listing limit") -> None:
    """Refuse ``count`` rows of ``width`` entries each (a sample, ``thm2_6``'s
    linear maps or ``cor2_1``'s constructions) when they span more than
    ``LIST_LIMIT`` entries, before any row is drawn or built."""
    if count * width > LIST_LIMIT:
        raise BudgetError(count * width, LIST_LIMIT, unit, limit)


def _population(name, k, n, mode, seed, sample, budget):
    """The population that suite ``name`` checks, as one array with one row
    per instance in report order: raw value tables for ``lemma2_3``,
    ``willard`` and ``thm2_6``, multiset specs for the others. Returns it
    with the mode string, the notes and the parameters of the report, and
    the number of generators seeded to draw it (0 for a listed population).

    ``thm2_6`` lists every linear map in (coefficients, constant) product
    order, in every mode. ``willard`` always samples raw tables,
    ``lemma2_3`` lists every table while there are at most
    ``FULL_SCAN_LIMIT`` and samples them beyond.
    A sample, or ``thm2_6``'s listing, of more than ``LIST_LIMIT`` table or
    spec entries is refused before anything is drawn or built; a spec
    sample counts the k^n table entries of each row where its screen
    gathers them.
    ``lemma2_1`` takes the full spec space, or a seeded sample, or (with a
    note) the listed gap >= 2 class when the full space is out of reach.
    The others take the listed gap >= 2 class, only its gap-n cell for
    suites that accept no other member, or a seeded gap-2 sample, which is
    refused for those suites at n >= 3."""
    from .screens import reads_shapes

    if name == "thm2_6":
        if n < 2:
            raise UnknownSuiteError("thm2_6 needs n >= 2: a gap needs two essential variables")
        _check_listing_size(k ** (n + 1), k**n, "table entries")
        return linear_tables(k, n), "exhaustive(linear specs)", [], {}, 0
    params = {"seed": seed, "sample": sample}
    if name in ("lemma2_3", "willard"):
        width = k**n
        if (name == "lemma2_3" and mode == "exhaustive"
                and width <= FULL_SCAN_LIMIT.bit_length() and k**width <= FULL_SCAN_LIMIT):
            return _solutions(k, np.arange(width)), "exhaustive(raw tables)", [], params, 0
        if seed is None:
            raise DomainError(f"{name} samples raw tables; provide an explicit seed")
        count = sample or (10000 if name == "willard" else 1000)
        _check_listing_size(count, width, "table entries")
        if name == "willard":
            params["sample"] = count
        return (_seeded_rows(k, width, count, seed, 20), f"sample(raw tables, {count})",
                [], params, count)
    width = comb(k + n - 1, n)
    if mode == "sample":
        if seed is None:
            raise DomainError("sampling mode requires an explicit seed")
        if name in _FULL_GAP_SUITES and n >= 3:
            raise DomainError(f"{name} checks functions with gap n, which a gap-2 sample "
                              f"never holds at n = {n}; use exhaustive mode")
        count = sample or (1000 if name == "lemma2_1" else 300)
        if reads_shapes(name, n):
            _check_listing_size(count, k**n, "table entries")
        _check_listing_size(count, width, "spec entries")
        if name == "lemma2_1":
            return (_seeded_rows(k, width, count, seed, 24), f"sample({count})", [], params,
                    count)
        specs, draws = _sample_gap2_specs(k, n, count, seed)
        return specs, f"sample(gap-2, {count})", [], params, draws
    if name == "lemma2_1":
        if width <= FULL_SCAN_LIMIT.bit_length() and k**width <= FULL_SCAN_LIMIT:
            return _solutions(k, np.arange(width)), "exhaustive", [], params, 0
        specs = _nontrivial_gap_array(k, n, budget)
        notes = [
            f"full symmetric domain has {symmetric_spec_count(k, n)} candidates, over the "
            f"per-suite scan limit of {FULL_SCAN_LIMIT}; checked the exhaustively enumerable "
            f"non-trivial-gap subclass ({len(specs)} members)"
        ]
        return specs, "exhaustive(non-trivial-gap subclass)", notes, params, 0
    full_gap = name in _FULL_GAP_SUITES
    # past n = 2 such a suite's sample is refused, so its refusal suggests none
    limit = "--budget" if full_gap and n >= 3 else "budget"
    return (_nontrivial_gap_array(k, n, budget, limit, {n} if full_gap else None),
            "exhaustive(non-trivial gap)", [], params, 0)


def _screened_chunk(name, k, n, chunk, cap):
    """Check one chunk: the screen decides every row, and its verdict sees
    only the instances. The violations are read off its arrays into
    records, row by row, until ``cap`` are kept. Returns (instances,
    subcounts, violations, the kept records, flagged rows read)."""
    from .facts import SpecFacts, TableFacts
    from .screens import SCREENS, TABLE_SCREENS

    hypothesis, verdict = SCREENS[name]
    facts_of = TableFacts if name in TABLE_SCREENS else SpecFacts
    facts = facts_of(k, n, chunk)
    instance = hypothesis(facts)
    if not instance.any():
        return 0, Counter(), 0, [], 0
    if not instance.all():
        facts = facts_of(k, n, chunk[instance])
    found, per_row = verdict(facts)
    subcounts = Counter()
    for key, values in per_row.items():
        if values.any():
            subcounts[key] = int(values.sum())
    kept: list = []
    read = 0
    for r in np.flatnonzero(found.mask.any(axis=1)).tolist():
        if len(kept) == cap:
            break
        f = FiniteFunction(k, n, facts.table(r))
        kept.extend(_violation(f, found.assertions[s], **found.info(r, s))
                    for s in np.flatnonzero(found.mask[r])[: cap - len(kept)].tolist())
        read += 1
    return int(instance.sum()), subcounts, int(found.mask.sum()), kept, read


# ---------------------------------------------------------------------------
# suite runners


def _mk_report(name, k, n, mode, params, instances, subcounts, total, kept, notes, stats):
    subcases = {
        key: {"instances": int(cnt), "vacuous": cnt == 0}
        for key, cnt in sorted(subcounts.items())
    }
    return SuiteReport(suite=name, k=k, n=n, mode=mode, parameters=params,
                       instances_checked=instances, violations_total=total, violations=kept,
                       vacuous=instances == 0, subcases=subcases, notes=notes, stats=stats)


def _stats(draws, t0, t1, checker_rows=0, merge_s=0.0):
    """The stats of a runner that built its population (listings, images,
    draws from ``draws`` seeded generators) from t0 to t1, then checked it
    and merged the results of its chunks (``merge_s`` of the time) until
    now; ``checker_rows`` rows read for records or checked one at a time."""
    return {"draws": draws, "checker_rows": checker_rows, "build_s": t1 - t0,
            "check_s": perf_counter() - t1 - merge_s, "merge_s": merge_s}


def _run_population(name, k, n, mode, seed, sample, budget):
    """Check the suite's population in chunks of 2000, in order, each chunk
    keeping only the records still wanted, and report them with the run's
    stats; ``thm3_2``, ``lemma3_1`` and ``thm2_6`` then add to the report."""
    t0 = perf_counter()
    rows, mode_desc, notes, params, draws = _population(name, k, n, mode, seed, sample,
                                                        budget)
    t1 = perf_counter()
    instances = total = checked = 0
    subcounts: Counter = Counter()
    kept: list = []
    merge_s = 0.0
    for lo in range(0, len(rows), 2000):
        inst, sc, tv, kv, flagged = _screened_chunk(
            name, k, n, rows[lo : lo + 2000], VIOLATION_CAP - len(kept))
        start = perf_counter()
        instances += inst
        subcounts.update(sc)
        total += tv
        checked += flagged
        kept.extend(kv)
        merge_s += perf_counter() - start
    report = _mk_report(name, k, n, mode_desc, params, instances, subcounts, total, kept,
                        notes, {})
    if name == "thm3_2":
        _thm3_2_subcases(report)
    elif name == "lemma3_1":
        _lemma3_1_equality_witnesses(report)
    elif name == "thm2_6":
        _thm2_6_witness(report)
    report.stats = _stats(draws, t0, t1, checked, merge_s)
    return report


def _thm2_6_witness(report):
    """At even k, a record that no linear map has a gap of 2 or more: with
    no violation only the all-k/2 maps can, and a constant shift does not
    change a gap, so none does exactly when the one with constant 0 does not."""
    k, n = report.k, report.n
    if k % 2 == 0 and report.violations_total == 0:
        f = construct_linear(k, LinearSpec((k // 2,) * n, 0))
        if gap(f) < 2:
            report.violations_total += 1
            report.violations.append(_violation(f, "thm2_6.even-witness-exists"))


def _thm3_2_subcases(report):
    """Every subcase of Thm 3.2 in the report, with a note when (i) is
    vacuous."""
    for key in ("i", "ii", "iii", "iv"):
        report.subcases.setdefault(key, {"instances": 0, "vacuous": True})
    if report.subcases["i"]["vacuous"]:
        report.notes.append("subcase (i) needs a gap index above 2, hence at least 6 "
                            "variables; vacuous at these parameters")


def _lemma3_1_equality_witnesses(report):
    """Add Lemma 3.1's equality witnesses to the report: the full-gap
    constructions with a zero repeated-point coefficient and every
    distinct-point coefficient nonzero, in product order, whose sub must
    equal the bound. A witness's spec is 0 on every multiset with a repeated
    value and its coefficient on each n-subset of K."""
    from .facts import SpecFacts

    k, n = report.k, report.n
    if n > k:
        report.notes.append("bound hypothesis needs n <= k; vacuous here")
        return
    if (k - 1) ** comb(k, n) > 100_000:
        report.notes.append("equality-witness family too large to sweep; skipped")
        report.subcases["equality-witness"] = {"instances": 0, "vacuous": True}
        return
    idx = symmetry_index(k, n)
    specs = np.zeros(((k - 1) ** comb(k, n), len(idx.msets)), dtype=_values(k, ()).dtype)
    specs[:, [len(set(m)) == n for m in idx.msets]] = 1 + _digits(k - 1, comb(k, n))
    sub = np.concatenate([SpecFacts(k, n, specs[lo:lo + 2000]).closure_counts[0]
                          for lo in range(0, len(specs), 2000)])
    expected = sub_bound(n, k) + sum(np.any(specs == v, axis=1) for v in range(k))
    wrong = np.flatnonzero(sub != expected)
    report.violations_total += len(wrong)
    for r in wrong[: VIOLATION_CAP - len(report.violations)].tolist():
        report.violations.append(_violation(
            FiniteFunction(k, n, specs[r, idx.orbit_of_point].tolist()),
            "lemma3_1.equality-witness", sub=int(sub[r]), expected=int(expected[r])))
    report.subcases["equality-witness"] = {
        "instances": len(specs),
        "vacuous": len(specs) == 0,
    }


def _cell_tables(k, n, budget, gap):
    """The tables of the listed gap-``gap`` cell, in ascending order; a
    cell over ``--budget`` is refused, which no sample would meet."""
    specs = _nontrivial_gap_array(k, n, budget, "--budget", gaps={gap})
    tables = specs[:, symmetry_index(k, n).orbit_of_point]
    return tables[np.argsort(_row_keys(tables))]


def _first_unshared(bucket, images):
    """The first row of the bucket outside the images, else of the images
    outside the bucket (each array ascending)."""
    for rows, other in ((bucket, images), (images, bucket)):
        outside = ~np.isin(_row_keys(rows), _row_keys(other))
        if outside.any():
            return rows[np.argmax(outside)].tolist()


def _constructive_report(name, k, n, bucket, images, fits, t0, t1):
    """The report of a classification by construction: a record first
    when the images are not the bucket (both ascending and distinct), then
    one per bucket row that ``fits`` says its coefficients do not rebuild,
    in bucket order, until ``VIOLATION_CAP`` are kept. Both were built from
    t0 to t1."""
    kept = []
    if not np.array_equal(bucket, images):
        kept.append(_violation(FiniteFunction(k, n, _first_unshared(bucket, images)),
                               f"{name}.image-equals-bucket",
                               bucket=len(bucket), image=len(images)))
    wrong = np.flatnonzero(~fits)
    total = len(kept) + len(wrong)
    kept += [_violation(FiniteFunction(k, n, bucket[r].tolist()), f"{name}.read-off")
             for r in wrong[: VIOLATION_CAP - len(kept)].tolist()]
    return _mk_report(name, k, n, "exhaustive(constructive)", {}, len(bucket), Counter(),
                      total, kept, [], _stats(0, t0, t1))


def _run_thm2_2(name, k, n, mode, seed, sample, budget):
    """Full-gap symmetric classification: the census bucket equals the image
    of the full-gap constructor, and coefficients read back off each member."""
    t0 = perf_counter()
    bucket = _cell_tables(k, n, budget, n)
    images = _gap_n_images(k, n)
    t1 = perf_counter()
    plan, reader = _gap_n_plan(k, n)
    fits = np.all(bucket[:, reader][:, plan] == bucket, axis=1)
    return _constructive_report(name, k, n, bucket, images, fits, t0, t1)


def _run_thm2_3(name, k, n, mode, seed, sample, budget):
    """Ternary gap-2 classification: census bucket equals the deduplicated
    union of the two family constructors, and each member fits one family
    with coefficients read off its table."""
    if n != 3:
        raise UnknownSuiteError("thm2_3 is a ternary claim; run it with n=3")
    if k > 4:
        # a fixed limit: no option lifts it, and the claim is not sampled
        raise BudgetError(2 * k**k * k ** comb(k, 3), DEFAULT_BUDGET, "constructions",
                          "construction limit")
    t0 = perf_counter()
    bucket = _cell_tables(k, 3, budget, 2)
    images = _ternary_images(k)
    t1 = perf_counter()
    plans, reader = _ternary_plan(k)
    coefficients = bucket[:, reader]
    # a constant diagonal fits neither family
    fits = ~_constant(coefficients[:, :k]) & np.any(
        np.all(coefficients[:, plans] == bucket[:, None], axis=2), axis=1)
    return _constructive_report(name, k, 3, bucket, images, fits, t0, t1)


def _run_thm2_1(name, k, n, mode, seed, sample, budget):
    """Full-gap form on raw tables: every repeated-point-constant table with a
    deviating all-distinct value has full gap, and (sampled) a full-gap
    all-essential table is constant on repeated points.

    The forms are one gather from the coefficient rows (a0, then one value
    per all-distinct point in table order) in product order, the all-equal
    rows left out: slot 0 on every point with a repeated coordinate, 1 + r on
    the r-th all-distinct point. Their records come first, then those of the
    converse's sample."""
    if not 2 <= n <= k:
        raise UnknownSuiteError("thm2_1 needs 2 <= n <= k")
    t0 = perf_counter()
    slots = 1 + perm(k, n)  # a0 and one per all-distinct point
    if slots > budget.bit_length() or k**slots > budget:
        # every mode sweeps all the forms, so sampling would not help
        raise BudgetError(_power(k, slots), budget, "forms", "--budget")
    _check_listing_size(k**slots, k**n, "table entries")
    if seed is None:
        raise DomainError("thm2_1's converse direction is sampled; provide an explicit seed")
    from .facts import TableFacts

    distinct = _distinct_points(k, n)
    rows = _values(k, _digits(k, slots))
    forms = rows[~_constant(rows)][:, np.where(distinct, np.cumsum(distinct), 0)]
    count = sample or 2000
    drawn = _seeded_rows(k, k**n, count, seed, 20)
    t1 = perf_counter()
    ess, g = TableFacts(k, n, forms).ess_gap
    form_wrong = (ess != n) | (g != n)
    ess, g = TableFacts(k, n, drawn).ess_gap
    converse = drawn[ess == n]
    converse_wrong = (g[ess == n] == n) != _constant(converse[:, ~distinct])
    kept = []
    for tables, wrong, assertion in ((forms, form_wrong, "thm2_1.form-has-full-gap"),
                                     (converse, converse_wrong, "thm2_1.converse-eq-constant")):
        kept += [_violation(FiniteFunction(k, n, t), assertion)
                 for t in tables[wrong][: VIOLATION_CAP - len(kept)].tolist()]
    return _mk_report(
        name, k, n, "exhaustive(form) + sample(converse)", {"seed": seed, "sample": count},
        len(forms) + len(converse), Counter(), int(form_wrong.sum() + converse_wrong.sum()),
        kept, [], _stats(count, t0, t1),
    )


def _sample_decomposable_pairs(k, n, count, seed):
    """Seeded (g, h) pairs whose recomposition is a symmetric gap-2 function.

    At n = 4 the recomposition has gap 2 exactly when g has a constant
    diagonal and every off-diagonal value v satisfies 2v = 0 mod k (so the
    doubled slot of the one-step minor goes fictive), with some off-diagonal
    value differing from twice the diagonal so the minor stays non-constant.
    Every draw is verified against the generic profile before use.
    Returns the pairs and the number of generators seeded for them, one
    per attempt.
    """
    if n != 4:
        raise UnknownSuiteError("constructed decomposition pairs cover n = 4")
    half_zero = [v for v in range(k) if (2 * v) % k == 0]
    pairs = []
    idx_g = multisets(k, 2)
    attempt = 0
    while len(pairs) < count and attempt < 80 * count:
        rng = random.Random((seed << 26) ^ attempt)
        attempt += 1
        diag = rng.randrange(k)
        gvals = {m: diag if m[0] == m[1] else rng.choice(half_zero) for m in idx_g}
        if all(v == (2 * diag) % k for m, v in gvals.items() if m[0] != m[1]):
            continue
        g = expand(SymmetricSpec(k, 2, gvals))
        hvals = {m: rng.randrange(k) if len(set(m)) == n else 0 for m in multisets(k, n)}
        h = expand(SymmetricSpec(k, n, hvals))
        f = recompose(g, h)
        p = gap_profile(f)
        if p.ess == n and p.gap == 2:
            pairs.append((g, h, f))
    return pairs, attempt


def _run_thm2_5(name, k, n, mode, seed, sample, budget):
    """Decomposition round trip: recompose a constructed (g, h) pair, then
    extract a pair from the result and recompose it bit-exactly."""
    if min(n, k) <= 3:
        raise UnknownSuiteError("thm2_5 needs 3 < min(n, k)")
    count = sample or 120
    if seed is None:
        raise DomainError("thm2_5 draws constructed pairs; provide an explicit seed")
    t0 = perf_counter()
    pairs, attempts = _sample_decomposable_pairs(k, n, count, seed)
    t1 = perf_counter()
    violations = []
    subcounts: Counter = Counter()
    for g0, h0, f in pairs:
        try:
            pair = extract_decomposition(f)
        except Exception as exc:
            violations.append(_violation(f, "thm2_5.extract-failed", error=str(exc)))
            continue
        if recompose(pair.g, pair.h).table != f.table:
            violations.append(_violation(f, "thm2_5.round-trip"))
            continue
        if not is_symmetric(pair.g) or not is_symmetric(pair.h):
            violations.append(_violation(f, "thm2_5.pair-symmetric"))
        gp = gap_profile(pair.g)
        want = 2 if gap_index(f) > 2 else n - 2
        in_class = gp.ess == n - 2 and (gp.ess < 2 or gp.gap == want)
        subcounts["g-in-stated-class" if in_class else "g-outside-stated-class"] += 1
    return _mk_report(
        name, k, n, f"sample(constructed pairs, {len(pairs)})", {"seed": seed, "sample": count},
        len(pairs), subcounts, len(violations), violations[:VIOLATION_CAP], [],
        _stats(attempts, t0, t1, len(pairs)),
    )


def _run_cor2_1(name, k, n, mode, seed, sample, budget):
    """Count of full-gap symmetric functions, decided constructively."""
    if not 2 <= n <= k:
        raise UnknownSuiteError("cor2_1 needs 2 <= n <= k")
    printed = k * comb(k, n) + 1 - k
    # one table per coefficient row that is not constant, a fixed limit
    slots = comb(k, n) + 1
    power = _power(k, slots)
    if isinstance(power, str):
        # (k^slots - k) k^n has the bits of k^(slots + n) - 1
        bits = int((slots + n) * log2(k)) + (k & (k - 1) > 0)
        raise BudgetError(_at_least(bits), LIST_LIMIT, "table entries", "construction limit")
    proof_logic = power - k
    _check_listing_size(proof_logic, k**n, "table entries", "construction limit")
    t0 = perf_counter()
    constructive = len(_gap_n_images(k, n))
    bucket = None
    if symmetric_spec_count(k, n) <= FULL_SCAN_LIMIT:
        bucket = len(_nontrivial_gap_array(k, n, budget, "--budget", gaps={n}))
    t1 = perf_counter()
    checks = [("cor2_1.constructive-count", constructive != proof_logic,
               {"constructive": constructive, "expected": proof_logic}),
              ("cor2_1.census-cross-check", bucket is not None and bucket != constructive,
               {"census": bucket, "constructive": constructive})]
    violations = [{"function": None, "assertion": assertion, "info": info}
                  for assertion, failed, info in checks if failed]
    notes = []
    if printed != proof_logic:
        notes.append(
            f"the closed-form count as printed ({printed}) disagrees with the "
            f"count implied by its own derivation ({proof_logic}); the "
            f"constructive census value {constructive} decides for the latter"
        )
    return _mk_report(
        name, k, n, "constructive-count",
        {"printed_formula": printed, "derivation_count": proof_logic,
         "census_bucket": bucket},
        constructive, Counter(), len(violations), violations, notes, _stats(0, t0, t1),
    )


# Every screened suite (``screens.SCREENS``) runs through ``_run_population``;
# the others check their claims themselves.
_SUITES = {
    **dict.fromkeys(("lemma2_1", "lemma2_2", "lemma2_3", "lemma2_4", "lemma2_5", "remark2_1",
                     "remark2_2", "thm2_4", "thm3_1", "lemma3_1", "thm3_2", "cor3_1", "thm4_1",
                     "cor4_1", "cor4_2", "willard", "thm2_6"), _run_population),
    "thm2_1": _run_thm2_1,
    "thm2_2": _run_thm2_2,
    "thm2_3": _run_thm2_3,
    "thm2_5": _run_thm2_5,
    "cor2_1": _run_cor2_1,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(
    name: str,
    k: int,
    n: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    sample: int | None = None,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> SuiteReport:
    """Run one registered suite and return its report. Every suite runs in
    this process: ``workers`` is accepted and has no effect."""
    check_domain(k, n)
    if mode not in ("exhaustive", "sample"):
        raise UnknownSuiteError(f"unknown mode {mode!r}; use exhaustive or sample")
    if sample is not None and sample < 1:
        raise DomainError(f"sample size must be at least 1, got {sample}")
    _check_seed(seed)
    runner = _SUITES.get(name)
    if runner is None:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        )
    report = runner(name, k, n, mode, seed, sample, budget)
    report.stats = {"source": report.mode, "instances": report.instances_checked,
                    **report.stats, "workers": 1}
    return report
