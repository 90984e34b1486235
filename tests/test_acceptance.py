"""Acceptance gate: one test per numbered criterion, each printing a
single 'ACCEPTANCE <id>: PASS|FAIL' line (run pytest with -s to stream).

Criterion 9 runs the subfunction-inheritance suites over three domains.
Three of those checks fail honestly: the doubled-value ternary gap-2
family defeats the restriction-class claims at n = 3 (thm3_2, cor3_1),
and reduced-table subfunction counting pushes sub(f) below 2^n for some
members (cor4_2). The witnesses are machine-checked in test_suites.py;
see README "Known red checks".
"""

import itertools
import time

import pytest

from aritygap import (
    FiniteFunction,
    LinearSpec,
    census,
    construct_linear,
    essential_count,
    gap,
    gap_profile,
    orbit_sum,
    range_size,
    restrict,
    run_suite,
    sub_bound,
    sub_count,
    separable_sets,
)
from aritygap.enumeration import enumerate_symmetric, spec_to_function, nontrivial_gap_specs
from oracles import gap2_ternary_images

WORKERS = 8


def _line(cid: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_full_gap_census_count():
    t0 = time.monotonic()
    c = census(3, 3)
    elapsed = time.monotonic() - t0
    ok = c.counts.get((3, 3)) == 6 and c.population == 59049 and elapsed < 10.0
    _line("C1", ok, f"census(3,3) bucket (ess=3,gap=3) = {c.counts.get((3, 3))} "
                    f"over {c.population} candidates in {elapsed:.2f}s")
    assert c.population == 59049
    assert c.counts.get((3, 3)) == 6
    assert elapsed < 10.0


def test_criterion_2_ternary_gap2_converse():
    # independent oracle first: classify all 59049 candidates with the
    # generic minor machinery and collect the (ess=3, gap=2) tables
    oracle_bucket = set()
    for f in enumerate_symmetric(3, 3):
        p = gap_profile(f)
        if p.ess == 3 and p.gap == 2:
            oracle_bucket.add(f.table)
    assert len(oracle_bucket) == 144

    c = census(3, 3)
    images = gap2_ternary_images(3)
    ok = c.counts.get((3, 2)) == 144 and images == oracle_bucket
    _line("C2", ok, f"census bucket {c.counts.get((3, 2))} == constructor image "
                    f"{len(images)} == oracle {len(oracle_bucket)}")
    assert c.counts.get((3, 2)) == 144
    assert images == oracle_bucket


def test_criterion_3_dichotomy_census_3_4():
    t0 = time.monotonic()
    c = census(3, 4, workers=WORKERS)
    elapsed = time.monotonic() - t0
    bucket_gap3 = c.counts.get((4, 3), 0)
    ok = bucket_gap3 == 0 and c.population == 14348907 and elapsed < 300.0
    _line("C3", ok, f"census(3,4) found {bucket_gap3} functions with ess=4, gap=3 "
                    f"among {c.population} in {elapsed:.1f}s ({WORKERS} workers)")
    assert c.population == 14348907
    assert bucket_gap3 == 0
    assert c.counts.get((4, 2)) == 78
    assert elapsed < 300.0


def _oracle_sub_count(f):
    """Independent closure: plain recursion over essential-variable fixings,
    reduced tables compared directly, constants merged by value."""

    def eval_at(table, k, arity, point):
        idx = 0
        for c in point:
            idx = idx * k + c
        return table[idx]

    def essentials(table, k, arity):
        out = []
        for i in range(arity):
            hit = False
            for point in itertools.product(range(k), repeat=arity):
                for b in range(k):
                    q = point[:i] + (b,) + point[i + 1 :]
                    if eval_at(table, k, arity, point) != eval_at(table, k, arity, q):
                        hit = True
                        break
                if hit:
                    break
            if hit:
                out.append(i)
        return out

    def fix(table, k, arity, pos, c):
        out = []
        for point in itertools.product(range(k), repeat=arity - 1):
            full = point[:pos] + (c,) + point[pos:]
            out.append(eval_at(table, k, arity, full))
        return tuple(out)

    found = set()
    stack = [(f.table, f.n)]
    seen_states = set()
    while stack:
        table, arity = stack.pop()
        for pos in essentials(table, f.k, arity):
            for c in range(f.k):
                child = fix(table, f.k, arity, pos, c)
                if len(set(child)) == 1:
                    found.add(("const", child[0]))
                else:
                    found.add(("fn", arity - 1, child))
                state = (child, arity - 1)
                if state not in seen_states:
                    seen_states.add(state)
                    stack.append(state)
    return len(found)


def test_criterion_4_two_orbit_fixture():
    f1 = orbit_sum(3, (0, 1, 3), 4)
    f2 = orbit_sum(3, (0, 2, 3), 4)
    f = FiniteFunction(4, 3, [(a + b) % 4 for a, b in zip(f1.table, f2.table)])

    assert gap(f) == 3
    r01 = restrict(restrict(f, 1, 0), 1, 1)
    r02 = restrict(restrict(f, 1, 0), 1, 2)
    assert r01 == r02 == FiniteFunction(4, 1, [0, 0, 0, 1])
    r13 = restrict(restrict(f, 1, 1), 1, 3)
    r23 = restrict(restrict(f, 1, 2), 1, 3)
    assert r13 == r23 == FiniteFunction(4, 1, [1, 0, 0, 0])
    assert restrict(restrict(f, 1, 1), 1, 2) == FiniteFunction(4, 1, [0, 0, 0, 0])

    oracle = _oracle_sub_count(f)
    got = sub_count(f)
    stated_total = 10
    agreement = "agrees with" if got == stated_total else "DISAGREES with"
    _line(
        "C4",
        got == oracle,
        f"fixture gap=3, subfunction identities hold, sub(f)={got} matches the "
        f"independent closure ({oracle}) and {agreement} the previously stated "
        f"total {stated_total}",
    )
    assert got == oracle


def test_criterion_5_equality_case():
    f = orbit_sum(3, (0, 1, 2), 3)
    sub = sub_count(f)
    sep = separable_sets(f).sep_count
    expected = sub_bound(3, 3) + range_size(f)
    ok = sub == expected == 8 and sep == 8
    _line("C5", ok, f"sub(f)={sub} == bound+range={expected}, sep(f)={sep} == 8")
    assert sub == 8 and expected == 8 and sep == 8


def test_criterion_6_linear_gap_parity():
    failures = []
    for k in (2, 4):
        for n in (2, 3, 4):
            for const in range(k):
                f = construct_linear(k, LinearSpec((k // 2,) * n, const))
                if essential_count(f) != n or gap(f) != 2:
                    failures.append((k, n, const))
    for k in (3, 5):
        report = run_suite("thm2_6", k, 3)
        if not report.passed:
            failures.append((k, 3, "suite"))
    ok = not failures
    _line("C6", ok, "even-radix all-half-coefficient maps have gap 2; odd-radix "
                    "all-essential linear maps have gap 1; exceptions: "
                    f"{failures or 'none'}")
    assert not failures


def test_criterion_7_gap2_structural_suite():
    reports = {
        name: run_suite(name, 3, 4) for name in
        ("lemma2_4", "lemma2_5", "remark2_2", "thm2_4")
    }
    c = census(3, 4)
    inds = set(c.ind_distribution)
    ok = all(r.passed for r in reports.values()) and inds <= {1, 2}
    detail = ", ".join(
        f"{name}: {r.violations_total} violations/{r.instances_checked} instances"
        for name, r in reports.items()
    )
    _line("C7", ok, detail + f"; gap-index values {sorted(inds)}")
    for name, r in reports.items():
        assert r.passed, name
        assert r.instances_checked == 78, name
    assert inds <= {1, 2}


def test_criterion_8_decomposition_round_trip():
    report = run_suite("thm2_5", 4, 4, seed=2026, sample=110)
    ok = report.passed and report.instances_checked >= 100
    _line("C8", ok, f"{report.instances_checked} constructed pairs round-tripped, "
                    f"{report.violations_total} failures")
    assert report.instances_checked >= 100
    assert report.passed


_C9_DOMAINS = ((3, 3), (4, 3), (3, 4))
_C9_SUITES = ("thm3_1", "thm3_2", "cor3_1", "lemma2_1", "thm4_1", "cor4_1", "cor4_2")


@pytest.mark.parametrize("suite", _C9_SUITES)
@pytest.mark.parametrize("k,n", _C9_DOMAINS)
def test_criterion_9_inheritance_suites(suite, k, n):
    report = run_suite(suite, k, n, workers=WORKERS)
    tag = f"C9[{suite}@({k},{n})]"
    if report.vacuous:
        _line(tag, True, "vacuous (reported, not silent)")
        assert report.passed
        return
    if suite == "thm3_2":
        assert report.subcases["i"]["vacuous"], "subcase (i) must be flagged vacuous below n=6"
    _line(
        tag,
        report.passed,
        f"{report.violations_total} violations over {report.instances_checked} instances",
    )
    if not report.passed:
        pytest.fail(
            f"{suite} at (k={k}, n={n}): {report.violations_total} genuine "
            f"violations; the first witness is "
            f"{report.violations[0]['function']} failing "
            f"{report.violations[0]['assertion']}. Known counterexample family "
            f"under the adopted conventions; see README 'Known red checks'."
        )


def test_criterion_10_willard_sanity():
    report = run_suite("willard", 2, 3, seed=2026, sample=10000)
    ok = report.passed
    _line("C10", ok, f"{report.instances_checked} all-essential samples out of "
                     f"10000, {report.violations_total} gap bound violations")
    assert report.passed
