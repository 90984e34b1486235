"""The batched fact screens of the population suites against their oracles.

``aritygap.facts`` computes, for a whole chunk of multiset specs or raw
tables at once, the facts the claims are about, and ``screens.SCREENS`` turns
them into each row's instance flag, subcase counts and violations; every
screen writes its own records. Here every batched fact is checked against
the per-function code it stands for (the two subfunction closures, the
minor closure, ``gap_profile``, ``essential_count`` and ``gap``, the
dominant functions), every screen's records against the per-instance
checker of its claim (``oracles.ORACLES``), record by record and in order,
and the reports against sha256 digests recorded from the program as it was
before the screens: every instance then went through its checker.
"""

import hashlib
import itertools
import os
import random
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aritygap import FiniteFunction, TernaryGap2Spec
from aritygap.cli import main
from aritygap.enumeration import (
    _fictive_reps,
    nontrivial_gap_specs,
    spec_to_function,
    symmetry_index,
)
from aritygap import minors, screens
from aritygap.facts import SpecFacts, TableFacts
from aritygap.records import lemma2_1_violations
from aritygap.screens import SCREENS, TABLE_SCREENS
from aritygap.minors import all_minors, essential_count, gap, gap_index, gap_profile
from aritygap.subfunctions import dominants, restrict, weak_dominants
from aritygap.suites import (
    VIOLATION_CAP,
    _sample_gap2_specs,
    _screened_chunk,
    _violation,
    run_suite,
)
from aritygap.symmetric import construct_gap2_ternary, diagonal_values, is_symmetric, multisets
import oracles
from oracles import (
    ORACLES,
    closure_generic,
    closure_symmetric,
    lemma2_1_records,
    slice_flags,
    spec_ess_gap,
)
from table_strategies import table_chunks

# (verify arguments, exit code, sha256 of the JSON report)
GOLDEN = [
    ("thm3_1 -k 4 -n 3", 0,
     "9b30a71356b1d40af89cf11a1ffcc47ebf73449fce47f027c390f9ed9d59dfbb"),
    ("thm3_1 -k 3 -n 3", 0,
     "6c93051a836c9047854877bc817106aa3547247c370b7e73bbe7d49698cd23d0"),
    ("thm3_2 -k 4 -n 3", 1,
     "51eac9dea6fa3aa97dd16b4b6bdaa7fa7d32bdaf2e2f354645c93bc220af27a8"),
    ("thm3_2 -k 3 -n 3", 1,
     "ed269ab8301f2158d681b6707bb1c9e01402f2c253051dd874f53317f608fd2a"),
    ("cor3_1 -k 4 -n 3", 1,
     "0833e34246030529027aa9ebc6110cf91ff09479d724bb3a0625977a96dab4e3"),
    ("cor3_1 -k 3 -n 3", 1,
     "788be11c6c8eaa07dad818e180b2668a0865fef8ba97315437408c007835ccd6"),
    ("lemma2_1 -k 4 -n 3", 0,
     "a547b2762e4db63dfb08fabd47f5d2f6a6c0b9e8f8a7e160cdd7e872efc09b3b"),
    ("lemma2_1 -k 3 -n 3", 0,
     "6b2a4a83fb94f1acd6f05af790daa2f89e227976823dc330b43da023f204d453"),
    ("thm4_1 -k 4 -n 3", 0,
     "a62eaf27eef8ce629d785a64d8fba7b99f4d8634cc8dbd67fe606b309ab0d578"),
    ("thm4_1 -k 3 -n 3", 0,
     "367d001349f95a01488275680894f9612c137f35c5b3b157ffd852f7cf037f01"),
    ("cor4_1 -k 4 -n 3", 0,
     "2038e63741cd03ea551b9b4ab933d1d769fe4b797e15c2b4128c738ab84ae11c"),
    ("cor4_1 -k 3 -n 3", 0,
     "d5d75789f46f81216ed71744844a911b3484615c3adad76566d799a956382adf"),
    ("cor4_2 -k 4 -n 3", 1,
     "1408d307c7aa8b69ea4378ea5b8c4102757f156c150d8d43e545131910057cb7"),
    ("cor4_2 -k 3 -n 3", 1,
     "7a54469de075b1ec75c9a8eb9d2dd375198c683c994bf87211a404f3fae2a411"),
    ("thm2_3 -k 4 -n 3", 0,
     "19d734f3fd6561e4f8c87a21d25b3f84843b7a03903b7e5795400b409f6f500e"),
    ("thm3_2 -k 4 -n 4 --mode sample --seed 1 --sample 300", 0,
     "6b3056d7b3462d8b6f5ca3c13e720e7a2e2f7addd0d60cff8a352445fc077336"),
    ("thm3_2 -k 4 -n 4 --mode sample --seed 2 --sample 300", 0,
     "c94601fc05ac2bac3e824e1d6f2188bf0096dd273305c70e4b2dd7f96b3139a4"),
    ("cor3_1 -k 4 -n 4 --mode sample --seed 1 --sample 300", 0,
     "5187a981cf2fa6698248b9b3c104d2126669837d87e7d34d4c9bbd979e42cf64"),
    ("cor3_1 -k 4 -n 4 --mode sample --seed 2 --sample 300", 0,
     "dc7fda4b59e0941f80eb1255040b66d23701804830e59170036cb889a95ce75b"),
    ("thm4_1 -k 4 -n 4 --mode sample --seed 1 --sample 300", 0,
     "07375619a5e4385180f77fe9e733ac7b2cdc1eb089720b6b4f13355a21ab6b96"),
    ("thm4_1 -k 4 -n 4 --mode sample --seed 2 --sample 300", 0,
     "2b76813c9fc0ea49ff9c631bc8830dde59940ef1f3e1b99cf13603f5fb4e8608"),
    ("cor4_1 -k 4 -n 4 --mode sample --seed 1 --sample 300", 0,
     "3cc6eec224aa8bcaf9730174f2fb41ffd11df253b56ec6b0c1c9051e568dd63c"),
    ("cor4_1 -k 4 -n 4 --mode sample --seed 2 --sample 300", 0,
     "8d1696d4a4ebb1462b5cdca6fa2ac2fc88bb798bc3055819fe37c58604d33025"),
    ("cor4_2 -k 4 -n 4 --mode sample --seed 1 --sample 300", 1,
     "8381fd826494569c0f96561097ef8dcc06c1d1fd72f2369b39bcf93947d30f25"),
    ("cor4_2 -k 4 -n 4 --mode sample --seed 2 --sample 300", 1,
     "66e2fb410be8c7a9628bcfa939a573c3ca1c3f1e681ca8bfc56971b58a6e3163"),
    ("lemma2_4 -k 4 -n 4 --mode sample --seed 1 --sample 300", 0,
     "bdbc65c402b83286c622d76423960207d0556931cc6d8bcb35cb67e96cd90079"),
    ("lemma2_4 -k 4 -n 4 --mode sample --seed 2 --sample 300", 0,
     "d0d972487c93f1ab38eb47b47a5ca1bcc4ae014175376c39ffff884e43c5665f"),
    ("lemma2_5 -k 4 -n 4 --mode sample --seed 1 --sample 300", 0,
     "e430715459281ab06245928a14833cd025e07a7bb525abaec1b134de495f6d4c"),
    ("lemma2_5 -k 4 -n 4 --mode sample --seed 2 --sample 300", 0,
     "283742bcb9ab76d2ea01dfb4ea2f29a78796b910bdcc39fa45609dde785be1aa"),
    ("remark2_2 -k 4 -n 4 --mode sample --seed 1 --sample 300", 0,
     "e5c7ca096689ba012e14a4504dc3449ccb6d7efd60d1b2b8941c302b7b4a4ca5"),
    ("remark2_2 -k 4 -n 4 --mode sample --seed 2 --sample 300", 0,
     "87ae990b0e9527aedcb51888764f8a2fc509b8dd65e630d995f198b16c5691fa"),
    ("thm2_4 -k 4 -n 4 --mode sample --seed 1 --sample 300", 0,
     "50d6b93336c44d53b663a249d0327a99744284b019b0f7d1d8c473bf6cc33dd8"),
    ("thm2_4 -k 4 -n 4 --mode sample --seed 2 --sample 300", 0,
     "3753286f54e6313ca759dd3cf20713407b968e79b6492e5921a6d9596e807f4f"),
    ("lemma2_1 -k 4 -n 4 --mode sample --seed 1 --sample 300", 0,
     "e7a840ddec60b433609f2030233c8dd001130c29c5ba697c5b7249f44c88749a"),
    ("lemma2_1 -k 4 -n 4 --mode sample --seed 2 --sample 300", 0,
     "d5ee203e86b837c2d668815d1d515ce1e644cfaf4fc3ca6c6c17f6e3a97c2f88"),
]


@pytest.mark.parametrize("args,exit_code,digest", GOLDEN)
def test_report_unchanged(capsys, args, exit_code, digest):
    code = main(["verify", *args.split(), "--format", "json"])
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_stats_go_to_stderr_only(capsys):
    argv = ["verify", "cor4_2", "-k", "3", "-n", "3", "--format", "json"]
    main(argv)
    plain = capsys.readouterr()
    main(argv + ["--stats"])
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out
    assert plain.err == ""
    (line,) = with_stats.err.splitlines()
    assert line.startswith("stats: population=exhaustive(non-trivial gap) instances=150 "
                           "draws=0 ")
    for key in ("checker_rows=", "build_s=", "check_s=", "merge_s=", "workers=1"):
        assert key in line


@pytest.mark.parametrize("args,draws", [
    ("cor4_2 -k 4 -n 4 --mode sample --seed 1 --sample 300", 300),
    ("cor4_2 -k 3 -n 4 --mode sample --seed 1 --sample 300", 309),
    ("cor4_2 -k 2 -n 4 --mode sample --seed 1 --sample 300", 598),
    ("lemma2_1 -k 4 -n 4 --mode sample --seed 1 --sample 300", 300),
    ("willard -k 3 -n 3 --seed 1", 10000),
    ("thm4_1 -k 3 -n 5 --mode sample --seed 1 --sample 5", 5),
    ("thm2_1 -k 3 -n 3 --seed 1 --sample 20", 20),
])
def test_stats_count_the_generators_seeded(capsys, args, draws):
    # a gap-2 sample seeds one generator per attempt, kept or not: the
    # acceptance rate is the kept count over the draws
    main(["verify", *args.split(), "--format", "json", "--stats"])
    (line,) = capsys.readouterr().err.splitlines()
    assert f" draws={draws} checker_rows=" in line


@pytest.mark.parametrize("args,fields", [
    ("thm2_1 -k 3 -n 3 --seed 1 --sample 20", "instances=2204 draws=20 checker_rows=0"),
    ("thm2_2 -k 4 -n 4", "instances=12 draws=0 checker_rows=0"),
    ("thm2_3 -k 4 -n 3", "instances=129024 draws=0 checker_rows=0"),
    ("cor2_1 -k 4 -n 2", "instances=16380 draws=0 checker_rows=0"),
    ("thm2_5 -k 6 -n 4 --seed 1 --sample 5", "instances=5 draws=10 checker_rows=5"),
])
def test_stats_of_the_runners_outside_the_population_runner(capsys, args, fields):
    # these runners used to get checker_rows = instances and build_s = 0
    # whatever they did: thm2_3 at (4, 3) printed checker_rows=129024
    # build_s=0.000 while it decides every member on arrays and spends most
    # of its time listing the cell and the images
    main(["verify", *args.split(), "--format", "json", "--stats", "-o", os.devnull])
    (line,) = capsys.readouterr().err.splitlines()
    assert f" {fields} build_s=" in line
    if args.startswith("thm2_3"):
        assert " build_s=0.000 " not in line


@pytest.mark.parametrize("suite,violations", [("cor4_2", 168), ("thm3_2", 258048)])
def test_screened_reports_same_through_the_pool(suite, violations):
    # violations fall in many of the 65 chunks, and the record cap is reached
    docs = [run_suite(suite, 4, 3, workers=w).to_doc() for w in (1, 2)]
    assert docs[0]["violations_total"] == violations
    assert len(docs[0]["violations"]) == VIOLATION_CAP
    assert docs[0] == docs[1]


def test_screened_suite_starts_no_pool(capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    argv = ["verify", "thm3_2", "-k", "4", "-n", "3", "--format", "json", "--stats"]
    assert main(argv + ["--workers", "2"]) == 1
    two = capsys.readouterr()
    assert main(argv) == 1
    one = capsys.readouterr()
    assert two.out == one.out
    assert hashlib.sha256(two.out.encode()).hexdigest() == dict(
        (a, d) for a, _, d in GOLDEN)["thm3_2 -k 4 -n 3"]
    # one serial pass keeps only the records still wanted
    assert " checker_rows=25 " in two.err and two.err.rstrip().endswith(" workers=1")


# ---------------------------------------------------------------------------
# batched facts against their oracles

DOMAINS = [(k, n) for k in range(2, 5) for n in range(0, 6)]
# the per-table oracles walk closures of k^n-entry tables; keep them small
TABLE_LIMIT = 256


@st.composite
def chunks(draw, domains=DOMAINS):
    """A (k, n) and a few specs there: uniform, over two values (so that
    restrictions turn constant), or with y fictive, z fictive or both (the
    gap >= 2 class, its gap-n cell and the constants)."""
    k, n = draw(st.sampled_from(domains))
    m = comb(k + n - 1, n)
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("uniform", "binary", "fictive")))
        top = 1 if kind == "binary" else k - 1
        spec = [draw(st.integers(0, top)) for _ in range(m)]
        if kind == "fictive" and n >= 2:
            comps = draw(st.sampled_from(_fictive_reps(k, n)))
            spec = [spec[r] for r in comps.rep.tolist()]  # constant on each component
        specs.append(tuple(spec))
    return k, n, specs


def _none(g):
    return -1 if g is None else g


@given(chunks())
@settings(max_examples=80, deadline=None)
def test_closure_counts_equal_the_closures(chunk):
    k, n, specs = chunk
    sub, sep = SpecFacts(k, n, specs).closure_counts
    for i, spec in enumerate(specs):
        f = spec_to_function(k, n, spec)
        closures = [closure_symmetric(f)]
        if k**n <= TABLE_LIMIT:
            closures.append(closure_generic(f))
        for closure in closures:
            assert (sub[i], sep[i]) == (closure.sub_count, closure.sep_count), spec


@given(chunks([(k, n) for k, n in DOMAINS if k**n <= TABLE_LIMIT]))
@settings(max_examples=60, deadline=None)
def test_shape_gap_index_equals_the_minor_closure(chunk):
    k, n, specs = chunk
    facts = SpecFacts(k, n, specs)
    ess, gap = facts.ess_gap
    for i, spec in enumerate(specs):
        assert (ess[i], gap[i]) == tuple(map(_none, spec_ess_gap(k, n, spec)))
        if ess[i] >= 2:
            assert facts.gap_index[i] == gap_index(spec_to_function(k, n, spec)), spec


@given(chunks([(k, n) for k, n in DOMAINS if n >= 1 and k**n <= TABLE_LIMIT]))
@settings(max_examples=60, deadline=None)
def test_restriction_profiles_equal_gap_profile(chunk):
    k, n, specs = chunk
    facts = SpecFacts(k, n, specs)
    for o in range(1, n + 1):
        ess, gap = facts.restriction_ess_gap(o)
        for i, spec in enumerate(specs):
            for j, mu in enumerate(itertools.combinations_with_replacement(range(k), o)):
                t = spec_to_function(k, n, spec)
                for c in mu:
                    t = restrict(t, t.n, c)
                p = gap_profile(t)
                assert (ess[i, j], gap[i, j]) == (p.ess, _none(p.gap)), (spec, mu)
    for i, spec in enumerate(specs):
        f = spec_to_function(k, n, spec)
        if essential_count(f) != n:
            continue
        assert set(np.flatnonzero(facts.dominants[i])) == dominants(f)
        if n >= 3 and spec_ess_gap(k, n, spec)[1] == 2:
            assert set(np.flatnonzero(facts.weak_dominants[i])) == weak_dominants(f)


def _oracle_ess_gap(k, n, table):
    f = FiniteFunction(k, n, table)
    ess = essential_count(f)
    return ess, gap(f) if ess >= 2 else -1


@given(table_chunks())
@settings(max_examples=100, deadline=None)
def test_table_facts_equal_essential_count_and_gap(chunk):
    k, n, tables = chunk
    ess, gaps = TableFacts(k, n, tables).ess_gap
    for i, table in enumerate(tables):
        assert (ess[i], gaps[i]) == _oracle_ess_gap(k, n, table), table


def test_table_facts_in_small_chunks_equal_the_oracle(monkeypatch):
    rng = random.Random(8)
    for k, n in [(2, 4), (3, 3), (4, 3), (3, 4), (2, 5)]:
        tables = [tuple(rng.randrange(k) for _ in range(k**n)) for _ in range(8)]
        # x_1 forced fictive, the constants and members with gap >= 2
        tables += [t[: k ** (n - 1)] * k for t in tables[:4]]
        tables += [(c,) * k**n for c in range(k)]
        tables += [spec_to_function(k, n, s).table for s in nontrivial_gap_specs(k, n)[:6]]
        whole = TableFacts(k, n, tables).ess_gap
        monkeypatch.setattr(minors, "_CHUNK", 16)
        chunked = TableFacts(k, n, tables).ess_gap
        monkeypatch.undo()
        assert [list(a) for a in chunked] == [list(a) for a in whole]
        assert list(zip(*map(list, chunked))) == [_oracle_ess_gap(k, n, t) for t in tables]


@given(chunks([(k, n) for k, n in DOMAINS if k**n <= TABLE_LIMIT]))
@settings(max_examples=80, deadline=None)
def test_asymmetric_minor_flag_equals_the_minor_closure(chunk):
    k, n, specs = chunk
    found, _ = screens._verdict_remark2_1(SpecFacts(k, n, specs))
    for i, spec in enumerate(specs):
        minor_tables = all_minors(spec_to_function(k, n, spec))
        assert found.mask[i].sum() == sum(not is_symmetric(r.function) for r in minor_tables)


def test_asymmetric_minor_flag_on_known_specs():
    # s = [the multiset is {0, 0, 1}]: x_1 := x_2 gives s({x_2, x_2, x_3}),
    # which is 1 at (0, 1) and 0 at (1, 0); parity gives x_3 alone
    found, _ = screens._verdict_remark2_1(SpecFacts(2, 3, [(0, 1, 0, 0), (0, 1, 0, 1)]))
    assert list(found.mask.any(axis=1)) == [True, False]


def test_spec_facts_keep_values_over_255():
    # 256 is 0 in uint8, which would make this row constant
    assert list(SpecFacts(300, 1, [(256,) + (0,) * 299]).ess_gap[0]) == [1]


@pytest.mark.parametrize("name", sorted(set(SCREENS) - TABLE_SCREENS))
def test_shape_screens_are_the_verdicts_that_read_the_shapes(name):
    # a sample of a screen that reads the shapes is sized by the k^n table
    # entries they gather per row, so SHAPE_SCREENS must name exactly the
    # verdicts that do
    ran = []
    for k, n in ((2, 3), (3, 3), (2, 4), (3, 4), (2, 5)):
        facts = SpecFacts(k, n, nontrivial_gap_specs(k, n))
        hypothesis, verdict = SCREENS[name]
        instance = hypothesis(facts)
        if instance.any():
            verdict(facts)
            assert ("_shape_tables" in facts.__dict__) == screens.reads_shapes(name, n), (k, n)
            ran.append(n)
    assert ran


def screened_rows(name, k, n, rows):
    """Each row's instance flag, violation count and subcounts, the verdict
    applied to every row; ``rows`` are raw tables for a screen of
    ``TABLE_SCREENS``, else specs."""
    facts = (TableFacts if name in TABLE_SCREENS else SpecFacts)(k, n, rows)
    hypothesis, verdict = SCREENS[name]
    instance = hypothesis(facts)
    if not instance.any():
        return instance, np.zeros(len(rows), dtype=int), {}
    found, per_row = verdict(facts)
    return instance, found.mask.sum(axis=1), per_row


def oracle_chunk(name, k, n, rows, **kwargs):
    """What ``_screened_chunk`` returns for ``rows``, all records kept, from
    the per-instance oracle of the claim."""
    instances, total, subcounts, records, flagged = 0, 0, Counter(), [], 0
    for row in rows:
        out = ORACLES[name](k, n, tuple(row), **kwargs)
        if out is None:
            continue
        instances += 1
        subcounts.update(out[0])
        total += len(out[1])
        records.extend(out[1])
        flagged += bool(out[1])
    return instances, subcounts, total, records, flagged


def assert_chunk_equals_the_oracle(name, k, n, rows, **kwargs):
    got = _screened_chunk(name, k, n, np.array(rows).reshape(len(rows), -1), 1 << 40)
    want = oracle_chunk(name, k, n, rows, **kwargs)
    # the same records in the same order, every flagged row read for them
    assert got == want, name
    return got


@pytest.mark.parametrize("name", sorted(SCREENS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_violation_counts_equal_the_checkers(name, data):
    domains = [(k, n) for k, n in DOMAINS if k**n <= TABLE_LIMIT]
    k, n, rows = data.draw(table_chunks() if name in TABLE_SCREENS else chunks(domains))
    instance, counts, per_row = screened_rows(name, k, n, rows)
    for i, row in enumerate(rows):
        out = ORACLES[name](k, n, row)
        assert (out is not None) == instance[i], row
        if out is None:
            continue
        sc, violations = out
        assert len(violations) == counts[i], row
        assert sc == Counter({key: int(v[i]) for key, v in per_row.items() if v[i]})
    if instance.any():
        assert_chunk_equals_the_oracle(name, k, n, rows)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (4, 3), (3, 4)])
def test_every_listed_member_screened_like_its_checker(k, n):
    # a stride through the whole gap >= 2 class, every screened suite
    specs = nontrivial_gap_specs(k, n)[:: max(1, len(nontrivial_gap_specs(k, n)) // 150)]
    tables = [spec_to_function(k, n, spec).table for spec in specs]
    for name in sorted(SCREENS):
        rows = tables if name in TABLE_SCREENS else specs
        instance, counts, _ = screened_rows(name, k, n, rows)
        for i, row in enumerate(rows):
            out = ORACLES[name](k, n, row)
            assert (out is not None) == instance[i], (name, row)
            if out is not None:
                assert len(out[1]) == counts[i], (name, row)


# every record of the class at (3, 3), (3, 4) and (3, 5), and of every 65th
# member at (4, 3)
RECORD_CLASSES = [(3, 3, 1), (3, 4, 1), (3, 5, 1), (4, 3, 65)]


@pytest.mark.parametrize("k,n,stride", RECORD_CLASSES)
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_every_record_equals_the_oracle(name, k, n, stride):
    specs = nontrivial_gap_specs(k, n)[::stride]
    rows = [spec_to_function(k, n, s).table for s in specs] if name in TABLE_SCREENS else specs
    assert_chunk_equals_the_oracle(name, k, n, rows)


def spread_rows(k, n):
    """Every spec at (k, n) while there are at most 5 000, else a seeded
    sample of 600, followed by the listed gap >= 2 class (every m-th member,
    so that at most about 2 000 are taken)."""
    width = comb(k + n - 1, n)
    if k**width <= 5000:
        rows = list(itertools.product(range(k), repeat=width))
    else:
        rng = random.Random(100 * k + n)
        rows = [tuple(rng.randrange(k) for _ in range(width)) for _ in range(600)]
    listed = nontrivial_gap_specs(k, n)
    return list(dict.fromkeys(rows + listed[:: 1 + len(listed) // 2000]))


# Claims that no listed instance violates, or few. The first nine are
# evaluated without their hypothesis, on rows where their conclusion is
# defined, and some of those rows violate them. The conclusions of the other
# three read only facts that their hypothesis pins (the gap, the diagonal),
# so one fact is shifted alike for the screen and the oracle: the gap by one
# where it is at least 2, the diagonal value at c by c (mod k).
WITHOUT_HYPOTHESIS = {
    "thm3_1": [(2, 3), (3, 3), (2, 4)],
    "thm4_1": [(2, 3), (3, 2)],
    "cor4_1": [(2, 3), (3, 2)],
    "lemma2_4": [(2, 4), (2, 5), (3, 4)],
    "lemma3_1": [(3, 2), (3, 3), (4, 2)],
    "lemma2_5": [(2, 3), (3, 3), (2, 4), (3, 4)],
    "remark2_2": [(2, 3), (3, 3), (2, 4), (3, 4)],
    "remark2_1": [(2, 3), (3, 3), (2, 4), (3, 4)],
    "lemma2_3": [(2, 4), (3, 4), (2, 5)],
}
# the claims that identify essential variables or read the gap index, which
# are defined on all-essential rows only
ALL_ESSENTIAL = {"lemma2_4", "lemma2_5", "remark2_2", "lemma2_3"}
SHIFTED = {"lemma2_2": [(3, 4), (4, 4)], "willard": [(2, 3), (3, 3), (2, 4)],
           "thm2_4": [(3, 3), (4, 3), (3, 4)]}


def shift_gap(g):
    return g + 1 if g is not None and g >= 2 else g


def shift_gaps(ess, gap):
    return ess, np.where(gap >= 2, gap + 1, gap)


def shifted_spec_ess_gap(k, n, spec):
    ess, g = spec_ess_gap(k, n, spec)
    return ess, shift_gap(g)


def shift_diagonal(diag, k):
    return (np.asarray(diag) + np.arange(k)) % k


@pytest.mark.parametrize("name", sorted(WITHOUT_HYPOTHESIS))
def test_every_writer_against_the_oracle_without_the_hypothesis(monkeypatch, name):
    monkeypatch.setitem(SCREENS, name, (lambda f: f.ess_gap[0] >= 0, SCREENS[name][1]))
    total = 0
    for k, n in WITHOUT_HYPOTHESIS[name]:
        rows = spread_rows(k, n)
        if name in TABLE_SCREENS:
            rng = random.Random(k + n)
            rows = [spec_to_function(k, n, r).table for r in rows[::4]]
            rows += [tuple(rng.randrange(k) for _ in range(k**n)) for _ in range(100)]
        if name in ALL_ESSENTIAL:
            as_function = FiniteFunction if name in TABLE_SCREENS else spec_to_function
            rows = [r for r in rows if essential_count(as_function(k, n, r)) == n]
        total += assert_chunk_equals_the_oracle(name, k, n, rows, hypothesis=False)[2]
    assert total > 0


@pytest.mark.parametrize("name", sorted(SHIFTED))
def test_every_writer_against_the_oracle_on_a_shifted_fact(monkeypatch, name):
    if name == "thm2_4":
        real = SpecFacts.__dict__["diagonal"].func
        monkeypatch.setattr(SpecFacts, "diagonal",
                            property(lambda f: shift_diagonal(real(f), f.k)))
        monkeypatch.setattr(oracles, "diagonal_values", lambda f: tuple(
            shift_diagonal(diagonal_values(f), f.k).tolist()))
    else:
        cls = TableFacts if name == "willard" else SpecFacts
        real = cls.__dict__["ess_gap"].func
        monkeypatch.setattr(cls, "ess_gap", property(lambda f: shift_gaps(*real(f))))
        monkeypatch.setattr(oracles, "gap", lambda f: shift_gap(gap(f)))
        monkeypatch.setattr(oracles, "spec_ess_gap", shifted_spec_ess_gap)
    total = 0
    for k, n in SHIFTED[name]:
        rows = spread_rows(k, n)
        if name == "willard":
            rows = [spec_to_function(k, n, r).table for r in rows]
            rng = random.Random(k + n)
            rows += [tuple(rng.randrange(k) for _ in range(k**n)) for _ in range(200)]
        total += assert_chunk_equals_the_oracle(name, k, n, rows)[2]
    assert total > 0


def loop_slice_flag(k, n, table):
    """Whether some restriction fixing 1 <= o < n positions has
    0 < ess < n - o or is not symmetric, one restriction at a time."""
    f = FiniteFunction(k, n, table)
    for o in range(1, n):
        for fixed in itertools.combinations(range(1, n + 1), o):
            for consts in itertools.product(range(k), repeat=o):
                g = f
                for p, c in sorted(zip(fixed, consts), reverse=True):
                    g = restrict(g, p, c)
                e = essential_count(g)
                if 0 < e != g.n or not is_symmetric(g):
                    return True
    return False


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_slice_screen_equals_loop(data):
    k, n = data.draw(st.sampled_from([(k, n) for k, n in DOMAINS if k**n <= 81]))
    tables = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            m = comb(k + n - 1, n)
            spec = tuple(data.draw(st.integers(0, k - 1)) for _ in range(m))
            table = list(spec_to_function(k, n, spec).table)
            if data.draw(st.booleans()):  # one changed entry
                j = data.draw(st.integers(0, k**n - 1))
                table[j] = (table[j] + 1) % k
        else:
            table = [data.draw(st.integers(0, k - 1)) for _ in range(k**n)]
        tables.append(table)
    flags = slice_flags(k, n, tables)
    assert list(flags) == [loop_slice_flag(k, n, t) for t in tables]


def test_slice_screen_flags_a_non_symmetric_table():
    # x1 AND NOT x2, padded with a fictive x3: fixing x3 leaves a
    # non-symmetric function of two essential variables
    table = [int(x1 == 1 and x2 == 0) for x1, x2, x3 in itertools.product(range(2), repeat=3)]
    assert list(slice_flags(2, 3, [table])) == [True]
    symmetric = list(spec_to_function(2, 3, (0, 1, 1, 0)).table)
    assert list(slice_flags(2, 3, [symmetric])) == [False]


@pytest.mark.parametrize("k,n", [(3, 3), (4, 3)])
def test_lemma2_1_screen_equals_the_slice_oracle(k, n):
    # the full spec space at (3, 3), the gap >= 2 class at (4, 3): every
    # expanded order-o restriction is the slice of the expanded table at
    # each set of o fixed positions with that multiset of constants, and
    # the screen flags what the oracle flags on the expanded tables
    if (k, n) == (3, 3):
        specs = list(itertools.product(range(k), repeat=comb(k + n - 1, n)))
    else:
        specs = nontrivial_gap_specs(k, n)
    facts = SpecFacts(k, n, specs)
    tables = facts.specs[:, symmetry_index(k, n).orbit_of_point]
    cube = tables.reshape((len(specs),) + (k,) * n)
    for o in range(1, n):
        expanded = facts.restriction(o)[:, :, symmetry_index(k, n - o).orbit_of_point]
        for j, mu in enumerate(multisets(k, o)):
            for fixed in itertools.combinations(range(n), o):
                for consts in set(itertools.permutations(mu)):
                    at = [slice(None)] * (n + 1)
                    for p, c in zip(fixed, consts):
                        at[1 + p] = c
                    got = cube[tuple(at)].reshape(len(specs), -1)
                    assert np.array_equal(got, expanded[:, j]), (o, fixed, consts)
    found, _ = screens._verdict_lemma2_1(facts)
    assert list(found.mask.any(axis=1)) == list(slice_flags(k, n, tables))


class RestrictionFacts:
    """Spec facts whose order-o restrictions have the essential counts
    ``ess[o]``, (N, C(k+o-1, o)), and whose rows have the value tables
    ``tables``."""

    def __init__(self, k, n, ess, tables):
        self.k, self.n, self.specs = k, n, np.zeros((len(tables), 1), dtype=np.uint8)
        self.ess, self.tables = ess, tables

    def restriction_ess_gap(self, o):
        return self.ess[o], None

    def table(self, row):
        return self.tables[row]


@pytest.mark.parametrize("o,ess", [(1, 1), (1, 2), (2, 1), (3, 2)])
def test_lemma2_1_screen_flags_a_restriction_with_a_wrong_essential_count(o, ess):
    # no listed row violates Lemma 2.1, so the counts are built by hand: row 0
    # has those of a symmetric row (0 or n - o), row 1 one count 0 < ess != n - o.
    # Both rows carry a table with violating subfunctions, so only the row
    # the screen flags gets records.
    k, n = 2, 4
    counts = {q: np.full((2, q + 1), n - q) for q in range(1, n)}
    for q in counts:
        counts[q][:, 0] = 0
    counts[o][1, -1] = ess
    f = FiniteFunction.from_callable(k, n, lambda a, b, c, d: int(a > b or c > d))
    found, _ = screens._verdict_lemma2_1(RestrictionFacts(k, n, counts, [f.table] * 2))
    assert list(found.mask.any(axis=1)) == [False, True]
    records = [_violation(f, found.assertions[s], **found.info(1, s))
               for s in np.flatnonzero(found.mask[1]).tolist()]
    assert records == lemma2_1_records(f)


@given(table_chunks())
@settings(max_examples=80, deadline=None)
def test_lemma2_1_writer_on_raw_tables_equals_the_breadth_first_oracle(chunk):
    # raw tables violate Lemma 2.1 in many states, in both assertions; the
    # writer reads every state of each row's closure, the slice screen only
    # decides which rows it reads
    k, n, tables = chunk
    rows = np.array(tables).reshape(len(tables), k**n)
    found = lemma2_1_violations(TableFacts(k, n, rows), np.ones(len(tables), dtype=bool))
    flagged = slice_flags(k, n, rows)
    for r, table in enumerate(tables):
        f = FiniteFunction(k, n, table)
        records = [_violation(f, found.assertions[s], **found.info(r, s))
                   for s in np.flatnonzero(found.mask[r]).tolist()]
        assert records == lemma2_1_records(f), table
        assert flagged[r] or not records, table


def test_lemma2_1_writer_keeps_the_breadth_first_order():
    # (x1 AND NOT x2) OR (x3 AND NOT x4): fixing x1 := 0 leaves x3 AND NOT x4,
    # with x2 fictive, and fixing x1 := 1, x2 := 1 leaves it too
    f = FiniteFunction.from_callable(2, 4, lambda a, b, c, d: int(a > b or c > d))
    found = lemma2_1_violations(TableFacts(2, 4, [f.table]), np.ones(1, dtype=bool))
    records = [_violation(f, found.assertions[s], **found.info(0, s))
               for s in np.flatnonzero(found.mask[0]).tolist()]
    assert records == lemma2_1_records(f)
    assert {r["info"]["order"] for r in records} == {1, 2}
    assert {r["assertion"] for r in records} == {"lemma2_1.subfunction-symmetric",
                                                 "lemma2_1.ess-equals-n-minus-order"}


# ---------------------------------------------------------------------------
# the ternary gap-2 constructor and the gap-2 sampler beyond n = 4


def loop_construct_gap2_ternary(k, family, a, b):
    table = []
    for p in itertools.product(range(k), repeat=3):
        counts = Counter(p)
        if len(counts) == 1:
            table.append(a[p[0]])
        elif len(counts) == 3:
            table.append(b.get(frozenset(p), 0))
        else:
            doubled = next(v for v, c in counts.items() if c == 2)
            single = next(v for v, c in counts.items() if c == 1)
            table.append(a[single] if family == "minority" else a[doubled])
    return tuple(table)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("family", ["minority", "majority"])
def test_ternary_construction_equals_loop(k, family):
    rng = random.Random(k)
    subsets = [frozenset(c) for c in itertools.combinations(range(k), 3)]
    for _ in range(30):
        a = [rng.randrange(k) for _ in range(k)]
        if len(set(a)) < 2:
            continue
        b = {s: rng.randrange(k) for s in subsets if rng.random() < 0.7}
        got = construct_gap2_ternary(k, TernaryGap2Spec(family, a, b)).table
        assert got == loop_construct_gap2_ternary(k, family, a, b)


def loop_sample_gap2(k, n, count, seed):
    members = [s for s in nontrivial_gap_specs(k, n) if spec_ess_gap(k, n, s) == (n, 2)]
    if not members:
        return []
    return [members[random.Random((seed << 28) ^ i).randrange(len(members))]
            for i in range(count)]


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (3, 3), (4, 3), (3, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17, -3, 2**40])
def test_gap2_sampler_beyond_n4_equals_filter(k, n, seed):
    got, draws = _sample_gap2_specs(k, n, 40, seed)
    want = loop_sample_gap2(k, n, 40, seed)
    assert list(map(tuple, got.tolist())) == want
    assert got.shape == (len(want), comb(k + n - 1, n))
    assert draws == (40 if want else 0)
