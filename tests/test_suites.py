import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

from aritygap import DomainError, FiniteFunction, UnknownSuiteError, run_suite
from aritygap import cli, suites
from aritygap.enumeration import DEFAULT_BUDGET
from aritygap.screens import SCREENS, TABLE_SCREENS
from aritygap.suites import SUITE_NAMES
from aritygap.symmetric import symmetry_index
import oracles


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("lemma9_9", 3, 3)
    with pytest.raises(UnknownSuiteError):
        run_suite("lemma2_2", 3, 3, mode="fuzz")


@pytest.mark.parametrize(
    "k,n,message",
    [(1, 3, "radix must be at least 2, got 1"), (3, -1, "arity must be non-negative, got -1")],
)
def test_run_suite_rejects_bad_domain(k, n, message):
    # k = 1 used to pass vacuously, n = -1 to fail inside math.comb
    with pytest.raises(DomainError, match=message):
        run_suite("thm4_1", k, n)


def test_suite_names_registered():
    for name in (
        "lemma2_1", "lemma2_2", "lemma2_3", "lemma2_4", "lemma2_5",
        "remark2_1", "remark2_2", "thm2_1", "thm2_2", "thm2_3", "thm2_4",
        "thm2_5", "thm2_6", "thm3_1", "lemma3_1", "thm3_2", "cor3_1",
        "thm4_1", "cor4_1", "cor4_2", "willard", "cor2_1",
    ):
        assert name in SUITE_NAMES


def test_registry_sends_the_screened_suites_to_one_runner():
    # a suite added to the screens but not the registry (or the other way
    # round) fails here rather than in a run
    routed = {name for name, run in suites._SUITES.items() if run is suites._run_population}
    assert routed == set(SCREENS)
    k, n = 2, 3
    raw = set()
    for name in routed:
        # a gap-2 sample of a gap-n suite is refused at n = 3
        modes = ("exhaustive",) if name in suites._FULL_GAP_SUITES else ("exhaustive", "sample")
        widths = {suites._population(name, k, n, mode, 1, 5, DEFAULT_BUDGET)[0].shape[1]
                  for mode in modes}
        assert widths in ({k**n}, {comb(k + n - 1, n)}), name
        if widths == {k**n}:
            raw.add(name)
    assert raw == set(TABLE_SCREENS)


@pytest.mark.parametrize("name,mode", [
    ("lemma2_1", "sample"), ("lemma2_2", "sample"), ("lemma2_3", "sample"),
    ("willard", "exhaustive"), ("thm2_1", "exhaustive"), ("thm2_5", "sample"),
])
@pytest.mark.parametrize("sample", [0, -5])
def test_run_suite_rejects_sample_below_one(name, mode, sample):
    # lemma2_1 used to check 0 instances and pass, lemma2_3 to check 1 000
    # and report a sample of 0
    with pytest.raises(DomainError, match="sample size must be at least 1"):
        run_suite(name, 4, 4, mode=mode, seed=1, sample=sample)


@pytest.mark.parametrize("name,mode", [
    ("cor4_2", "sample"), ("lemma2_1", "sample"), ("willard", "exhaustive"), ("thm2_1", "sample"),
])
def test_run_suite_rejects_a_negative_seed(name, mode):
    # random.Random seeds with the absolute value: -1 would draw as 1 does
    with pytest.raises(DomainError, match="seed must be at least 0, got -1"):
        run_suite(name, 4, 3, mode=mode, seed=-1)


def test_lemma2_2_dichotomy_small():
    report = run_suite("lemma2_2", 3, 3)
    assert report.passed
    assert report.instances_checked == 150


def test_remarks_and_lemma_2_5():
    for name in ("remark2_1", "remark2_2", "lemma2_5"):
        report = run_suite(name, 3, 3)
        assert report.passed, name


def test_thm2_2_classification():
    report = run_suite("thm2_2", 3, 3)
    assert report.passed
    assert report.instances_checked == 6


def test_thm2_3_classification():
    report = run_suite("thm2_3", 3, 3)
    assert report.passed
    assert report.instances_checked == 144
    with pytest.raises(UnknownSuiteError):
        run_suite("thm2_3", 3, 4)


def test_thm2_6_linear():
    for k in (2, 3, 4, 5):
        report = run_suite("thm2_6", k, 3)
        assert report.passed, k
        if k % 2 == 0:
            assert report.subcases["even"]["instances"] > 0


@pytest.mark.parametrize("name,k,n", [
    ("thm2_6", 2, 0), ("thm2_6", 2, 1), ("thm2_6", 3, 1),
    ("cor2_1", 3, 0), ("cor2_1", 3, 1), ("cor2_1", 3, 4), ("cor2_1", 3, 5), ("cor2_1", 2, 3),
])
def test_constructive_suite_outside_its_domain_refused(capsys, name, k, n):
    # thm2_6 at n < 2 used to fail for want of an even-radix witness over 0
    # instances; cor2_1 at n = 1 to fail on a count of 0, and beyond n = k to
    # pass with a note quoting a negative count
    with pytest.raises(UnknownSuiteError, match=name):
        run_suite(name, k, n)
    assert cli.main(["verify", name, "-k", str(k), "-n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_thm2_1_form():
    report = run_suite("thm2_1", 3, 3, seed=5)
    assert report.passed
    assert report.instances_checked >= 2184


def forbid_form_listing(monkeypatch, slots):
    """Fail the test where ``thm2_1`` lists the coefficient rows of its
    forms, ``slots`` values each."""
    digits = suites._digits

    def listed(base, width):
        if width == slots:
            raise AssertionError("a form was listed")
        return digits(base, width)

    monkeypatch.setattr(suites, "_digits", listed)


def test_thm2_1_without_seed_refused_before_the_forms(monkeypatch):
    # the missing seed used to be noticed only after every form was profiled
    forbid_form_listing(monkeypatch, 7)  # a0 and the 6 all-distinct points
    with pytest.raises(DomainError, match="explicit seed"):
        run_suite("thm2_1", 3, 3)


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (3, 3)])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_thm2_1_equals_its_oracle(k, n, seed):
    # the forms and the converse's sample decided on arrays, against the
    # loop over one FiniteFunction per form and drawn table
    report = run_suite("thm2_1", k, n, seed=seed)
    instances, total, records = oracles.thm2_1_records(k, n, seed)
    assert report.instances_checked == instances
    assert (report.violations_total, report.violations) == (total, records)


def test_thm2_1_records_the_forms_first_then_the_converse(monkeypatch):
    # no table violates the claim, so flip the full-gap verdict of every
    # table whose first three entries are 0: 80 forms (a0 = 0 and the
    # values at (0, 1), (0, 2) are 0, not all entries 0), then the
    # all-essential sampled tables among them
    from aritygap import facts

    ess_gap = facts.TableFacts.ess_gap.func

    def flipped(self):
        ess, gap = ess_gap(self)
        flip = np.all(self.tables[:, :3] == 0, axis=1)
        return ess, np.where(flip, np.where(gap == self.n, 1, self.n), gap).astype(gap.dtype)

    monkeypatch.setattr(facts.TableFacts, "ess_gap", property(flipped))
    doc = run_suite("thm2_1", 3, 2, seed=1, sample=300).to_doc()
    assertions = [v["assertion"] for v in doc["violations"]]
    converse = len(assertions) - 80
    assert 0 < converse and doc["violations_total"] == len(assertions) <= 100
    assert assertions == ["thm2_1.form-has-full-gap"] * 80 + ["thm2_1.converse-eq-constant"] * converse
    assert all(v["function"]["table"][:3] == [0, 0, 0] for v in doc["violations"])


def test_thm2_1_past_the_listing_limit_refused_before_any_form(capsys, monkeypatch):
    # (4, 2) has 4^13 forms of 16 entries; the sweep used to run past 20 s
    forbid_form_listing(monkeypatch, 13)
    assert cli.main(["verify", "thm2_1", "-k", "4", "-n", "2", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: listing requires 1073741824 table entries, "
                   "over the listing limit of 100000000\n")


@pytest.mark.parametrize("k,n", [(2, 1), (3, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3),
                                 (4, 4), (5, 5), (5, 3), (2, 3)])
def test_lemma3_1_equality_witnesses_equal_their_oracle(k, n):
    # sub read off the witnesses' specs, against the closure of each table;
    # at n = 1 the constant witnesses break the bound, (5, 3) is skipped and
    # (2, 3) is outside n <= k
    docs = []
    for add in (suites._lemma3_1_equality_witnesses, oracles.lemma3_1_equality_witnesses):
        report = suites._mk_report("lemma3_1", k, n, "", {}, 0, {}, 0, [], [], {})
        add(report)
        docs.append(report.to_doc())
    assert docs[0] == docs[1]
    if n == 1:
        assert docs[0]["violations_total"] > 0


@pytest.mark.parametrize("k,n,entries", [(2, 13, 2**27), (4, 12, 4**25)])
def test_thm2_6_past_the_listing_limit_refused_before_any_map(capsys, monkeypatch, k, n, entries):
    # (4, 12) used to start building 4^13 linear maps of 4^12 entries each
    def constructed(k, n):
        raise AssertionError("a linear map was built")

    monkeypatch.setattr(suites, "linear_tables", constructed)
    assert cli.main(["verify", "thm2_6", "-k", str(k), "-n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: listing requires {entries} table entries, "
                   "over the listing limit of 100000000\n")


def test_thm2_6_red_at_n2():
    # README "Known red checks": identifying x_1 with x_2 in x_1 + 2 x_2
    # (mod 3) leaves a constant, so both variables go fictive and the gap is 2
    doc = run_suite("thm2_6", 3, 2).to_doc()
    assert (doc["passed"], doc["instances_checked"], doc["violations_total"]) == (False, 12, 6)
    first = doc["violations"][0]
    assert first["assertion"] == "thm2_6.odd-radix-gap"
    assert first["info"] == {"coeffs": [1, 2]}
    assert first["function"] == {"k": 3, "n": 2, "table": [0, 2, 1, 1, 0, 2, 2, 1, 0]}


def test_thm2_1_forms_over_budget_refused_without_suggesting_sampling(capsys):
    # the refusal used to count "candidates" and suggest sampling, which
    # cannot help: every mode sweeps all the forms
    argv = ["verify", "thm2_1", "-k", "4", "-n", "3", "--mode", "sample", "--seed", "1"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: listing requires 1125899906842624 forms, over the --budget of 100000000\n"


@pytest.mark.parametrize("argv,message", [
    ("thm2_2 -k 5 -n 5 --budget 5 --mode sample --seed 1", "20 class members, over the --budget of 5"),
    ("thm2_3 -k 4 -n 3 --budget 5", "129024 class members, over the --budget of 5"),
    ("cor2_1 -k 3 -n 3 --budget 5", "6 class members, over the --budget of 5"),
    ("lemma3_1 -k 5 -n 4 --budget 5", "15620 class members, over the --budget of 5"),
    ("thm3_1 -k 5 -n 4 --budget 5", "15620 class members, over the --budget of 5"),
])
def test_constructive_cell_over_budget_refused_without_suggesting_sampling(capsys, argv,
                                                                           message):
    # these suites cannot sample here (thm3_1 and lemma3_1 past n = 2), yet
    # the refusal used to suggest it; each names the size of its own cell
    assert cli.main(["verify", *argv.split()]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: listing requires {message}\n"


@pytest.mark.parametrize("suite,k,n,instances", [
    ("thm2_2", 5, 5, 20), ("thm3_1", 5, 4, 15620), ("lemma3_1", 5, 4, 15620)])
def test_one_cell_listing_is_bounded_by_its_cell(suite, k, n, instances):
    # the whole gap >= 2 class has 152 587 890 620 members here, over the
    # budget; the cell these suites list used to be refused with it
    doc = run_suite(suite, k, n).to_doc()
    assert (doc["passed"], doc["instances_checked"]) == (True, instances)


def test_large_radix_refusals_build_nothing():
    # Every suite and the census at (k, 2) for k up to 10 000, and cor4_2 and
    # the one-cell listings of thm3_1, lemma3_1 and thm2_2 at (300, 3),
    # refuse from the closed-form counts: each run exits 2 with one
    # error line in under a second, in one child process capped at 800 MB of
    # address space. Listing the multiset groups first used to take seconds
    # per run at k = 1 000 and fail with MemoryError at k = 10 000.
    script = (
        "import contextlib, io, resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (800 << 20, 800 << 20))\n"
        "from aritygap import cli\n"
        "from aritygap.suites import _SUITES\n"
        "runs = [['verify', s, '-k', str(k), '-n', '2'] for k in (1000, 3000, 10000)\n"
        "        for s in _SUITES]\n"
        "runs += [['census', '-k', str(k), '-n', '2'] for k in (1000, 3000, 10000)]\n"
        "runs += [['verify', s, '-k', '300', '-n', '3']\n"
        "         for s in ('cor4_2', 'thm3_1', 'lemma3_1', 'thm2_2')]\n"
        "for argv in runs:\n"
        "    err, out = io.StringIO(), io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):\n"
        "        code = cli.main(argv)\n"
        "    seconds = time.perf_counter() - start\n"
        "    print(repr((' '.join(argv), code, out.getvalue(), err.getvalue(), seconds)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    runs = [eval(line) for line in child.stdout.splitlines()]
    assert len(runs) == 3 * (len(suites._SUITES) + 1) + 4
    for argv, code, out, err, seconds in runs:
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert seconds < 1, (argv, seconds)


def test_cor2_1_past_the_construction_limit_refused_before_any_image(capsys, monkeypatch):
    # (5, 2) has 5^11 - 5 coefficient rows of 25 entries; it used to run
    # past 45 s and 0.49 GB building them one table at a time
    def built(k, n):
        raise AssertionError("an image was built")

    monkeypatch.setattr(suites, "_gap_n_images", built)
    assert cli.main(["verify", "cor2_1", "-k", "5", "-n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: listing requires 1220703000 table entries, "
                   "over the construction limit of 100000000\n")


@pytest.mark.parametrize("name,k,change", [
    *((name, 3, change) for name in ("thm2_2", "thm2_3")
      for change in ("drop one", "alter one", "alter all")),
    ("thm2_2", 4, "alter one"), ("thm2_3", 4, "alter one"),
])
def test_constructive_records_on_a_changed_cell_equal_the_oracle(monkeypatch, name, k, change):
    # every run at k <= 4 passes, so only a changed cell reaches the records
    listed = suites._nontrivial_gap_array

    def changed(*args, **kwargs):
        specs = listed(*args, **kwargs).copy()
        if change != "drop one":
            # the value of {0, 0, 1}, which neither construction leaves free
            rows = slice(None) if change == "alter all" else slice(0, 1)
            specs[rows, 1] = (specs[rows, 1] + 1) % k
        if change != "alter all":
            specs = np.delete(specs, len(specs) // 2, axis=0)
        return specs

    monkeypatch.setattr(suites, "_nontrivial_gap_array", changed)
    report = run_suite(name, k, 3)
    cell = changed(k, 3, DEFAULT_BUDGET, gaps={3 if name == "thm2_2" else 2})
    bucket = set(map(tuple, cell[:, list(symmetry_index(k, 3).orbit_of_point)].tolist()))
    got = (report.instances_checked, report.violations_total, report.violations)
    assert got == oracles.constructive_records(name, k, 3, bucket)
    assert not report.passed


def test_cor2_1_counts():
    report = run_suite("cor2_1", 3, 3)
    assert report.passed
    assert report.instances_checked == 6
    assert report.parameters["census_bucket"] == 6
    report = run_suite("cor2_1", 4, 3)
    assert report.passed
    assert report.instances_checked == 1020
    # the printed closed form disagrees with its own derivation; noted
    assert report.parameters["printed_formula"] != report.parameters["derivation_count"]
    assert report.notes


def test_willard_suite():
    report = run_suite("willard", 2, 3, seed=11, sample=1500)
    assert report.passed
    assert report.instances_checked > 0


def test_lemma2_3_exhaustive_binary():
    report = run_suite("lemma2_3", 2, 4)
    assert report.passed
    assert report.mode.startswith("exhaustive")


def test_lemma2_4_vacuous_at_ternary():
    report = run_suite("lemma2_4", 3, 3)
    assert report.vacuous and report.passed


def test_lemma2_4_extended_at_3_4():
    report = run_suite("lemma2_4", 3, 4)
    assert report.passed
    assert report.instances_checked == 78


def test_lemma2_4_sampled_at_4_4():
    report = run_suite("lemma2_4", 4, 4, mode="sample", seed=3, sample=25)
    assert report.passed
    assert report.instances_checked == 25


def test_sampled_reports_reproducible():
    a = run_suite("lemma2_4", 4, 4, mode="sample", seed=3, sample=10)
    b = run_suite("lemma2_4", 4, 4, mode="sample", seed=3, sample=10)
    assert a.to_doc() == b.to_doc()


def test_thm2_5_roundtrip_small():
    report = run_suite("thm2_5", 4, 4, seed=5, sample=25)
    assert report.passed
    assert report.instances_checked == 25
    with pytest.raises(UnknownSuiteError):
        run_suite("thm2_5", 3, 3)


def test_thm3_1_small():
    report = run_suite("thm3_1", 3, 3)
    assert report.passed
    assert report.instances_checked == 6


def test_lemma3_1_small():
    report = run_suite("lemma3_1", 3, 3)
    assert report.passed
    assert report.subcases["equality-witness"]["instances"] == 2


def test_thm4_1_and_counts():
    assert run_suite("thm4_1", 3, 3).passed
    assert run_suite("cor4_1", 3, 3).passed


def test_thm3_2_finds_ternary_counterexamples():
    """The doubled-value ternary family is symmetric with gap 2, yet its
    single restrictions have gap 1; the suite must surface every one."""
    report = run_suite("thm3_2", 3, 3)
    assert not report.passed
    assert report.violations_total == 216  # 72 family members x 3 constants
    assert all(v["assertion"] == "thm3_2.iii" for v in report.violations)
    assert report.subcases["i"]["vacuous"] and report.subcases["ii"]["vacuous"]
    # every witness really is in the hypothesis class and really violates
    w = report.violations[0]
    f = FiniteFunction(w["function"]["k"], w["function"]["n"], w["function"]["table"])
    from aritygap import gap, is_symmetric, restrict, essential_count

    assert is_symmetric(f) and gap(f) == 2 and essential_count(f) == 3
    t = restrict(f, 1, w["info"]["c"])
    assert essential_count(t) == 2 and gap(t) == 1


def test_cor3_1_finds_ternary_counterexamples():
    report = run_suite("cor3_1", 3, 3)
    assert not report.passed
    assert report.violations_total == 216


def test_cor4_2_counterexamples_under_reduced_counting():
    report = run_suite("cor4_2", 3, 3)
    assert not report.passed
    assert report.violations_total == 36
    w = report.violations[0]
    assert w["info"]["sub"] < 2**3


def test_thm3_2_passes_above_ternary():
    report = run_suite("thm3_2", 3, 4)
    assert report.passed
    assert report.subcases["ii"]["instances"] > 0
    assert report.subcases["i"]["vacuous"]
    assert any("subcase (i)" in note for note in report.notes)


def test_worker_determinism():
    # every suite runs in one process: the worker count changes nothing
    a = run_suite("lemma2_2", 3, 3, workers=1)
    b = run_suite("lemma2_2", 3, 3, workers=2)
    assert a.to_doc() == b.to_doc()


def test_worker_determinism_through_the_pool():
    # 4001 tables make three chunks of 2000, each with its own screen
    docs = [run_suite("willard", 3, 2, seed=1, sample=4001, workers=w).to_doc()
            for w in (1, 2)]
    assert docs[0]["instances_checked"] > 2000
    assert docs[0] == docs[1]


def test_verify_loads_no_pool_modules():
    script = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2\n"
        "import aritygap.cli\n"
        "code = aritygap.cli.main(['verify', 'remark2_1', '-k', '3', '-n', '3',\n"
        "                          '--workers', '2', '-o', os.devnull])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout
    assert out == "0 []\n"


@pytest.mark.parametrize("argv,loaded", [
    (["lemma2_5", "-k", "4", "-n", "4", "--mode", "sample", "--seed", "1", "--sample", "20"],
     "0 False"),
    (["lemma2_1", "-k", "3", "-n", "3"], "0 False"),
    (["remark2_2", "-k", "3", "-n", "5"], "1 True"),
])
def test_records_loaded_only_for_a_flagged_row(argv, loaded):
    # a run whose screens flag no row never compiles the record writers
    script = (
        "import os, sys\n"
        "import aritygap.cli\n"
        f"code = aritygap.cli.main(['verify', *{argv!r}, '-o', os.devnull])\n"
        "print(code, 'aritygap.records' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout
    assert out == f"{loaded}\n"


def test_memo_warm_report_equals_cold_process():
    from aritygap.cli import main
    from aritygap.documents import to_json

    argv = ["verify", "thm3_2", "-k", "4", "-n", "4", "--mode", "sample",
            "--seed", "1", "--sample", "20", "--format", "json"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cold = subprocess.run([sys.executable, "-m", "aritygap", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert cold.returncode == 0, cold.stderr
    run_suite("thm3_2", 4, 4, mode="sample", seed=1, sample=20)  # warm the memos
    warm = to_json(run_suite("thm3_2", 4, 4, mode="sample", seed=1, sample=20).to_doc())
    assert warm == cold.stdout


@pytest.mark.parametrize("name,k,n", [
    ("thm3_1", 4, 4), ("thm3_1", 3, 3), ("lemma3_1", 4, 3), ("lemma3_1", 5, 5),
])
def test_sampled_gap_n_suite_refused(capsys, name, k, n):
    # a gap-2 sample has no member with gap n at n >= 3: thm3_1 at (4, 4)
    # used to check 0 instances and pass
    with pytest.raises(DomainError, match="use exhaustive mode"):
        run_suite(name, k, n, mode="sample", seed=1, sample=20)
    from aritygap.cli import main

    argv = ["verify", name, "-k", str(k), "-n", str(n), "--mode", "sample", "--seed", "1"]
    assert main(argv) == 2
    assert "exhaustive mode" in capsys.readouterr().err


def test_sampled_lemma3_1_at_two_variables():
    # at n = 2 gap 2 is gap n: the sample is the suite's population
    report = run_suite("lemma3_1", 3, 2, mode="sample", seed=1, sample=20)
    assert report.instances_checked == 20 and not report.vacuous
