import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from aritygap import FiniteFunction, cli, orbit_sum, recompose
from aritygap.cli import main
from aritygap.suites import SUITE_NAMES, _sample_decomposable_pairs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def orbit_doc():
    f = orbit_sum(3, (0, 1, 2), 3)
    return {"k": 3, "n": 3, "table": list(f.table)}


def test_analyze_orbit(tmp_path, capsys):
    path = write_doc(tmp_path, "f.json", orbit_doc())
    code, out, _ = run_cli(capsys, "analyze", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["gap"] == 3
    assert report["sep_count"] == 8
    assert report["dominants"] == []
    assert report["class_label"] == [3, 3, 3]
    assert report["symmetric"] is True


def test_analyze_constant(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", {"k": 3, "n": 1, "table": [0, 0, 0]})
    code, out, _ = run_cli(capsys, "analyze", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["essential_count"] == 0
    assert report["gap"] is None


def test_analyze_malformed(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", {"k": 2, "n": 2, "table": [0, 1, 0, 1, 1]})
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 2
    assert "table" in err


@pytest.mark.parametrize("entry", [True, 1.0, "1", None])
def test_analyze_refuses_a_table_entry_that_is_not_an_integer(tmp_path, capsys, entry):
    path = write_doc(tmp_path, "bad.json", {"k": 2, "n": 2, "table": [0, 1, entry, 1]})
    code, out, err = run_cli(capsys, "analyze", path)
    assert (code, out) == (2, "")
    assert "table entries must be integers" in err


@pytest.mark.parametrize("n,expected", [(5, "32"), (20000, "at least 10^6020"),
                                        (10**10, "at least 10^3010200000")])
def test_analyze_refuses_a_table_far_shorter_than_its_arity(tmp_path, capsys, n, expected):
    # 2^20000 has more digits than Python turns into text, and 2^(10^10)
    # is not taken at all
    path = write_doc(tmp_path, "short.json", {"k": 2, "n": n, "table": [0, 1]})
    code, out, err = run_cli(capsys, "analyze", path)
    assert (code, out) == (2, "")
    assert err == f"error: table has 2 entries, expected 2^{n} = {expected}\n"


@pytest.mark.parametrize("argv", [("census",), ("census", "--budget-override"),
                                  *(("verify", name, *seed) for name in SUITE_NAMES
                                    for seed in ((), ("--seed", "1")))],
                         ids="-".join)
def test_huge_radix_is_refused_before_anything_is_built(capsys, monkeypatch, argv):
    # at k = 100000 a spec has 5 000 050 000 entries and a table 10^10:
    # every command exits 2 before it lists a multiset or a digit row
    from aritygap import enumeration, facts, minors, screens, suites, symmetric

    def refuse(*args):
        raise AssertionError("built before the refusal")

    for module in (enumeration, facts, minors, screens, suites, symmetric):
        for name in ("symmetry_index", "_digits"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(capsys, *argv[:2], "-k", "100000", "-n", "2", *argv[2:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,count,tail", [
    ("verify cor2_1 -k 64 -n 4", lambda: (64 ** (comb(64, 4) + 1) - 64) * 64**4,
     "table entries, over the construction limit of 100000000"),
    ("verify cor2_1 -k 1000 -n 2", lambda: (1000 ** (comb(1000, 2) + 1) - 1000) * 1000**2,
     "table entries, over the construction limit of 100000000"),
    ("verify thm2_1 -k 1000 -n 2 --seed 1", lambda: 1000 ** (1 + 1000 * 999),
     "forms, over the --budget of 100000000"),
    ("census -k 2 -n 2100000", lambda: 2**2100001, "candidates, over the budget"),
    ("census -k 3 -n 1630", lambda: 3 ** comb(1632, 2), "candidates, over the budget"),
])
def test_refusal_past_two_million_bits_names_the_exact_count(capsys, argv, count, tail):
    # such counts are named from their bit length, not raised, and read as
    # the text of the exact count does
    from aritygap.core import _count

    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    verb = "exhaustive enumeration" if argv.startswith("census") else "listing"
    assert err.startswith(f"error: {verb} requires {_count(count())} {tail}")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{missing}"),
        ("analyze", "{dir}"),
        ("analyze", "{latin1}"),
        ("construct", "linear", "{missing}"),
        ("decompose", "{latin1}"),
        ("verify", "thm2_6", "-k", "2", "-n", "3", "-o", "{missing}/x.json"),
        ("census", "-k", "3", "-n", "3", "-o", "{dir}"),
    ],
)
def test_unreadable_or_unwritable_path(tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"k": 2, "n": 1, "table": [0, 1], "note": "\xe9"}'.encode("latin-1"))
    paths = {"missing": tmp_path / "missing", "dir": tmp_path, "latin1": latin1}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_analyze_text_format(tmp_path, capsys):
    path = write_doc(tmp_path, "f.json", orbit_doc())
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert "gap: 3" in out


def test_analyze_wide_random_table_reads_the_index_off_one_chain(tmp_path, capsys,
                                                                 monkeypatch):
    # walking every minor round of a random 10-ary Boolean table would not
    # finish; one chain losing a variable a step gives ess - gap
    from aritygap import minors

    rounds = minors._rounds

    def refuse(*args):  # the first round only
        yield next(rounds(*args))
        raise AssertionError("the minor rounds were walked")

    monkeypatch.setattr(minors, "_rounds", refuse)
    table = _seeded_table(random.Random("wide-analyze"), 2, 10)
    path = write_doc(tmp_path, "wide.json", {"k": 2, "n": 10, "table": table})
    code, out, _ = run_cli(capsys, "analyze", path, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["gap_index"] == report["essential_count"] - report["gap"] == 9


def test_construct_gap_n(tmp_path, capsys):
    spec = {"k": 3, "n": 3, "a0": 0, "b": {"0,1,2": 1}}
    path = write_doc(tmp_path, "spec.json", spec)
    code, out, _ = run_cli(capsys, "construct", "gap-n", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == orbit_doc()


def test_construct_gap2_ternary_invalid(tmp_path, capsys):
    spec = {"k": 3, "family": "minority", "a": [1, 1, 1]}
    path = write_doc(tmp_path, "spec.json", spec)
    code, _, err = run_cli(capsys, "construct", "gap2-ternary", path)
    assert code == 1
    assert "distinct" in err


def test_construct_linear(tmp_path, capsys):
    spec = {"k": 4, "coefficients": [2, 2, 2], "constant": 0}
    path = write_doc(tmp_path, "spec.json", spec)
    code, out, _ = run_cli(capsys, "construct", "linear", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["table"]) == 64


def test_construct_orbit_sum_and_recompose(tmp_path, capsys):
    path = write_doc(tmp_path, "spec.json", {"k": 5, "alpha": [1, 2, 4]})
    code, out, _ = run_cli(capsys, "construct", "orbit-sum", path, "--format", "json")
    assert code == 0
    assert sum(json.loads(out)["table"]) == 6

    g = {"k": 4, "n": 2, "table": [1] * 16}
    h = {"k": 4, "n": 4, "table": [0] * 256}
    path = write_doc(tmp_path, "pair.json", {"g": g, "h": h})
    code, out, _ = run_cli(capsys, "construct", "recompose", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    f = FiniteFunction(doc["k"], doc["n"], doc["table"])
    assert f((0, 0, 1, 1)) == 2


def test_construct_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "construct", "linear", str(path))
    assert code == 2


def test_decompose_roundtrip(tmp_path, capsys):
    g0, h0, f = _sample_decomposable_pairs(4, 4, 1, seed=21)[0][0]
    path = write_doc(tmp_path, "f.json", {"k": 4, "n": 4, "table": list(f.table)})
    code, out, _ = run_cli(capsys, "decompose", path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    g = FiniteFunction(doc["g"]["k"], doc["g"]["n"], doc["g"]["table"])
    h = FiniteFunction(doc["h"]["k"], doc["h"]["n"], doc["h"]["table"])
    assert recompose(g, h) == f


def test_decompose_precondition(tmp_path, capsys):
    path = write_doc(tmp_path, "f.json", orbit_doc())
    code, _, err = run_cli(capsys, "decompose", path)
    assert code == 1

    asym = {"k": 4, "n": 4, "table": [1] + [0] * 255}
    path = write_doc(tmp_path, "a.json", asym)
    code, _, err = run_cli(capsys, "decompose", path)
    assert code == 1


def test_census_command(capsys):
    code, out, _ = run_cli(capsys, "census", "-k", "3", "-n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    rows = {(row["ess"], row["gap"]): row["count"] for row in doc["counts"]}
    assert rows[(3, 3)] == 6
    assert rows[(3, 2)] == 144


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_census_stats_go_to_stderr_only(capsys, fmt):
    argv = ["census", "-k", "3", "-n", "4", "--format", fmt]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--stats"]) == 0
    with_stats = capsys.readouterr()
    assert with_stats.out == plain.out
    assert plain.err == ""
    (line,) = with_stats.err.splitlines()
    assert line.startswith("stats: population=14348907 specs_indexed=78 count_s=")
    assert " index_s=" in line


def test_census_budget_refusal(capsys):
    code, _, err = run_cli(capsys, "census", "-k", "4", "-n", "3")
    assert code == 2
    assert str(4**20) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "-k", "257", "-n", "2"),
        ("verify", "lemma2_2", "-k", "257", "-n", "2"),
        ("verify", "thm4_1", "-k", "257", "-n", "2", "--mode", "sample", "--seed", "1",
         "--sample", "3"),
    ],
)
def test_budget_refusal_of_counts_past_the_digit_limit(capsys, argv):
    # the counts have some 80 000 digits, more than Python turns into text;
    # the gap-2 sampler's bound is a fixed limit, which no option lifts, so
    # its refusal does not suggest sampling
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    if "sample" in argv:
        assert err.startswith("error: listing requires at least 10^")
        assert "class members, over the sampling limit of 100000000" in err
        assert "use sampling" not in err
    else:
        assert err.startswith("error: exhaustive enumeration requires at least 10^")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "suite,entries",
    [("willard", 10000 * 2**20), ("lemma2_3", 1000 * 2**20)],
)
def test_raw_table_sample_over_listing_limit_draws_nothing(capsys, monkeypatch, suite,
                                                           entries):
    def draw(*args):
        raise AssertionError("a refused sample was drawn")

    monkeypatch.setattr("aritygap.suites._seeded_rows", draw)
    code, out, err = run_cli(capsys, "verify", suite, "-k", "2", "-n", "20", "--seed", "1")
    assert code == 2
    assert out == ""
    assert f"listing requires {entries} table entries" in err
    assert "listing limit" in err and "use sampling" not in err


@pytest.mark.parametrize(
    "suite,n,count,entries",
    [("lemma2_1", 4, 3000000, 3000000 * 35), ("thm4_1", 4, 3000000, 3000000 * 35),
     ("thm4_1", 5, 2000000, 2000000 * 56)],
)
def test_spec_sample_over_listing_limit_draws_nothing(capsys, monkeypatch, suite, n, count,
                                                      entries):
    def draw(*args):
        raise AssertionError("a refused sample was drawn")

    monkeypatch.setattr("aritygap.suites._seeded_rows", draw)
    monkeypatch.setattr("aritygap.suites._sample_gap2_specs", draw)
    code, out, err = run_cli(capsys, "verify", suite, "-k", "4", "-n", str(n), "--mode",
                             "sample", "--seed", "1", "--sample", str(count))
    assert code == 2
    assert out == ""
    assert f"listing requires {entries} spec entries" in err
    assert "listing limit" in err and "use sampling" not in err


@pytest.mark.parametrize("suite,n", [("lemma2_5", 4), ("remark2_1", 4), ("remark2_2", 4),
                                     ("thm2_4", 4), ("thm3_2", 4), ("lemma2_5", 5)])
def test_shape_sample_over_listing_limit_draws_nothing(capsys, monkeypatch, suite, n):
    # these screens gather each row's whole k^n table (the root
    # identification shape), so a sample is bounded by those entries
    def draw(*args):
        raise AssertionError("a refused sample was drawn")

    count = 10**8 // 4**n + 1
    monkeypatch.setattr("aritygap.suites._sample_gap2_specs", draw)
    code, out, err = run_cli(capsys, "verify", suite, "-k", "4", "-n", str(n), "--mode",
                             "sample", "--seed", "1", "--sample", str(count))
    assert code == 2
    assert out == ""
    assert f"listing requires {count * 4**n} table entries" in err
    assert "listing limit" in err and "use sampling" not in err


def test_census_stats_split_listing_from_indexing(capsys):
    assert main(["census", "-k", "3", "-n", "4", "--stats", "-o", os.devnull]) == 0
    (line,) = capsys.readouterr().err.splitlines()
    fields = dict(f.split("=") for f in line.removeprefix("stats: ").split())
    assert list(fields) == ["population", "specs_indexed", "count_s", "list_s", "index_s"]
    assert all(float(fields[key]) >= 0 for key in ("count_s", "list_s", "index_s"))


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (("census", "-k", "3", "-n", "3"), False),  # the shape walk is enumeration's
        (("census", "-k", "3", "-n", "1"), False),  # no member has a gap
        (("analyze", "@sym43-1"), False),
        (("verify", "thm2_3", "-k", "3", "-n", "3"), False),
        (("verify", "thm2_2", "-k", "3", "-n", "3"), False),
        (("census", "-k", "3", "-n", "12", "--budget-override"), False),
        (("verify", "remark2_1", "-k", "3", "-n", "3"), True),
    ],
)
def test_facts_loaded_only_by_a_screened_suite(tmp_path, argv, loaded):
    argv = list(argv)
    if argv[1].startswith("@"):
        k, n, table = GOLDEN_DOCS[argv[1][1:]]
        argv[1] = write_doc(tmp_path, "doc.json", {"k": k, "n": n, "table": table})
    script = (
        "import os, sys\n"
        "import aritygap.cli\n"
        f"code = aritygap.cli.main({argv!r} + ['-o', os.devnull])\n"
        "print(code, 'aritygap.facts' in sys.modules, 'aritygap.screens' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout
    assert out == f"0 {loaded} {loaded}\n"


@pytest.mark.parametrize("k,n,count", [(300, 1, 20), (257, 2, 5)])
def test_verify_samples_radix_over_256(capsys, k, n, count):
    code, out, err = run_cli(capsys, "verify", "lemma2_1", "-k", str(k), "-n", str(n),
                             "--mode", "sample", "--seed", "1", "--sample", str(count),
                             "--format", "json")
    assert code == 0, err
    report = json.loads(out)
    assert report["mode"] == f"sample({count})"
    assert report["instances_checked"] == count


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "-k", "1", "-n", "3"),
        ("census", "-k", "3", "-n", "-1"),
        ("verify", "lemma2_2", "-k", "0", "-n", "3"),
        ("census", "-k", "3", "-n", "3", "--budget", "-1"),
    ],
)
def test_domain_arguments_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least" in err


def test_verify_refuses_class_over_listing_limit(capsys):
    # the (5, 2) class has 48 828 120 members, 25 table entries each: refused
    # from the counts, before anything is built
    code, out, err = run_cli(capsys, "verify", "thm4_1", "-k", "5", "-n", "2")
    assert code == 2
    assert out == ""
    assert "1220703000 table entries" in err and "listing limit" in err
    assert "use sampling" not in err


def test_verify_thm2_3_refusal_names_a_fixed_limit(capsys):
    # past k = 4 no budget lifts the refusal and thm2_3 cannot sample, so
    # it offers neither remedy
    code, out, err = run_cli(capsys, "verify", "thm2_3", "-k", "5", "-n", "3",
                             "--budget", "100000000000")
    assert code == 2
    assert out == ""
    assert "61035156250 constructions" in err and "construction limit" in err
    assert "use sampling" not in err and "override" not in err


@pytest.mark.parametrize("k,n,members", [(4, 5, 65532), (3, 5, 78)])
def test_verify_samples_gap2_class_beyond_n4(capsys, k, n, members):
    from aritygap.enumeration import nontrivial_gap_specs
    from aritygap.suites import _sample_gap2_specs
    from oracles import spec_ess_gap

    gap2 = [s for s in nontrivial_gap_specs(k, n) if spec_ess_gap(k, n, s) == (n, 2)]
    assert len(gap2) == members
    argv = ("verify", "thm4_1", "-k", str(k), "-n", str(n), "--mode", "sample",
            "--seed", "1", "--sample", "5", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["mode"] == "sample(gap-2, 5)"
    assert report["instances_checked"] == 5
    drawn = list(map(tuple, _sample_gap2_specs(k, n, 5, 1)[0].tolist()))
    assert all(s in set(gap2) for s in drawn)
    assert list(map(tuple, _sample_gap2_specs(k, n, 5, 2)[0].tolist())) != drawn
    assert run_cli(capsys, *argv)[1] == out


def test_sampling_class_over_listing_limit_names_the_limit(capsys):
    code, out, err = run_cli(capsys, "verify", "thm4_1", "-k", "5", "-n", "2",
                             "--mode", "sample", "--seed", "1", "--sample", "5")
    assert code == 2
    assert out == ""
    assert "1220703000 table entries" in err and "listing limit" in err
    assert "use sampling" not in err


@pytest.mark.parametrize(
    "suite,domain,flag,value,message",
    [("thm4_1", "3", "--sample", "0", "argument --sample: must be at least 1"),
     ("thm4_1", "3", "--sample", "-3", "argument --sample: must be at least 1"),
     ("thm4_1", "3", "--budget", "0", "argument --budget: must be at least 1"),
     ("thm4_1", "3", "--budget", "-5", "argument --budget: must be at least 1"),
     ("thm4_1", "3", "--workers", "0", "argument --workers: must be at least 1"),
     ("thm4_1", "3", "--workers", "3", "argument --workers: must be at most 2"),
     # 400 000 rows of 35 spec entries, whose screen gathers 256 table
     # entries a row
     ("lemma2_5", "4", "--sample", "400000",
      "listing requires 102400000 table entries, over the listing limit")],
    ids=["--sample-0", "--sample--3", "--budget-0", "--budget--5", "--workers-0",
         "--workers-3", "lemma2_5---sample-400000"])
def test_verify_count_arguments_rejected(capsys, monkeypatch, suite, domain, flag, value,
                                         message):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    code, out, err = run_cli(capsys, "verify", suite, "-k", domain, "-n", domain,
                             "--mode", "sample", "--seed", "1", flag, value)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("value", ["0", "-3", "3"])
def test_census_worker_count_rejected(capsys, monkeypatch, value):
    # census used to accept any integer here and exit 0
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    code, out, err = run_cli(capsys, "census", "-k", "2", "-n", "2", "--workers", value)
    assert code == 2
    assert out == ""
    assert "--workers" in err and ("at least 1" in err or "at most 2" in err)
    assert run_cli(capsys, "census", "-k", "2", "-n", "2", "--workers", "2")[0] == 0


def test_verify_workers_cap_follows_cpu_count(capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    argv = ("verify", "cor4_1", "-k", "2", "-n", "3", "--workers")
    code, _, err = run_cli(capsys, *argv, "2")
    assert code == 2 and "at most 1" in err
    assert run_cli(capsys, *argv, "1")[0] == 0


def test_successive_calls_share_one_parser(capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    calls = [
        ("verify", "cor4_1", "-k", "3", "-n", "3", "--format", "json"),  # a pass
        ("verify", "cor4_1", "-k", "3", "--format", "json"),  # -n is missing
        ("verify", "cor4_1", "-k", "3", "-n", "3", "--workers", "3"),  # over the CPUs
        ("verify", "cor4_1", "-k", "3", "-n", "3", "--frob"),  # the full parser reports it
        ("verify", "cor4_1", "-k", "3", "-n", "3", "--format", "json"),
    ]

    def clear():
        cli._command_parser.cache_clear()
        cli.build_parser.cache_clear()

    clear()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert cli._command_parser.cache_info().misses == 1
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 2, 2, 0]
    assert "at most 2" in shared[2][2]


def test_census_builds_no_other_command_arguments(capsys, monkeypatch):
    def built(parser):
        raise AssertionError("verify's arguments were built")

    monkeypatch.setitem(cli._COMMANDS, "verify", (cli._COMMANDS["verify"][0], built))
    cli._command_parser.cache_clear()
    cli.build_parser.cache_clear()
    code, out, _ = run_cli(capsys, "census", "-k", "2", "-n", "2", "--format", "json")
    assert code == 0 and json.loads(out)["population"] == 8
    assert cli.build_parser.cache_info().misses == 0


def test_main_reads_sys_argv(capsys, monkeypatch):
    argv = ["census", "-k", "2", "-n", "2", "--format", "json"]
    want = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["aritygap", *argv])
    assert main() == 0
    assert (0, *capsys.readouterr()) == want
    monkeypatch.setattr(sys, "argv", ["aritygap", "census", "-k", "2"])
    assert main() == 2
    assert "aritygap census: error: the following arguments are required: -n" in (
        capsys.readouterr().err)


GOLDEN_CLI = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", GOLDEN_CLI, ids=lambda row: " ".join(row["argv"]) or "(none)")
def test_usage_and_errors_unchanged(capsys, monkeypatch, row):
    # stdout, stderr and exit code recorded from the one-parser CLI (under
    # Python 3.11, COLUMNS=80 and two CPUs) before each command got a parser
    # of its own
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert run_cli(capsys, *row["argv"]) == (row["code"], row["out"], row["err"])


# recorded while these suites still checked every instance, with one worker
# and with two (the same digests)
PER_INSTANCE_REPORTS = [
    (('verify', 'lemma2_2', '-k', '3', '-n', '3'), 0,
     "a21f41057be9e0db9b1ea6a71e4541acb201f4e4115cd112a843ce03f0473d05"),
    (('verify', 'lemma2_2', '-k', '4', '-n', '3'), 0,
     "374b8d37dc68fa5af5727f21c67eaddfedc3f511f65d1891f8249a12c5976fea"),
    (('verify', 'lemma2_2', '-k', '3', '-n', '4'), 0,
     "f4b232fd81f234daacb66e0555aeb75743a4fd2f5b5ca3bd35554a1458058e04"),
    (('verify', 'lemma2_2', '-k', '4', '-n', '4', '--mode', 'sample', '--seed', '1',
      '--sample', '300'), 0,
     "e30e19804ae550d1bdaa6080456d2df68f1c356e23949b5362b556c0f958e160"),
    (('verify', 'remark2_1', '-k', '3', '-n', '3'), 0,
     "06b99edcc1033039565e036e20bc07145b4d743592038be1327e96d714e490d2"),
    (('verify', 'remark2_1', '-k', '4', '-n', '3'), 0,
     "ebe6314fe867adb75e0fc9457185efba75d56bf9eedcadead088ca48e5059088"),
    (('verify', 'remark2_1', '-k', '3', '-n', '4'), 0,
     "f717b2f19a4c336870390519d96db0892f40efb09b745b53e8d101234cccdc45"),
    (('verify', 'remark2_1', '-k', '4', '-n', '4', '--mode', 'sample', '--seed', '1',
      '--sample', '300'), 0,
     "fe394f9726286422fb6a2390bd3caf774a49804db89e5e2949007010b8a0a658"),
    (('verify', 'lemma2_3', '-k', '2', '-n', '4'), 0,
     "0ed5c44b0a7d2093eb9f9413e3e117e77aa76adda123178a6df57028d272b98e"),
    (('verify', 'lemma2_3', '-k', '3', '-n', '4', '--seed', '1'), 0,
     "228846a5d01adf170476d6affe6bd07a13aefd200598336a04a7a48955321a78"),
    (('verify', 'willard', '-k', '2', '-n', '3', '--seed', '2026', '--sample', '10000'), 0,
     "446506fa13a861f270b95183abd4d57914f7502ce251d8933c3a0beddcd37c59"),
    (('verify', 'willard', '-k', '3', '-n', '2', '--seed', '1', '--sample', '4001'), 0,
     "fd198c29261797864988ab740911a93c3dfe353149128cab6be76c3375cfa3f4"),
    (('verify', 'willard', '-k', '3', '-n', '3', '--seed', '1'), 0,
     "f0328776294f52c28d41c86db89849d5d15cd6e66fdd174a61ad4d559d879b87"),
    (('verify', 'lemma3_1', '-k', '3', '-n', '3'), 0,
     "8c353e1f46870c4df6d3cb648ebefd5bbcca06d4900bff52dc8a49efd98b6f4a"),
    (('verify', 'lemma3_1', '-k', '3', '-n', '2'), 0,
     "37e781221e61516173ada7fff0773e5c795c17b0aa85ec28143e919bdbf7c8a4"),
    (('verify', 'lemma3_1', '-k', '4', '-n', '2'), 0,
     "776e363cda576372ccdba8fe31595e6fd6009751c4d473457973d1ca29be38be"),
    (('verify', 'lemma3_1', '-k', '4', '-n', '4'), 0,
     "3cdbcddae425829cc7bba4b77beb7f48bd5b9a2688de86e20793aa1b3a3695c7"),
]

# sha256 of the JSON reports, recorded before the census counted in closed
# form; every report must stay byte-identical
GOLDEN_REPORTS = [
    (("census", "-k", "3", "-n", "3"), 0,
     "26569463959c808b887273b27ff7b83bea444694b54b6a78b19bda9197c1381e"),
    (("census", "-k", "3", "-n", "4"), 0,
     "a1389c36be35d474d83fe3f3ee956b43b2f2585977603cb9662dc384359009e0"),
    (("verify", "thm3_2", "-k", "3", "-n", "3"), 1,
     "ed269ab8301f2158d681b6707bb1c9e01402f2c253051dd874f53317f608fd2a"),
    (("verify", "cor3_1", "-k", "3", "-n", "3"), 1,
     "788be11c6c8eaa07dad818e180b2668a0865fef8ba97315437408c007835ccd6"),
    (("verify", "lemma2_4", "-k", "3", "-n", "4"), 0,
     "81b21f8b1352579cb4675bdcd73ab0b95bca79d9dbc9ce5ff289c29599afc179"),
    # recorded before the full-gap suites listed only their cell and the
    # symmetric layer was gathered
    (("verify", "thm3_1", "-k", "4", "-n", "3"), 0,
     "9b30a71356b1d40af89cf11a1ffcc47ebf73449fce47f027c390f9ed9d59dfbb"),
    (("verify", "lemma3_1", "-k", "4", "-n", "3"), 0,
     "7ab3ef99d2cbf9d9135449f000a59c6b9014901f791c3a77c443efde6b8be907"),
    (("verify", "thm2_2", "-k", "4", "-n", "3"), 0,
     "c82bedf1477a2a916549b5b14160208e2c753803fedbb57ed19fbc09c221ae21"),
    (("verify", "cor2_1", "-k", "4", "-n", "3"), 0,
     "cd131d960ebe0dc975d660c96d244276e2f74ad571b8a172c2b06f74f8b479a2"),
    (("verify", "cor3_1", "-k", "4", "-n", "4", "--mode", "sample", "--seed", "1",
      "--sample", "300"), 0,
     "5187a981cf2fa6698248b9b3c104d2126669837d87e7d34d4c9bbd979e42cf64"),
    # recorded before the minor and subfunction closures of one table became
    # numpy kernels; "@name" is a document of GOLDEN_DOCS
    (('analyze', '@raw33-1', '--format', 'json'), 0,
     "907a7f3c01d25f71c3bc8fb4d69be80f36b54434b9826019260ce075912c2287"),
    (('analyze', '@raw33-1', '--format', 'text'), 0,
     "e2733161c00eb8483a41f126cefc2eedecf12bbfe2c94f601bd2d2ea4035224d"),
    (('analyze', '@raw33-2', '--format', 'json'), 0,
     "6e4093eecad3478e7b907f0e3bc46e8d5ac0427b82fc86e1e09baf50a0bd5e21"),
    (('analyze', '@raw33-2', '--format', 'text'), 0,
     "8c50ed6f6fd92132009cafee9e614e561972b78c202b2478f8860b17b2bc2371"),
    (('analyze', '@raw43-1', '--format', 'json'), 0,
     "1c214db4369af65f13f03d1316d9b876c52007988fda6bf63dbb355dcab9b7e9"),
    (('analyze', '@raw43-1', '--format', 'text'), 0,
     "ef42416542c7e461bbe24c578ed5622b8648fc76e6a815855dd59e7b0fc003ed"),
    (('analyze', '@raw43-2', '--format', 'json'), 0,
     "3ee00e3b256bbb00e064972d512956c98873d327eaa66d3e817aa5bbec109171"),
    (('analyze', '@raw43-2', '--format', 'text'), 0,
     "5baf41b9f684d6b7a20434ff38356b033378a18b858cdfec49ff6234b5f9d335"),
    (('analyze', '@sym43-1', '--format', 'json'), 0,
     "d6bc006c4b7e82721927a3c1f6768d8b7e99f9df57bc10ba48f392e007ea57de"),
    (('analyze', '@sym43-1', '--format', 'text'), 0,
     "3a79dba1d1f570d71987118198d5dd7bb055f5c62730d25e2ce9e5bc9ffc005b"),
    (('analyze', '@sym43-2', '--format', 'json'), 0,
     "865c707e30f507cea8a2e60e0e7258201687e35b22a90f530ce19694e664dcde"),
    (('analyze', '@sym43-2', '--format', 'text'), 0,
     "eca03631bef2eb3484c16c27232723e34a452e3157f1fd246dbbdb9157d870d6"),
    (('analyze', '@raw34-1', '--format', 'json'), 0,
     "9a752ed2de0799787a24dab0c3919cbf2e734268b5c970de9f074b06862b0fea"),
    (('analyze', '@raw34-1', '--format', 'text'), 0,
     "aa1be8b980077f3c62be529d1eee65026392a1999263bc07f0f8ec907a4426cf"),
    (('analyze', '@raw34-2', '--format', 'json'), 0,
     "e5d1aa761763c10b6d3af3ca0a67f55401c87d94b31e50b04935f5fb5e8270fb"),
    (('analyze', '@raw34-2', '--format', 'text'), 0,
     "20f3ce65550cd06a2a903a1eb7ec33357f27b8670e7c797c144b447bfc947cbe"),
    (('analyze', '@raw44-1', '--format', 'json'), 0,
     "d29af05cd4d78ffa6dc8b5d3ecbc2f19523013ec01fc9ad0f5bb91c20daaf536"),
    (('analyze', '@raw44-1', '--format', 'text'), 0,
     "19d2f1a43f525b73901d3b139499359f68c8e58f0bde489cb9f620de9afa3bb8"),
    (('analyze', '@raw44-2', '--format', 'json'), 0,
     "a8b1087fabcae93c4b47ded567cb92bf1af4ade0c3e5697f7ed4a5096b9aaeda"),
    (('analyze', '@raw44-2', '--format', 'text'), 0,
     "2ea941d281935fe1410a7d333ef2a13d6ed5a54d9d23ec4d865027243ec53603"),
    (('analyze', '@const', '--format', 'json'), 0,
     "065dcb9a43312c76fdbaea4e2cd96db0b210f34a54d79dc1f19c0da58bb23a87"),
    (('analyze', '@const', '--format', 'text'), 0,
     "3db4ba5a48dbafd87d9394ec3d30c07071972091ac48cacd9c871912df2ac2eb"),
    (('analyze', '@n0', '--format', 'json'), 0,
     "ecc841f7a2c1bc50d6f5ec3999ddaab3698aa12d297f1927fbb61a5598a71d85"),
    (('analyze', '@n0', '--format', 'text'), 0,
     "deae28d28bb045185a9fe258513a8986376eeada59593fcae9d6afba4ce721ae"),
    (('analyze', '@n1', '--format', 'json'), 0,
     "b40f5898f7b8282084807da1d8b4cb611266a19c9ea2ad080d4e2061cca761ed"),
    (('analyze', '@n1', '--format', 'text'), 0,
     "43d1f6388113f076c3b2a7b37406c17bdaa38acfb69826b54dce4ef83116d92e"),
    (('analyze', '@k5n3', '--format', 'json'), 0,
     "039b32be8d181562ce3a83d7f30352ad01a5787196ca8c45439923e593395945"),
    (('analyze', '@k5n3', '--format', 'text'), 0,
     "c141e399e8baf550aa071063806986c754e177bff8d9a88aaf9ea1180309e3ab"),
    (('analyze', '@k300n1', '--format', 'json'), 0,
     "5c4f51ccce0136f45590d24ab3599781ca1c02b80b78499a8cf48a63770425ad"),
    (('analyze', '@k300n1', '--format', 'text'), 0,
     "809cb8247d74d46e8ad61081764bb9f256bf9983070f24bc70b46752961e3e46"),
    (('census', '-k', '3', '-n', '4', '--format', 'text'), 0,
     "5fc4b1bf28cdfc1836f7c6865d526bc25b477400af62092cca8743e6eb8ea4b3"),
    (('census', '-k', '3', '-n', '3', '--format', 'text'), 0,
     "8c577711b1bb4b1821bb9ba89003e47aa2b03b38d777f30873533f8773598487"),
    (('census', '-k', '4', '-n', '3', '--budget-override', '--format', 'json'), 0,
     "3f160fc1965154c4794c97a92e6eb06e1ca404fd24724267b3e1a776ab650a54"),
    *PER_INSTANCE_REPORTS,
    # recorded before every population became one array built by one
    # builder: the gap-2 sampler at n != 4, the uniform spec sampler at
    # n != 4, the raw sampler that thm2_1 shares and the exhaustive raw tables
    (('verify', 'thm4_1', '-k', '3', '-n', '5', '--mode', 'sample', '--seed', '1',
      '--sample', '50'), 0,
     "3f67b8b87026a7d0d6ebc5a92ee995bfd04260c776599ead4c6139a076dd7b8e"),
    (('verify', 'thm4_1', '-k', '4', '-n', '3', '--mode', 'sample', '--seed', '1',
      '--sample', '50'), 0,
     "4a269d3a79186cf6688046f5cc86e2675ebb5d47e866680f631b42a5ccf128a9"),
    (('verify', 'lemma2_1', '-k', '3', '-n', '3', '--mode', 'sample', '--seed', '1',
      '--sample', '500'), 0,
     "9f560bf9eed6bdf050641b2f9743a06a529ef828277839ab497f80042f808b55"),
    (('verify', 'thm2_1', '-k', '3', '-n', '3', '--seed', '1'), 0,
     "d469daa45e25f771117516d68c84c6944bce9525ecbdaf1a1a6c96e7b2b72a7d"),
    (('verify', 'lemma2_3', '-k', '2', '-n', '3'), 0,
     "5824c6ee8616c0e3b5df5340bd6efb245e2993ac7516a9a9d6dd9f590d4767fe"),
    # recorded while the census still ran the minor closure of every member
    # (the (4, 4) row took 34 s then)
    (('census', '-k', '4', '-n', '4', '--budget-override'), 0,
     "dc2f1bddad96d9bee5980f029933fc3b574daca3e5a31288dadde6043fb7eee2"),
    (('census', '-k', '3', '-n', '6', '--budget-override'), 0,
     "8f4c33cd58bd1b11d6649dd430af32856d2b83da6bd86563da1a405855876519"),
    # recorded before the constructive suites were decided on arrays and
    # thm2_6 joined the screened runner; (3, 2) and (4, 2) are the red
    # thm2_6 rows of README "Known red checks"
    (("verify", "thm2_6", "-k", "4", "-n", "3"), 0,
     "018b4531b3c3ccdbae3f73876480137d0bcae95bf5ca89d108a7d049750cf26d"),
    (("verify", "thm2_6", "-k", "2", "-n", "9"), 0,
     "c9ed66891e12799f65d641737d1a5f8d23507db0c44578d2b50a2b1b8b740fb1"),
    (("verify", "thm2_6", "-k", "3", "-n", "2"), 1,
     "ecf9b289f37eba5d880bf754e13593bf8d72cb6e939b968808de1179c58ada5c"),
    (("verify", "thm2_6", "-k", "4", "-n", "2"), 1,
     "7c50c238e64c1b93b9b386cbb707c72ceeed5d6bd2899131b605678419a236d8"),
    (("verify", "thm2_2", "-k", "3", "-n", "2"), 0,
     "4932d0dd4c6a9c8154ba88788aa91dcfa9d35edf99c2cfb366c2d78125e1f367"),
    (("verify", "thm2_2", "-k", "4", "-n", "2"), 0,
     "50d89a1ada73055af5ea4f969c8bb07085610c0104eb0ffd71e6cacb1c2456cb"),
    (("verify", "thm2_2", "-k", "4", "-n", "4"), 0,
     "c4d2317c194664e22896e9db158a162513156bd4fb26f745d4e3902d40c15913"),
    (("verify", "thm2_3", "-k", "3", "-n", "3"), 0,
     "9425fa1cf40786c132ec0a776ca42ff9b152d1dd0da9de0b9c62087ac10c9fa2"),
    (("verify", "thm2_3", "-k", "2", "-n", "3"), 0,
     "abbf26d817f302e846e43f9ecc00682cd82fb23e63eaadb1911f51ff281308e2"),
    (("verify", "cor2_1", "-k", "4", "-n", "2"), 0,
     "7b479cea972279935c92d88de6f3fb710ede981f28c80ddea170d569d0b1e594"),
    (("verify", "cor2_1", "-k", "4", "-n", "4"), 0,
     "d88e90f0958b89ee5e7d406b530a2e0ec481f10b622ab1fa0803a7291a2ac336"),
]


def _seeded_table(rng, k, n, symmetric=False):
    """A uniformly random value table, or a random multiset-determined one."""
    if not symmetric:
        return [rng.randrange(k) for _ in range(k**n)]
    values = {}
    return [values.setdefault(tuple(sorted(p)), rng.randrange(k))
            for p in itertools.product(range(k), repeat=n)]


def _golden_docs():
    """Function documents named by the analyze rows below as "@name"."""
    rng = random.Random("golden-analyze")
    out = {}
    for kind, k, n in (("raw", 3, 3), ("raw", 4, 3), ("sym", 4, 3), ("raw", 3, 4),
                       ("raw", 4, 4)):
        for i in (1, 2):
            out[f"{kind}{k}{n}-{i}"] = (k, n, _seeded_table(rng, k, n, kind == "sym"))
    out["const"] = (3, 2, [1] * 9)
    out["n0"] = (3, 0, [2])
    out["n1"] = (4, 1, [0, 2, 2, 1])
    out["k5n3"] = (5, 3, _seeded_table(rng, 5, 3))
    # every value 0..299 once, so a table dtype that wraps at 256 shows
    wide = list(range(300))
    rng.shuffle(wide)
    out["k300n1"] = (300, 1, wide)
    return out


GOLDEN_DOCS = _golden_docs()


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN_REPORTS)
def test_golden_reports(tmp_path, capsys, argv, exit_code, digest):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if arg.startswith("@"):
            k, n, table = GOLDEN_DOCS[arg[1:]]
            argv[i] = write_doc(tmp_path, "doc.json", {"k": k, "n": n, "table": table})
    if "--format" not in argv:
        argv += ["--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,exit_code,digest", PER_INSTANCE_REPORTS)
def test_golden_reports_with_two_workers(capsys, monkeypatch, argv, exit_code, digest):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    code, out, _ = run_cli(capsys, *argv, "--workers", "2", "--format", "json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_pass_and_fail(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "cor4_1", "-k", "3", "-n", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = run_cli(
        capsys, "verify", "thm3_2", "-k", "3", "-n", "3", "--format", "json"
    )
    assert code == 1
    assert json.loads(out)["violations_total"] == 216


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nope", "-k", "3", "-n", "3")
    assert code == 2
    assert "unknown suite" in err


def test_verify_sampling_needs_seed(capsys):
    code, _, err = run_cli(
        capsys, "verify", "lemma2_4", "-k", "4", "-n", "4", "--mode", "sample"
    )
    assert code == 2
    assert "seed" in err


def test_verify_refuses_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "verify", "cor4_2", "-k", "4", "-n", "4", "--mode",
                             "sample", "--seed", "-1")
    assert (code, out) == (2, "")
    assert "--seed: must be at least 0, got -1" in err


def test_reports_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "thm2_2", "-k", "3", "-n", "3", "--format", "json")
    _, out2, _ = run_cli(capsys, "verify", "thm2_2", "-k", "3", "-n", "3", "--format", "json")
    assert out1 == out2


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "cor2_1", "-k", "3", "-n", "3")
    assert code == 0
    assert "PASS" in out


def test_construct_then_analyze_reports_guaranteed_class(tmp_path, capsys):
    spec = {"k": 3, "family": "minority", "a": [0, 1, 2]}
    path = write_doc(tmp_path, "spec.json", spec)
    code, out, _ = run_cli(capsys, "construct", "gap2-ternary", path, "--format", "json")
    assert code == 0
    fpath = write_doc(tmp_path, "f.json", json.loads(out))
    code, out, _ = run_cli(capsys, "analyze", fpath, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["class_label"] == [3, 2, 3]
    assert report["symmetric"] is True
