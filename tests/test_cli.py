import hashlib
import json

import pytest

from aritygap import FiniteFunction, orbit_sum, recompose
from aritygap.cli import main
from aritygap.suites import _sample_decomposable_pairs


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


def test_analyze_text_format(tmp_path, capsys):
    path = write_doc(tmp_path, "f.json", orbit_doc())
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert "gap: 3" in out


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
    g0, h0, f = _sample_decomposable_pairs(4, 4, 1, seed=21)[0]
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


def test_census_budget_refusal(capsys):
    code, _, err = run_cli(capsys, "census", "-k", "4", "-n", "3")
    assert code == 2
    assert str(4**20) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "-k", "1", "-n", "3"),
        ("census", "-k", "3", "-n", "-1"),
        ("verify", "lemma2_2", "-k", "0", "-n", "3"),
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


@pytest.mark.parametrize("k,n,members", [(4, 5, 65532), (3, 5, 78)])
def test_verify_samples_gap2_class_beyond_n4(capsys, k, n, members):
    from aritygap.enumeration import nontrivial_gap_specs, spec_ess_gap
    from aritygap.suites import _sample_gap2_specs

    gap2 = [s for s in nontrivial_gap_specs(k, n) if spec_ess_gap(k, n, s) == (n, 2)]
    assert len(gap2) == members
    argv = ("verify", "thm4_1", "-k", str(k), "-n", str(n), "--mode", "sample",
            "--seed", "1", "--sample", "5", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    assert report["mode"] == "sample(gap-2, 5)"
    assert report["instances_checked"] == 5
    drawn = _sample_gap2_specs(k, n, 5, 1)
    assert all(s in set(gap2) for s in drawn)
    assert _sample_gap2_specs(k, n, 5, 2) != drawn
    assert run_cli(capsys, *argv)[1] == out


def test_sampling_class_over_listing_limit_names_the_limit(capsys):
    code, out, err = run_cli(capsys, "verify", "thm4_1", "-k", "5", "-n", "2",
                             "--mode", "sample", "--seed", "1", "--sample", "5")
    assert code == 2
    assert out == ""
    assert "1220703000 table entries" in err and "listing limit" in err
    assert "use sampling" not in err


@pytest.mark.parametrize("flag,value", [("--sample", "0"), ("--sample", "-3"),
                                        ("--workers", "0"), ("--workers", "3")])
def test_verify_count_arguments_rejected(capsys, monkeypatch, flag, value):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    code, out, err = run_cli(capsys, "verify", "thm4_1", "-k", "3", "-n", "3",
                             "--mode", "sample", "--seed", "1", flag, value)
    assert code == 2
    assert out == ""
    assert flag in err and ("at least 1" in err or "at most 2" in err)


def test_verify_workers_cap_follows_cpu_count(capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    argv = ("verify", "cor4_1", "-k", "2", "-n", "3", "--workers")
    code, _, err = run_cli(capsys, *argv, "2")
    assert code == 2 and "at most 1" in err
    assert run_cli(capsys, *argv, "1")[0] == 0


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
]


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN_REPORTS)
def test_golden_reports(capsys, argv, exit_code, digest):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
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
