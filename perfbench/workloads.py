"""Workloads of the aritygap benchmark: sizes, seeded inputs, ops and output checks.

Every op is one call of ``aritygap.cli.main(argv)`` that writes its report
to a file. An op has failed when it raised, returned an exit code it may not
return, or wrote a report that fails :func:`check_output`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from math import comb

WORKLOADS = ("census-3-4", "verify-c9", "analyze-docs")
DEFAULT_SEED = 1

# The C9 checkers, run at (4, 4) on a seeded sample. Each of these suites
# draws its population from the gap-2 rejection sampler, so every sampled
# spec is an instance: instances_checked must equal the sample size.
GAP2_SAMPLED_SUITES = (
    "thm3_2", "cor3_1", "thm4_1", "cor4_1", "cor4_2",
    "lemma2_4", "lemma2_5", "remark2_2", "thm2_4",
)
# lemma2_1 samples uniform symmetric specs; only all-essential ones count.
UNIFORM_SAMPLED_SUITE = "lemma2_1"

# Documented keys of `aritygap analyze --format json`.
ANALYZE_KEYS = (
    "k", "n", "essential_count", "essential_vars", "symmetric", "gap",
    "gap_index", "class_label", "range", "range_size", "diagonal",
    "sub_count", "sep_count", "separable_sets", "dominants", "weak_dominants",
)
CENSUS_KEYS = ("k", "n", "population", "counts", "ind_distribution", "nontrivial_count")
VERIFY_KEYS = (
    "suite", "k", "n", "mode", "parameters", "instances_checked",
    "violations_total", "violations", "vacuous", "subcases", "notes", "passed",
)

# Per analyze pass: (kind, k, n, count). "raw" is a uniformly random value
# table, "sym" a uniformly random symmetric (multiset-determined) one. The
# full mix gives each of the five classes about the same share of a pass's
# time: each count is about 0.4 s divided by the class's median time per
# document (3.4, 4.0, 3.3, 8.0 and 17 ms in order, on a 2-vCPU VM at the
# 1.5 ms probe speed). Every run reports the measured shares.
SIZES = {
    "full": {
        "census": (3, 4),
        "exhaustive": ("thm3_1", 4, 3),
        "sampled": (4, 4),
        "sample": 300,
        "docs": (("raw", 3, 3, 120), ("raw", 4, 3, 100), ("sym", 4, 3, 120),
                 ("raw", 3, 4, 50), ("raw", 4, 4, 24)),
    },
    "tiny": {
        "census": (2, 3),
        "exhaustive": ("thm3_1", 3, 3),
        "sampled": (4, 4),
        "sample": 5,
        "docs": (("raw", 3, 3, 4), ("raw", 4, 3, 4), ("sym", 4, 3, 4),
                 ("raw", 3, 4, 4), ("raw", 4, 4, 4)),
    },
}


def census_population(k: int, n: int) -> int:
    return k ** comb(k + n - 1, n)


def _multiset_table(k: int, n: int, spec: list[int]) -> list[int]:
    index = {m: i for i, m in enumerate(itertools.combinations_with_replacement(range(k), n))}
    return [spec[index[tuple(sorted(p))]] for p in itertools.product(range(k), repeat=n)]


def random_tables(rng: random.Random, kind: str, k: int, n: int, count: int):
    """``count`` seeded value tables of one kind, as (k, n, table) triples."""
    out = []
    for _ in range(count):
        if kind == "raw":
            table = [rng.randrange(k) for _ in range(k**n)]
        else:
            spec = [rng.randrange(k) for _ in range(comb(k + n - 1, n))]
            table = _multiset_table(k, n, spec)
        out.append((k, n, table))
    return out


def doc_class(kind: str, k: int, n: int) -> str:
    return f"{kind}({k},{n})"


def analyze_docs(seed: int, size: str) -> list[tuple[str, dict]]:
    """The analyze workload's documents with their class, in their (seeded)
    run order."""
    rng = random.Random(f"analyze-docs/{seed}")
    tables = []
    for kind, k, n, count in SIZES[size]["docs"]:
        tables.extend((doc_class(kind, k, n), t) for t in random_tables(rng, kind, k, n, count))
    rng.shuffle(tables)
    return [(label, {"k": k, "n": n, "table": t}) for label, (k, n, t) in tables]


def doc_mix(size: str) -> str:
    return ", ".join(f"{c} {doc_class(kind, k, n)}" for kind, k, n, c in SIZES[size]["docs"])


def ops(workload: str, seed: int, size: str, workers2: int, with_pool: bool):
    """The timed ops of one pass as (key, argv-without-output, items) triples.

    ``key`` names the op for reporting (an analyze op by its document's
    class); ``items`` is the unit of work the op contributes to the
    workload's throughput (census candidates, nothing for verify, whose
    items are the reported instances, and one document per analyze op).
    """
    cfg = SIZES[size]
    if workload == "census-3-4":
        k, n = cfg["census"]
        base = ["census", "-k", str(k), "-n", str(n), "--format", "json"]
        out = [("census", base + ["--workers", "1"], census_population(k, n))]
        if with_pool:
            out.append(("census-workers2", base + ["--workers", str(workers2)], 0))
        return out
    if workload == "verify-c9":
        suite, k, n = cfg["exhaustive"]
        out = [(suite, ["verify", suite, "-k", str(k), "-n", str(n),
                        "--workers", "1", "--format", "json"], 0)]
        sk, sn = cfg["sampled"]
        for suite in GAP2_SAMPLED_SUITES + (UNIFORM_SAMPLED_SUITE,):
            out.append((suite, [
                "verify", suite, "-k", str(sk), "-n", str(sn), "--mode", "sample",
                "--seed", str(seed), "--sample", str(cfg["sample"]),
                "--workers", "1", "--format", "json",
            ], 0))
        return out
    if workload == "analyze-docs":
        return [(f"analyze {label}", ["analyze", None, "--format", "json"], 1)
                for label, _ in analyze_docs(seed, size)]
    raise ValueError(f"unknown workload {workload!r}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_key(argv: list[str], doc_text: str | None = None) -> str:
    """Key of one op in the reference digests; analyze ops key by their input."""
    if argv[0] == "analyze":
        return f"analyze sha256:{sha256(doc_text)}"
    return " ".join(argv)


def check_output(argv, code, text, references, sample, doc=None) -> str | None:
    """Why an op's output is wrong, or None when it is right.

    A report whose digest is recorded must match it byte for byte; any
    report must also satisfy the invariants of its command.
    """
    cmd = argv[0]
    allowed = (0, 1) if cmd == "verify" else (0,)
    if code not in allowed:
        return f"exit code {code}"
    try:
        out = json.loads(text)
    except (TypeError, ValueError) as exc:
        return f"report is not JSON: {exc}"
    key = reference_key(argv, None if doc is None else json.dumps(doc))
    want = references.get(key)
    if want is not None and sha256(text) != want:
        return f"digest mismatch for {key}"
    if cmd == "census":
        missing = [key for key in CENSUS_KEYS if key not in out]
        if missing:
            return f"census report lacks {missing}"
        k, n = int(argv[2]), int(argv[4])
        if out["population"] != census_population(k, n):
            return "census population is wrong"
        if sum(row["count"] for row in out["counts"]) != out["population"]:
            return "census counts do not sum to the population"
        return None
    if cmd == "verify":
        missing = [key for key in VERIFY_KEYS if key not in out]
        if missing:
            return f"verify report lacks {missing}"
        if out["suite"] != argv[1] or (out["k"], out["n"]) != (int(argv[3]), int(argv[5])):
            return "verify report names another suite or domain"
        if code != (0 if out["passed"] else 1):
            return "exit code disagrees with the report"
        if argv[1] in GAP2_SAMPLED_SUITES and "--sample" in argv:
            if out["instances_checked"] != sample:
                return f"instances_checked {out['instances_checked']} != sample {sample}"
        return None
    missing = [key for key in ANALYZE_KEYS if key not in out]
    if missing:
        return f"analyze report lacks {missing}"
    if (out["k"], out["n"]) != (doc["k"], doc["n"]):
        return "analyze report names another domain"
    if out["essential_count"] != len(out["essential_vars"]):
        return "essential_count disagrees with essential_vars"
    if out["range"] != sorted(set(doc["table"])) or out["range_size"] != len(out["range"]):
        return "range disagrees with the table"
    return None
