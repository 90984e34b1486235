"""Fast self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``

Runs every workload at the tiny size (census (2, 3), verify with N = 5,
20 analyze documents), untraced and traced, and checks that:

* every metric that BENCHMARK.json names is emitted, with its unit, and no
  other; no op fails;
* the traced layers' self times add up to no more than the traced wall time;
* a deliberately corrupted reference digest is counted as a failed op;
* in a directory that holds only BENCHMARK.json and the benchmark, the
  benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads as wl

CENSUS_KEY = "census -k 2 -n 3 --format json --workers 1"


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"self-test FAILED: {what}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(workload, wl.DEFAULT_SEED, 0.5, trace, size="tiny")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted[trace], f"{workload} trace {trace} metrics: "
                  f"missing {sorted(set(wanted[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(wanted[trace]))}, or wrong units")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace} failed ops: {result['failures']}")
            if trace:
                shares = sum(result["metrics"][f"{layer}.self_share"]["value"]
                             for layer in run.LAYERS)
                check(shares <= 1.0 + 1e-9, f"{workload} self times exceed wall time ({shares})")
        print(f"ok  {workload}: metrics, units, outputs, self times")

    refs = json.loads((run.HERE / "reference.json").read_text())
    check(CENSUS_KEY in refs, f"no reference digest for {CENSUS_KEY!r}")
    refs[CENSUS_KEY] = "0" * 64
    corrupt = run.ROOT / ".bench_out" / "corrupt-reference.json"
    corrupt.parent.mkdir(exist_ok=True)
    corrupt.write_text(json.dumps(refs))
    result = run.run_workload("census-3-4", wl.DEFAULT_SEED, 0.5, 0, size="tiny", references=corrupt)
    check(not result["correct"] and result["failed"] == result["attempted"] > 0,
          "a corrupted census digest was not counted as a failure")
    print(f"ok  corrupted digest: {result['failed']} of {result['attempted']} ops failed")

    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable] + spec["command"][1:] + ["--workload", "census-3-4", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the benchmark ran without the program")
    print("ok  without the program: exit", proc.returncode)


if __name__ == "__main__":
    main()
