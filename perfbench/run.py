"""The aritygap benchmark: census, C9-style verify and per-document analyze.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <census-3-4|verify-c9|analyze-docs|all>
        --seed <n> --seconds <s> --trace <0|1>

One client drives ``aritygap.cli.main`` in a closed loop. A run repeats
passes for about ``--seconds``; every pass is a fresh interpreter
(``worker.py``), because each CLI invocation pays cold caches and a cold
population build, and every pass runs the same ops on the same inputs. With
``--trace 0`` the run reports the end-to-end metrics from each op's median
time over the passes, scaled to a reference CPU speed; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric with
its unit and the run's metadata. What each workload is for, and which layer
figure should move which end-to-end figure, is in ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run gives up when a pass is still going this long after --seconds.
DEADLINE_MARGIN_S = 140.0
# setup_s is the median of at least this many set-ups: each pass's, and
# set-up-only passes to make up the number.
MIN_SETUPS = 12
# Timings are scaled to a CPU that runs worker.probe() in PROBE_REF_S: an
# op's wall time is multiplied by PROBE_REF_S / the mean of the probes just
# before and just after it, and a set-up's by PROBE_REF_S / the probe right
# after it. On a shared 2-vCPU VM the same loop's speed swung by up to 3x
# within seconds and raw throughputs of runs minutes apart differed by up
# to 1.6x. WORKLOADS.md gives the spreads with and without scaling.
PROBE_REF_S = 1.5e-3
TAIL_LADDER = (50, 90, 95, 99, 99.9)

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}
# The names WORKLOADS.md gives the end-to-end figures of each workload.
ALIASES = {
    "census-3-4": {"throughput_per_s": "census_candidates_per_s"},
    "verify-c9": {"throughput_per_s": "verify_instances_per_s"},
    "analyze-docs": {"throughput_per_s": "analyze_docs_per_s",
                     "latency_p50_ms": "analyze_p50_ms",
                     "latency_tail_ms": "analyze_tail_ms"},
}
VERIFY_SUITES = ("thm3_1",) + wl.GAP2_SAMPLED_SUITES + (wl.UNIFORM_SAMPLED_SUITE,)
KERNELS = {
    "core.construct_per_s": "1/s",
    "minors.essential_per_s": "1/s",
    "minors.identify_per_s": "1/s",
    "subfunctions.restrict_per_s": "1/s",
    "symmetric.is_symmetric_per_s": "1/s",
    "documents.load_function_us": "us",
    "documents.to_json_us": "us",
}


class BenchError(RuntimeError):
    """The benchmark could not run (no program, or a pass crashed)."""


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def op_times(passes, scaled: bool = True) -> list[float]:
    """Each op's median wall time over the passes of a run, scaled to the
    reference probe time unless ``scaled`` is false.

    Every pass runs the same ops on the same inputs. Over six runs per
    workload, the median of the scaled times spread less from run to run
    than their minimum: 0.04-0.08 of the median against 0.07-0.18.
    """
    def wall(op):
        return op["wall_s"] * PROBE_REF_S / op["probe_s"] if scaled else op["wall_s"]

    return [statistics.median(map(wall, ops)) for ops in zip(*(p["ops"] for p in passes))]


def class_shares(ops, times: list[float]) -> dict[str, float]:
    """Each analyze document class's share of the summed op times."""
    shares: dict[str, float] = {}
    for op, t in zip(ops, times):
        label = op["key"].split()[-1]
        shares[label] = shares.get(label, 0.0) + t / sum(times)
    return shares


def percentile_with_tail(values: list[float]) -> tuple[float, float]:
    """The highest ladder percentile that has at least ten samples beyond it
    (nearest rank), and its value; the median when none has."""
    data = sorted(values)
    n = len(data)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    if best == 50:
        return best, statistics.median(data)
    return best, data[math.ceil(best * n / 100) - 1]


class Run:
    def __init__(self, workload, seed, seconds, trace, size, references):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.size = size
        self.references = str(references)
        self.start = time.monotonic()
        self.out_dir = ROOT / ".bench_out"
        self.tag = f"{workload}-seed{seed}-trace{trace}-{size}"
        self.work = self.out_dir / f"{self.tag}-{os.getpid()}"
        self.passes = 0

    def spawn(self, mode="run", traced=False, layers=False, with_pool=False) -> dict:
        i = self.passes
        self.passes += 1
        cfg = {
            "workload": self.workload, "seed": self.seed, "size": self.size,
            "workdir": str(self.work / "files"), "result": str(self.work / f"pass-{i}.json"),
            "references": self.references, "mode": mode, "traced": traced,
            "layers": layers, "with_pool": with_pool,
            "spans": str(self.out_dir / f"spans-{self.tag}-pass{i}.npz"),
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        remaining = self.seconds + DEADLINE_MARGIN_S - self.elapsed()
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(remaining, 1))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {i} did not end before the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass {i} exited with {proc.returncode}:\n{proc.stderr}")
        with open(cfg["result"], encoding="utf-8") as fh:
            rec = json.load(fh)
        rec["setup_s"] = rec["t_ready"] - t0
        return rec

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def another(self, done: int) -> bool:
        """Whether to start another pass: the first always, then while the
        run would end nearer to ``seconds`` with it than without it."""
        if done == 0:
            return True
        return self.elapsed() * (1 + 0.5 / done) < self.seconds

    def execute(self) -> dict:
        if not (ROOT / "src" / "aritygap" / "cli.py").is_file():
            raise BenchError(f"no aritygap sources under {ROOT / 'src'}")
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            if self.trace:
                untraced, traced = [], []
                while self.another(len(traced)):
                    untraced.append(self.spawn(layers=True, with_pool=True))
                    traced.append(self.spawn(traced=True, with_pool=True))
                metrics = self.layer_metrics(untraced, traced)
                passes = untraced + traced
            else:
                passes = []
                while self.another(len(passes)):
                    passes.append(self.spawn())
                setups = list(passes)
                while len(setups) < MIN_SETUPS:
                    setups.append(self.spawn(mode="setup"))
                metrics, timing = self.e2e_metrics(passes, setups)
        finally:
            # Every pass writes its documents and reports to the same
            # directory, which is deleted only now: passes that created and
            # deleted thousands of files each got slower run after run.
            shutil.rmtree(self.work, ignore_errors=True)
        ops = [op for p in passes for op in p["ops"]]
        failures = [op for op in ops if op["error"] is not None]
        meta = self.meta(passes)
        if not self.trace:
            meta.update(timing)
        return {
            "correct": not failures, "attempted": len(ops), "failed": len(failures),
            "metrics": metrics, "meta": meta,
            "failures": [{"key": op["key"], "argv": op["argv"], "error": op["error"]}
                         for op in failures[:20]],
        }

    def meta(self, passes) -> dict:
        cfg = wl.SIZES[self.size]
        meta = {
            "workload": self.workload, "seed": self.seed, "size": self.size,
            "seconds": self.seconds, "trace": self.trace, "passes": len(passes),
            "nproc": os.cpu_count(), "python": passes[0]["python"],
            "numpy": passes[0]["numpy"], "commit": git_commit(),
            "sample_N": cfg["sample"], "analyze_doc_mix": wl.doc_mix(self.size),
            "census_kn": cfg["census"], "workers2": min(2, os.cpu_count() or 1),
        }
        return meta

    def latencies(self, times: list[float]) -> list[float]:
        """Latency samples in ms from the ops' times: census, its op;
        analyze, each document; verify, the eleven suites of a pass."""
        if self.workload == "verify-c9":
            return [sum(times) * 1e3]
        return [t * 1e3 for t in times]

    def e2e_metrics(self, passes, setups) -> tuple[dict, dict]:
        """The end-to-end metrics, and how their timings were taken."""
        items = sum(op["items"] for op in passes[0]["ops"])

        def timings(times):
            lat = self.latencies(times)
            tail_p, tail = percentile_with_tail(lat)
            return tail_p, len(lat), {"throughput_per_s": items / sum(times),
                                      "latency_p50_ms": statistics.median(lat),
                                      "latency_tail_ms": tail}

        times = op_times(passes)
        tail_p, samples, values = timings(times)
        values["setup_s"] = statistics.median(
            p["setup_s"] * PROBE_REF_S / p["setup_probe_s"] for p in setups)
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        unscaled = timings(op_times(passes, scaled=False))[2]
        unscaled["setup_s"] = statistics.median(p["setup_s"] for p in setups)
        timing = {"tail_percentile": tail_p, "latency_samples": samples,
                  "setups": len(setups), "unscaled": unscaled,
                  "probe_ms": statistics.median(op["probe_s"] for p in passes for op in p["ops"]) * 1e3}
        if self.workload == "analyze-docs":
            timing["analyze_class_share"] = class_shares(passes[0]["ops"], times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        return metrics, timing

    def layer_metrics(self, untraced, traced) -> dict:
        med = statistics.median
        out: dict[str, tuple[float, str]] = {}
        out["trace.overhead_ratio"] = (
            min(t["wall_s"] for t in traced) / min(u["wall_s"] for u in untraced), "ratio")
        for layer in LAYERS:
            self_s = [t["trace"]["layer_self_s"][layer] for t in traced]
            out[f"{layer}.self_s"] = (med(self_s), "s")
            out[f"{layer}.self_share"] = (
                med(s / t["wall_s"] for s, t in zip(self_s, traced)), "ratio")

        def span(t, name, field):
            return t["trace"]["names"].get(name, {}).get(field, 0)

        times = dict(zip((op["key"] for op in untraced[0]["ops"]), op_times(untraced)))
        for suite in VERIFY_SUITES:
            inst = sum(op["items"] for op in untraced[0]["ops"] if op["key"] == suite)
            out[f"suites.{suite}.instances"] = (inst, "count")
            out[f"suites.{suite}.ms_per_instance"] = (times[suite] * 1e3 / inst if inst else 0.0, "ms")
        out["enumeration.nontrivial_gap_specs_s"] = (
            med(span(t, "enumeration.nontrivial_gap_specs", "max_s") for t in traced), "s")
        t0 = traced[0]
        thm4_1 = [op for op in t0["ops"] if op["key"] == "thm4_1"]
        accept = 0.0
        if thm4_1:
            calls = thm4_1[0]["calls"].get("enumeration.spec_ess_gap", 0)
            inst = thm4_1[0]["items"]
            accept = inst / (calls - inst) if calls > inst else 0.0
        out["suites.sampler_accept_ratio"] = (accept, "ratio")
        out["suites.spec_ess_gap_calls"] = (span(t0, "enumeration.spec_ess_gap", "calls"), "count")
        closure = []
        for t in traced:
            names = ("subfunctions._closure_symmetric", "subfunctions._closure_generic")
            calls = sum(span(t, n, "calls") for n in names)
            closure.append(sum(span(t, n, "total_s") for n in names) * 1e3 / calls if calls else 0.0)
        out["subfunctions.closure_ms"] = (med(closure), "ms")
        for name, key in (("subfunctions.closure_cache_hit_ratio", "subfunctions.closure"),
                          ("minors.essential_cache_hit_ratio", "minors.essential")):
            info = untraced[0]["cache"].get(key)
            if info is not None:  # absent once the cache is gone
                total = info["hits"] + info["misses"]
                out[name] = (info["hits"] / total if total else 0.0, "ratio")
        out["minors.gap_index_s"] = (med(span(t, "minors.gap_index", "total_s") for t in traced), "s")
        profile = [span(t, "minors.gap_profile", "total_s") * 1e3 / span(t, "minors.gap_profile", "calls")
                   if span(t, "minors.gap_profile", "calls") else 0.0 for t in traced]
        out["minors.gap_profile_ms"] = (med(profile), "ms")
        for name, unit in KERNELS.items():
            out[name] = (med(u["kernels"][name] for u in untraced), unit)
        out["cli.analyze_self_ms"] = (
            med(t["trace"]["layer_self_s"]["cli"] * 1e3 / len(t["ops"]) for t in traced), "ms")
        w2 = times.get("census-workers2")
        out["pool.census_workers2_s"] = (w2 or 0.0, "s")
        out["pool.census_speedup"] = (times["census"] / w2 if w2 else 0.0, "ratio")
        return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}


def print_result(result: dict, workload: str):
    meta = result["meta"]
    print(f"# {workload}: " + json.dumps(meta, sort_keys=True))
    aliases = ALIASES.get(workload, {})
    for name, m in result["metrics"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}{alias}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'failure_ratio':40s} {ratio:>16.6g} ratio  "
          f"({result['failed']} of {result['attempted']} ops)")
    if "tail_percentile" in meta:
        print(f"# latency_tail_ms is p{meta['tail_percentile']} of "
              f"{meta['latency_samples']} samples; setup_s is the median of "
              f"{meta['setups']} set-ups")
        print(f"# times scaled to a {PROBE_REF_S * 1e3:g} ms probe "
              f"(median probe {meta['probe_ms']:.6g} ms); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in meta["unscaled"].items()))
    if "analyze_class_share" in meta:
        print("# share of the op time per document class: " + ", ".join(
            f"{label} {share:.3f}" for label, share in sorted(meta["analyze_class_share"].items())))
    for f in result["failures"]:
        print(f"# failed op {f['key']}: {f['error']}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def run_workload(workload, seed, seconds, trace, size="full", references=None) -> dict:
    """Run one workload and write its full result next to its spans."""
    run = Run(workload, seed, seconds, trace, size, references or HERE / "reference.json")
    result = run.execute()
    with open(run.out_dir / f"result-{run.tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            print_result(run_workload(name, args.seed, args.seconds, args.trace), name)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
