"""One pass of a benchmark workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<config JSON>'`` with ``src`` on
``PYTHONPATH``; ``run.py`` starts it. A pass imports aritygap, writes its
input documents (set-up), then runs the workload's ops in a closed loop
with one client through ``aritygap.cli.main``, checks every report, and
writes a JSON record of the pass to ``config["result"]``. Before an op, at
most every 0.1 s, and after the last op, it times a fixed kernel
(:func:`probe`) that gauges the CPU speed the pass gets: an interpreter
loop, or on census a numpy kernel. Each op records the mean of the last
probe before it and the first probe after it. Set-up ends at ``t_ready``,
read on the system-wide monotonic clock so that the parent can add the
interpreter's start-up; an interpreter-loop probe right after it is
recorded as ``setup_probe_s``.

Config keys: workload, seed, size, workdir, result, references, mode
("setup" stops after set-up), traced, layers (measure kernel rates and cache
counters after the ops), with_pool (add the two-worker census op), spans
(path of the span archive of a traced pass).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter


PROBE_EVERY_S = 0.1
PROBE_REPEATS = 5


def _python_loop():
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


def _numpy_scan():
    """Array passes like those of the census scan."""
    import numpy as np

    a = np.arange(6_000, dtype=np.int64)
    w = 3 ** np.arange(15, dtype=np.int64)
    v = ((a[:, None] // w[None, :]) % 3).astype(np.int8)
    np.all(v == v[:, :1], axis=1)


def probe(kernel=_python_loop) -> float:
    """Best of PROBE_REPEATS wall times of a fixed kernel: a gauge of the
    CPU speed that the pass gets from its host at this moment. A repeat that
    is preempted can only read slow, so the best one is kept."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


def _timed_rate(fn, items, min_s=0.2, before=None):
    """Calls of ``fn`` per second over ``items``, repeated to at least min_s."""
    calls, spent = 0, 0.0
    while spent < min_s and items:
        if before is not None:
            before()
        t0 = perf_counter()
        for item in items:
            fn(item)
        spent += perf_counter() - t0
        calls += len(items)
    return calls / spent if spent else 0.0


def _kernel_rates(workload, seed, size, docs, reports):
    """Rates of the table kernels on the workload's own tables."""
    from aritygap import documents, minors
    from aritygap.core import FiniteFunction
    from aritygap.enumeration import enumerate_symmetric
    from aritygap.minors import essential_variables, identify
    from aritygap.subfunctions import restrict
    from aritygap.symmetric import is_symmetric
    import workloads as wl

    cfg = wl.SIZES[size]
    if workload == "analyze-docs":
        fns = [FiniteFunction(d["k"], d["n"], d["table"]) for d in docs]
    else:
        # verify: exactly lemma2_1's sampled population; census: a seeded
        # sample of the symmetric space it scans.
        k, n = cfg["sampled"] if workload == "verify-c9" else cfg["census"]
        fns = list(enumerate_symmetric(k, n, sample=max(cfg["sample"], 50), seed=seed))
    distinct = list({f.table: f for f in fns}.values())
    cache = getattr(minors._essential_positions, "cache_clear", None)
    pairs = []
    for f in distinct:
        ess = sorted(essential_variables(f))
        if len(ess) >= 2:
            pairs.append((f, ess[0], ess[1]))
    objs = [documents.dump_function(f) for f in fns]
    return {
        "core.construct_per_s": _timed_rate(lambda f: FiniteFunction(f.k, f.n, f.table), fns),
        "minors.essential_per_s": _timed_rate(essential_variables, distinct, before=cache),
        "minors.identify_per_s": _timed_rate(lambda p: identify(*p), pairs),
        "subfunctions.restrict_per_s": _timed_rate(lambda f: restrict(f, 1, 0), fns),
        "symmetric.is_symmetric_per_s": _timed_rate(is_symmetric, fns),
        "documents.load_function_us": 1e6 / _timed_rate(documents.load_function, objs, 0.1),
        "documents.to_json_us": 1e6 / _timed_rate(documents.to_json, reports, 0.1),
    }


def _cache_counters():
    from aritygap import minors, subfunctions

    out = {}
    for name, fn in (("minors.essential", getattr(minors, "_essential_positions", None)),
                     ("subfunctions.closure", getattr(subfunctions, "_closure_cached", None))):
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            out[name] = {"hits": ci.hits, "misses": ci.misses}
    return out


def _checked_report(op, out, references, sample, doc):
    """The report an op wrote, or None after recording in ``op`` why it is
    wrong."""
    import workloads as wl

    try:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out)
    except OSError as exc:
        op["error"] = f"no report: {exc}"
        return None
    op["error"] = wl.check_output(op["argv"], op["code"], text, references, sample, doc)
    if op["error"] is not None:
        return None
    report = json.loads(text)
    if op["argv"][0] == "verify":
        op["items"] = report["instances_checked"]
    return report


def main(cfg: dict) -> dict:
    import aritygap.cli
    import numpy
    import workloads as wl

    workload, seed, size = cfg["workload"], cfg["seed"], cfg["size"]
    workdir = cfg["workdir"]
    os.makedirs(workdir, exist_ok=True)
    with open(cfg["references"], encoding="utf-8") as fh:
        references = json.load(fh)
    docs = [doc for _, doc in wl.analyze_docs(seed, size)] if workload == "analyze-docs" else []
    # Every op writes its report to the same file, which is checked before
    # the next op, so that a pass creates few files.
    out = os.path.join(workdir, "out.json")
    plan = []
    for i, (key, argv, items) in enumerate(
            wl.ops(workload, seed, size, min(2, os.cpu_count() or 1), cfg["with_pool"])):
        doc = None
        if argv[0] == "analyze":
            doc = docs[i]
            path = os.path.join(workdir, f"doc-{i}.json")
            # Write a new file rather than truncate the last pass's: ext4
            # writes a truncated and rewritten file out to disk when it is
            # closed, which made set-up I/O-bound and unsteady.
            if os.path.exists(path):
                os.remove(path)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = argv[:1] + [path] + argv[2:]
        plan.append((key, argv, items, doc))
    record = {"t_ready": time.monotonic(), "python": sys.version.split()[0],
              "numpy": numpy.__version__}
    record["setup_probe_s"] = probe()
    if cfg["mode"] == "setup":
        return record

    tracer = None
    run_op = aritygap.cli.main
    if cfg["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run_op = tracer.wrap(aritygap.cli.main, "cli.main", "cli")
    ops, reports = [], []
    sample = wl.SIZES[size]["sample"]
    # Census spends its time in numpy array passes, whose speed followed
    # the interpreter loop's only in part: over ten runs, scaling by it
    # doubled census's spread. Its ops are gauged by a numpy kernel instead.
    kernel = _numpy_scan if workload == "census-3-4" else _python_loop
    probes, last_probe = [], -PROBE_EVERY_S
    for i, (key, argv, items, doc) in enumerate(plan):
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe(kernel))
            last_probe = perf_counter()
        before = list(tracer.calls) if tracer else None
        if tracer:
            tracer.op = i
        error = None
        t0 = perf_counter()
        try:
            code = run_op(argv + ["-o", out])
        except Exception:
            code, error = None, traceback.format_exc()
        wall = perf_counter() - t0
        op = {"key": key, "argv": argv, "code": code, "wall_s": wall, "items": items,
              "error": error, "probe_at": len(probes) - 1}
        if tracer:
            op["calls"] = {tracer.names[n]: c - (before[n] if n < len(before) else 0)
                           for n, c in enumerate(tracer.calls)
                           if c != (before[n] if n < len(before) else 0)}
        if error is None:
            report = _checked_report(op, out, references, sample, doc)
            if report is not None and cfg["layers"]:
                reports.append(report)
        ops.append(op)
    if tracer:
        tracer.uninstall()
    probes.append(probe(kernel))
    for op in ops:
        # The last probe before the op and the first after it.
        i = op.pop("probe_at")
        op["probe_s"] = (probes[i] + probes[i + 1]) / 2
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["wall_s"] = sum(op["wall_s"] for op in ops)

    record["ops"] = ops
    if cfg["layers"]:
        record["cache"] = _cache_counters()
        record["kernels"] = _kernel_rates(workload, seed, size, docs, reports)
    if tracer:
        record["trace"] = tracer.summary()
        tracer.save(cfg["spans"])
    return record


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    result = main(config)
    with open(config["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
