"""Record the report digests that the benchmark checks outputs against.

Usage, from the root of a checkout: ``PYTHONPATH=src python3 perfbench/references.py``

Runs every op of every workload once, at both sizes and the default seed,
and writes ``perfbench/reference.json``: the sha256 of each report, keyed by
the op's arguments (analyze ops by the sha256 of their input document).
Census and the exhaustive verify op are seed-independent; the sampled
verify reports and the analyze reports are recorded for the default seed
only, and other seeds are checked by invariants. A faster program must
reproduce these bytes, so re-record only when a report is meant to change.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import workloads as wl


def record() -> dict:
    from aritygap.cli import main

    digests = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        out = os.path.join(tmp, "out.json")
        for size in wl.SIZES:
            for workload in wl.WORKLOADS:
                docs = wl.analyze_docs(wl.DEFAULT_SEED, size)
                for i, (_, argv, _) in enumerate(wl.ops(workload, wl.DEFAULT_SEED, size, 2, True)):
                    text = None
                    if argv[0] == "analyze":
                        text = json.dumps(docs[i][1])
                        argv = argv[:1] + [os.path.join(tmp, "doc.json")] + argv[2:]
                        with open(argv[1], "w", encoding="utf-8") as fh:
                            fh.write(text)
                    code = main(argv + ["-o", out])
                    if code not in ((0, 1) if argv[0] == "verify" else (0,)):
                        raise SystemExit(f"{' '.join(argv)} exited with {code}")
                    with open(out, encoding="utf-8") as fh:
                        digests[wl.reference_key(argv, text)] = wl.sha256(fh.read())
    return dict(sorted(digests.items()))


if __name__ == "__main__":
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
