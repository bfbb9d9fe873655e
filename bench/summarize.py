#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarize each metric's spread.

    python3 bench/summarize.py --seeds 1-10 --out bench/out/spread.json
    python3 bench/summarize.py --seeds 1-10 --trace-seed 1 --out bench/baseline.json

For every workload and end-to-end metric it reports the median and the
quartiles of the per-seed values (``statistics.quantiles(values, n=4)``)
and the spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json.  With --trace-seed it also records one traced run per
workload.  The output file carries the Python and numpy versions and the
CPU count of the machine that produced it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _numpy_version() -> str:
    proc = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unavailable"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace-seed", type=int, help="also record one traced run per workload")
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seeds": args.seeds,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, s, spec["run_seconds"], False) for s in _seeds(args.seeds)]
        entry = {"correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
                "values": values,
            }
            print(f"{workload:16s} {name:12s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound:.2f}  {'ok' if spread < bound / 3 else 'WIDE'}", flush=True)
        if args.trace_seed is not None:
            traced = _run(workload, args.trace_seed, spec["run_seconds"], True)
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            }
        doc["workloads"][workload] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
