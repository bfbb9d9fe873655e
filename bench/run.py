#!/usr/bin/env python3
"""modcheck benchmark: three cold-start workloads, measured end to end.

Run from the root of a modcheck checkout (stdlib only; the program itself
needs numpy):

    python3 bench/run.py --workload verify-manifest --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 36   # every metric of every workload

Workloads (inputs come from --seed only; see workloads.py):
  verify-manifest  verify_claims(VerifyConfig(seed)), the 80-check manifest
                   that ``modcheck verify`` runs;
  report-rebased   property_report, the ``modcheck report`` path, on 22 corpus
                   modules moved to a seeded random basis P⁻¹AP;
  exact-sweep      seeded x ∈ Z_(p) through the exact backend, plus the
                   non-local witness, the FIEP failure report and seeded
                   integer-route pairs.

Every repetition runs in a fresh interpreter, so no module-level cache of
the program carries over from one repetition to the next, and nothing
reaches into those caches.  Within a repetition one caller on one thread
makes one call at a time (a closed loop) and checks each output before the
next call.  A run makes at least one repetition, and starts another only
while the measured time plus one more mean repetition fits in --seconds.

End-to-end metrics (--trace 0):
  wall_s       median over repetitions of the time from the first call to
               the last checked result; set-up excluded;
  setup_s      median time from interpreter start until ``import modcheck``
               and ``corpus()`` (with the golden file) are done, over five
               set-up-only probes plus every repetition;
  peak_rss_mb  peak resident memory of any process of the run;
  pass_ratio   outputs that passed their check / outputs attempted.

wall_s and setup_s are scaled to nominal host speed by the speed probe in
reference.py, which samples the host every 100 ms inside the measuring
interpreter: on a shared host the raw time of one piece of code swings by
up to twice between stretches of seconds to minutes, and that, not the
program, set the spread of raw medians over seeds (up to 26% of the median
for report-rebased).  Scaled, they read as the time on the same host at
the speed where the probe's loop takes reference.NOMINAL_S.  The raw times
are printed in the notes.  The probe itself costs about 4% of the measured
time, the same on every commit.

Per-layer metrics (--trace 1) come from a separate traced run: one untraced
repetition, then two traced repetitions with the same seed, whose counts
must agree exactly (differences are printed and make the run incorrect).
Times are the mean of the two traced repetitions.  ``trace.overhead_s`` is
traced wall time minus the raw wall time of the untraced repetition (which
carries the speed probe's cost, so it can read negative).  The trace, with per-name span
totals and per-item durations, is written to bench/out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import LAYERS
from workloads import VERIFY_ANCHORS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s
REP_START_LIMIT_S = 140.0  # start no repetition that would likely overrun

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

PER_LAYER = {
    "summands.fiep.pairs": "count",
    "summands.fiep.max_pairs": "count",
    "summands.fiep.time_s": "s",
    "summands.decompositions": "count",
    "summands.summand_indices.calls": "count",
    "lattice.enumerate.calls": "count",
    "lattice.enumerate.distinct_modules": "count",
    "lattice.members": "count",
    "lattice.enumerate.time_s": "s",
    "lattice.sum_is_proper.calls": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.mat_mul.calls": "count",
    "modules.submodule.constructions": "count",
    "modules.quotient_module.calls": "count",
    "properties.is_lifting.time_s": "s",
    "properties.is_extending.time_s": "s",
    "properties.is_coessential.calls": "count",
    "endring.ring_elements": "count",
    "endring.endomorphism_ring.time_s": "s",
    "endring.is_local.time_s": "s",
    "homs.hom_space.calls": "count",
    "homs.hom_space.time_s": "s",
    "theorems.triples": "count",
    "theorems.time_s": "s",
    "graphs.homs_checked": "count",
    "graphs.time_s": "s",
    "exact.cases": "count",
    "exact.unresolved": "count",
    "exact.case.time_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"verify.{a}.time_s": "s" for a in VERIFY_ANCHORS},
    "setup.import_s": "s",
    "setup.corpus_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

# Counts taken at the re-anchor of the seed commit (ROADMAP.md); a traced
# verify-manifest run reports whether they still hold.
VERIFY_FACTS = {
    "lattice.enumerate.calls": 113,
    "lattice.enumerate.distinct_modules": 89,
    "summands.fiep.max_pairs": 962390,  # chain_f3_k4_sq, the largest single scan
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One repetition in a fresh interpreter; adds the parent-side set-up time,
    raw and scaled to nominal host speed by the worker's speed probe."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_env(), text=True)
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0 or not rest.strip():
        raise BenchError(f"worker {workload} (seed {seed}, trace {int(trace)}) exited with {code}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_raw_s"] = setup_s
    result["setup_s"] = setup_s * result["setup_scale"]
    return result


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _is_count(name: str) -> bool:
    return not name.endswith("_s")


def _measure_e2e(workload, seed, seconds, t_start, remaining, setup_samples, notes):
    """Untraced repetitions: (values, repetitions)."""
    reps = []
    while True:
        reps.append(spawn(workload, seed, False, remaining()))
        setup_samples.append(reps[-1]["setup_s"])
        walls = [r["wall_s"] for r in reps]
        if sum(walls) + statistics.mean(walls) > seconds:
            break
        if time.perf_counter() - t_start + max(walls) > REP_START_LIMIT_S:
            notes.append(f"stopped after {len(reps)} repetitions to stay in the run budget")
            break
    notes.append(f"{len(reps)} repetitions, raw wall s each: " + ", ".join(f"{w:.3f}" for w in walls))
    notes.append("scaled to nominal host speed: "
                 + ", ".join(f"{r['scaled_s']:.3f}" for r in reps))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = {
        "wall_s": statistics.median(r["scaled_s"] for r in reps),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": _peak_rss_mb(),
        "pass_ratio": (attempted - failed) / attempted,
    }
    return values, reps


def _measure_traced(workload, seed, remaining, probes, notes):
    """One untraced and two traced repetitions: (values, repetitions)."""
    base = spawn(workload, seed, False, remaining())
    traced = [spawn(workload, seed, True, remaining()) for _ in range(2)]
    first, second = (t["trace"]["metrics"] for t in traced)
    for k in first:
        if _is_count(k) and first[k] != second[k]:
            notes.append(f"count differs between traced repetitions: {k}: {first[k]} != {second[k]}")
    values = {k: first[k] if _is_count(k) else (first[k] + second[k]) / 2 for k in first}
    everyone = probes + [base] + traced
    values["setup.import_s"] = statistics.median(r["setup"]["import_s"] for r in everyone)
    values["setup.corpus_s"] = statistics.median(r["setup"]["corpus_s"] for r in everyone)
    values["trace.overhead_s"] = values["trace.wall_s"] - base["wall_s"]
    unattributed = values["trace.unattributed_s"]
    notes.append(
        f"layer self times cover {values['trace.wall_s'] - unattributed:.3f} s of "
        f"{values['trace.wall_s']:.3f} s traced wall time; unattributed remainder "
        f"{unattributed:.3f} s (benchmark loop, checks and count bookkeeping)"
    )
    if workload == "verify-manifest":
        for k, want in VERIFY_FACTS.items():
            if values[k] != want:
                notes.append(f"differs from the re-anchor facts: {k} = {values[k]}, recorded {want}")
    _write_trace(workload, seed, values, base, traced[0], notes)
    return values, [base] + traced


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    t_start = time.perf_counter()

    def remaining():
        return RUN_BUDGET_S - (time.perf_counter() - t_start)

    probes = [spawn("setup", seed, False, remaining()) for _ in range(SETUP_PROBES)]
    notes: list = []
    if trace:
        values, reps = _measure_traced(workload, seed, remaining, probes, notes)
    else:
        setup_samples = [r["setup_s"] for r in probes]
        values, reps = _measure_e2e(workload, seed, seconds, t_start, remaining, setup_samples, notes)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    notes += [f"failed output: {f}" for r in reps for f in r["failures"]]
    digests = sorted({r["input_digest"] for r in reps})
    notes.append(f"input digest {', '.join(digests)}")
    correct = (
        attempted > 0
        and failed == 0
        and len(digests) == 1
        and not any(n.startswith("count differs") for n in notes)
    )
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "notes": notes,
    }


def _percentile(xs, q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0.0


def _write_trace(workload, seed, values, base, traced, notes) -> None:
    """Per-name span totals, item spans and untraced per-item percentiles."""
    items = traced["trace"]["items"]
    t0 = items[0][1] if items else 0.0
    doc = {
        "workload": workload,
        "seed": seed,
        "metrics": values,
        "notes": notes,
        "untraced_item_s": {
            "count": len(base["item_s"]),
            "p50": _percentile(base["item_s"], 0.5),
            "p90": _percentile(base["item_s"], 0.9),
            "max": max(base["item_s"], default=0.0),
        },
        "spans": traced["trace"]["spans"],
        "items": [[name, s - t0, e - t0] for name, s, e in items],
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _print_result(workload: str, trace: bool, result: dict) -> None:
    print(f"# {workload} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for note in result["notes"]:
        print(f"#   {note}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "modcheck" / "__init__.py").is_file():
        print(f"error: no modcheck sources under {SRC}; run from a modcheck checkout",
              file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.all:
            for w in WORKLOADS:
                for trace in (False, True):
                    _print_result(w, trace, measure(w, args.seed, args.seconds, trace))
        else:
            res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            _print_result(args.workload, bool(args.trace), res)
            print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
