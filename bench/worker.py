"""One measured repetition, run in a fresh interpreter by ``run.py``.

The worker imports modcheck, builds the corpus (with the golden file),
prints ``ready`` and only then builds its inputs, so the parent can time
set-up from interpreter start to that line.  It then runs the workload's
items in a closed loop, one call at a time on one thread, checks each
output as it arrives, and prints one JSON line with the results.

With ``--workload setup`` it stops after ``ready``: a set-up probe.
With ``--trace 1`` it wraps the program's layers first (see tracing.py)
and adds per-layer metrics to its result.  Untraced, a speed probe
(reference.py) samples the host from just after interpreter start to the
end of the timed loop, and the result carries set-up and loop times scaled to the
probe's nominal speed next to the raw ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time

from reference import SpeedProbe


def _run_items(plan, tracer):
    """Closed loop over the plan; returns (start, end, outputs, item durations)."""
    outputs: dict = {}
    durations = []
    start = time.perf_counter()
    for name, call in plan.items:
        t0 = time.perf_counter()
        try:
            results = tracer.item(name, call) if tracer else call()
        except Exception as exc:  # a raising call is a failed output, not a crash
            results = [(name, False, f"{type(exc).__name__}: {exc}")]
        durations.append(time.perf_counter() - t0)
        for output_id, ok, detail in results:
            key, k = output_id, 1
            while key in outputs:
                k += 1
                key = f"{output_id}#{k}"
            outputs[key] = (ok, detail)
    return start, time.perf_counter(), outputs, durations


def _run_after(plan, outputs: dict) -> None:
    """Fold the untimed checks into the outputs they concern."""
    if plan.after is None:
        return
    try:
        results = plan.after()
    except Exception as exc:
        results = [("after-check", False, f"{type(exc).__name__}: {exc}")]
    for output_id, ok, detail in results:
        prev_ok, prev_detail = outputs.get(output_id, (True, ""))
        if not ok:
            prev_detail = f"{prev_detail}; {detail}" if prev_detail else detail
        outputs[output_id] = (prev_ok and ok, prev_detail)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A traced run takes no speed samples: the probe's loops would be
    # charged to whichever layer span is open.
    with contextlib.nullcontext() if args.trace else SpeedProbe() as probe:
        return _measure(args, probe)


def _measure(args, probe) -> int:
    t0 = time.perf_counter()
    import modcheck

    t1 = time.perf_counter()
    fixtures = modcheck.corpus()
    t2 = time.perf_counter()
    print("ready", flush=True)
    result = {
        "setup": {"import_s": t1 - t0, "corpus_s": t2 - t1},
        "setup_scale": probe.scaled(t0, t2) / (t2 - t0) if probe else 1.0,
    }
    if args.workload == "setup":
        print(json.dumps(result), flush=True)
        return 0

    from workloads import VERIFY_ANCHORS, WORKLOADS

    plan = WORKLOADS[args.workload](modcheck, fixtures, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start, end, outputs, durations = _run_items(plan, tracer)
    wall_s = end - start
    if tracer:
        layer_metrics = tracer.metrics(wall_s)
        for anchor in VERIFY_ANCHORS:
            layer_metrics[f"verify.{anchor}.time_s"] = plan.anchor_times.get(anchor, 0.0)
        result["trace"] = {
            "metrics": layer_metrics,
            "spans": tracer.span_table(),
            "items": tracer.items,
        }
    _run_after(plan, outputs)

    failures = [f"{k}: {detail}" for k, (ok, detail) in outputs.items() if not ok]
    result.update(
        wall_s=wall_s,
        scaled_s=probe.scaled(start, end) if probe else wall_s,
        attempted=len(outputs),
        failed=len(failures),
        failures=failures[:20],
        input_digest=plan.input_digest(),
        item_s=durations,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
