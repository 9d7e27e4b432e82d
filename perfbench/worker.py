"""One process of a benchmark run: a set-up, or a set-up followed by timed rounds.

    python3 perfbench/worker.py setup|measure WORKLOAD SEED SECONDS TRACE RUN_DIR

run.py starts it; it prints one JSON object as its last line. A `setup`
process stamps `ready` (time.monotonic, which is system-wide on Linux) once
its set-up is done, so run.py can time it from the moment it started the
process. A `measure` process plays whole rounds of the workload's operations
until SECONDS have passed; traced, it traces its first round only and plays
the rest untraced, to measure what tracing costs.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import scei  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _tally_json(tally: workloads.Tally) -> dict:
    out = dict(vars(tally))
    out.pop("chain")
    return out


def setup(workload: str, seed: int, trace: bool, run_dir: str) -> dict:
    tally = workloads.Tally()
    tracer = tracing.Tracer().install() if trace else None
    try:
        workloads.prepare(workload, seed, run_dir, tally, tracer)
        tally.mark()
    finally:
        if tracer is not None:
            tracer.restore()
    ready = time.monotonic()
    out = {"ready": ready, "tally": _tally_json(tally)}
    if tracer is not None:
        tracer.write(os.path.join(run_dir, os.pardir, f"trace-{workload}-setup.jsonl"))
        out["per_layer"] = tracer.stats()
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    tally = workloads.Tally()
    if workload == "ledger_audit":
        inputs = workloads.audit_inputs(seed, run_dir)
    else:
        inputs = workloads.prepare(workload, seed, run_dir, tally)
    out = {}
    start = time.perf_counter()
    if trace:
        before = tracing.bindings()
        tracer = tracing.Tracer()
        with tracer:
            workloads.play_round(workload, inputs, tally, tracer)
            tally.mark()
        traced_s = time.perf_counter() - start
        out["restored"] = tracing.same_bindings(before, tracing.bindings())
    untraced = []
    while not untraced or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        workloads.play_round(workload, inputs, tally)
        tally.mark()
        untraced.append(time.perf_counter() - round_start)
    out["tally"] = _tally_json(tally)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        tracer.write(os.path.join(run_dir, os.pardir, f"trace-{workload}-measure.jsonl"))
        out["per_layer"] = tracer.stats()
        out["per_layer"]["tracing.overhead_s"] = traced_s - statistics.median(untraced)
    return out


def main(argv) -> int:
    role, workload, seed, seconds, trace, run_dir = argv
    expected_src = os.path.join(ROOT, "src", "scei")
    if os.path.dirname(os.path.abspath(scei.__file__)) != expected_src:
        print(f"perfbench: imported scei from {scei.__file__}, not {expected_src}", file=sys.stderr)
        return 2
    if role == "setup":
        out = setup(workload, int(seed), trace == "1", run_dir)
    else:
        out = measure(workload, int(seed), float(seconds), trace == "1", run_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
