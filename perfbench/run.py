"""Benchmark of the scei simulator: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload synth_mlp_attacked --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
Workloads: synth_mlp_attacked, wide_mlp_ledger, ledger_audit (see README.md).

With --trace 0 it starts several set-up processes, to time set-up,
then one process that plays the workload's rounds for --seconds, and prints
the end-to-end metrics. With --trace 1 it starts one traced set-up process
and one measuring process that traces its first round, and prints the
per-layer metrics. Every process runs with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("synth_mlp_attacked", "wide_mlp_ledger", "ledger_audit")
# set-up processes per untraced run; ledger_audit's set-up runs two experiments
SETUP_REPEATS = {"synth_mlp_attacked": 7, "wide_mlp_ledger": 7, "ledger_audit": 3}
CHILD_TIMEOUT_S = 150
MB = 1e6

SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class ChildFailed(RuntimeError):
    pass


def start_child(role: str, args, run_dir: str, timeout: float) -> tuple:
    """Run worker.py to its end; returns (its JSON result, when it was started)."""
    env = dict(os.environ, **SINGLE_THREAD)
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        role,
        args.workload,
        str(args.seed),
        str(args.seconds),
        str(args.trace),
        run_dir,
    ]
    started = time.monotonic()
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role} process ran past {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{role} process exited with code {done.returncode}")
    return json.loads(lines[-1]), started


def median_rate(samples: list, amount: str, seconds: str) -> float:
    rates = [s[amount] / s[seconds] for s in samples if s[seconds] > 0]
    return statistics.median(rates) if rates else 0.0


def end_to_end(workload: str, setups: list, measured: dict) -> dict:
    """The end-to-end metrics. Each rate is the median over the run's rounds of
    the rate in that round; set-up time is the median over the set-up processes."""
    rounds = measured["tally"]["samples"]
    # ledger_audit runs its experiments in set-up, the others in their rounds
    experiments = [s["tally"] for s in setups] if workload == "ledger_audit" else [measured["tally"]]
    accuracies = [a for t in experiments for a in t["accuracies"]]
    values = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "rounds_per_s": (median_rate([x for t in experiments for x in t["samples"]], "rounds", "experiment_s"), "1/s"),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
        "final_accuracy": (sum(accuracies) / len(accuracies) if accuracies else 0.0, "fraction"),
        "verify_mb_per_s": (median_rate(rounds, "verify_bytes", "verify_s") / MB, "MB/s"),
        "load_mb_per_s": (median_rate(rounds, "load_bytes", "load_s") / MB, "MB/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(tracing_units: dict, setups: list, measured: dict) -> dict:
    """Per-layer values: the traced set-up plus the traced first round."""
    totals = dict.fromkeys(tracing_units, 0)
    for part in [s["per_layer"] for s in setups] + [measured["per_layer"]]:
        for name, value in part.items():
            if name == "ledger.held_payload_mb":
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    return {name: {"value": totals[name], "unit": unit} for name, unit in tracing_units.items()}


def same_runs(tallies: list) -> bool:
    """The determinism contract across processes: every repeat of an experiment
    gives the same head hash and final accuracy."""
    seen = {}
    for tally in tallies:
        for shape, identity in tally["identity"].items():
            if seen.setdefault(shape, identity) != identity:
                return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "scei", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/scei is missing", file=sys.stderr)
        return 2

    # a terminated run stops its child too: subprocess.run kills it on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS[args.workload]):
            out, started = start_child("setup", args, run_dir, CHILD_TIMEOUT_S)
            out["setup_s"] = out["ready"] - started
            setups.append(out)
        measured, _ = start_child("measure", args, run_dir, CHILD_TIMEOUT_S)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    tallies = [s["tally"] for s in setups] + [measured["tally"]]
    correct = same_runs(tallies) and measured.get("restored", True)
    if args.trace:
        metrics = per_layer(tracing.per_layer_names(), setups, measured)
    else:
        metrics = end_to_end(args.workload, setups, measured)
    result = {
        "correct": bool(correct),
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(t["failed"] for t in tallies),
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json"), "w") as f:
        json.dump(dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
