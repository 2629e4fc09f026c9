"""Benchmark runner: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload service-fanin --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root.  Single-threaded: it starts the workload
in fresh worker processes one after another and waits for each.  Two
processes only set up, to measure set-up time; the third sets up and
then repeats the workload until ``--seconds`` have passed.

Workers run pinned to one CPU.  The program is bound by the
interpreter lock: its rank threads take turns on it, so a second core
adds little throughput but adds cross-core lock hand-offs whose cost
follows the host's load.  On a 2-core host, service-fanin took
3.1-3.6 s a repetition pinned and 4.8-11.7 s unpinned, alternating.

Prints a table of every metric with its unit and clock, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics, measured in a run whose repetitions alternate
untraced and traced.  Exits 1 when an output check fails, and exits
without a result when the program cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # set-up measurements per run; the last process also measures
TAIL_PERCENTILES = (99, 95, 90, 80, 50)
#: A hung worker is killed after this many seconds in all.
GIVE_UP_S = 170.0


def spawn(args, seconds: float, timeout: float) -> dict:
    """Run one worker process to completion; returns its result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    # One malloc arena: with one per thread, the peak resident memory of
    # the same seed moved between 174 and 202 MiB on insitu-sweep; with
    # one it read 125-126 MiB.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MALLOC_ARENA_MAX="1")
    cpu = min(os.sched_getaffinity(0))
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def tail_percentile(n: int) -> int:
    """Highest of TAIL_PERCENTILES with at least 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 50


def sim_metrics(reps: list[dict]) -> dict:
    """Simulated-clock metrics: per-repetition values, median over reps."""
    per_rep = []
    for r in reps:
        s = sorted(r["samples"])
        if not s:
            continue
        tail = tail_percentile(len(s))
        per_rep.append((r["makespan"], percentile(s, 50),
                        percentile(s, tail), tail, len(s)))
    if not per_rep:
        return {}
    return {
        "sim_makespan_s": statistics.median(x[0] for x in per_rep),
        "sim_step_p50_s": statistics.median(x[1] for x in per_rep),
        "sim_step_p99_s": statistics.median(x[2] for x in per_rep),
        "sim_step_tail_pct": per_rep[0][3],
        "sim_step_samples": per_rep[0][4],
    }


def measure(args) -> tuple[dict, dict]:
    """Run the processes; returns (values by metric name, tally)."""
    give_up = time.monotonic() + GIVE_UP_S
    results = [
        spawn(args, seconds, timeout=give_up - time.monotonic())
        for seconds in [0.0] * (SETUPS - 1) + [args.seconds]
    ]
    reps = results[-1]["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    wall = statistics.median(r["wall"] for r in plain)
    values = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        # Through set-up and the first repetition only: the program
        # keeps every hamr stream in a process-global registry, so the
        # peak over the whole window would grow with the number of
        # repetitions that fit in it.  The growth is reported apart.
        "peak_rss_mib": results[-1]["rss_first_kib"] / 1024.0,
        "bench.rss_growth_mib_per_rep": (
            (results[-1]["rss_end_kib"] - results[-1]["rss_first_kib"])
            / 1024.0 / max(1, len(reps) - 1)
        ),
        **sim_metrics(plain),
    }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        events = values.get("hw.sim_events", 0)
        values["hw.wall_us_per_event"] = 1e6 * wall / events if events else 0.0
        values["bench.trace_overhead_ratio"] = (
            statistics.median(r["wall"] for r in traced) / wall - 1.0
        )
    tally = {
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "errors": [e for r in reps for e in r["errors"]],
        "reps": len(plain),
        "traced_reps": len(traced),
    }
    return values, tally


def report(args, spec: dict, values: dict, tally: dict) -> dict:
    """Print the human table; return the metrics for the JSON line."""
    print(f"perfbench: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s window, trace {'on' if args.trace else 'off'}, "
          f"{tally['reps']} untraced / {tally['traced_reps']} traced reps")
    simulated = "sim_makespan_s" in values
    rows = [("wall_s", "s", "host", "median over reps"),
            ("cpu_s", "s", "host", "user+system, median over reps"),
            ("setup_s", "s", "host", f"median of {SETUPS} processes"),
            ("peak_rss_mib", "MiB", "host",
             "through set-up and the first repetition; "
             f"+{values['bench.rss_growth_mib_per_rep']:.3g} MiB per further one")]
    if simulated:
        rows += [
            ("sim_makespan_s", "s", "sim", "latest rank clock"),
            ("sim_step_p50_s", "s", "sim",
             f"{values['sim_step_samples']} (rank, step) samples"),
            ("sim_step_p99_s", "s", "sim",
             f"reported at p{values['sim_step_tail_pct']}, the highest "
             "percentile with >= 10 samples beyond it"),
        ]
    for name, unit, clock, note in rows:
        print(f"  {name:<16} {values[name]:>14.6g} {unit:<4} {clock:<5} {note}")
    if not simulated:
        print("  sim_*            (not reported: this workload does not simulate)")
    ratio = tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0
    print(f"  {'fail_ratio':<16} {ratio:>14.6g} {'ratio':<4} -     "
          f"{tally['failed']} of {tally['attempted']} operations failed")
    for err in tally["errors"][:10]:
        print(f"    check failed: {err}")
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in names:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print(f"  {m['name']:<32} {value:>14.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/repro here; run from a checkout "
                         "of the repository root")
    values, tally = measure(args)
    metrics = report(args, spec, values, tally)
    correct = tally["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
