"""One benchmark process: set up a workload, run timed repetitions.

Started by ``perfbench/run.py`` (one process per set-up measurement),
never by hand.  Prints one JSON object on its last stdout line:

- ``ready``: ``time.monotonic()`` when set-up ended (imports, substrate
  reset, input generation), for the parent's ``setup_s``;
- ``reps``: one entry per repetition with wall and CPU seconds of the
  timed part, the output check's tally, the simulated samples and,
  for traced repetitions, the per-layer metrics;
- ``rss_first_kib`` / ``rss_end_kib``: peak resident memory of this
  process through the first repetition / through the last one.

With ``--trace 1`` repetitions alternate untraced and traced, so the
same process measures the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
from dataclasses import asdict

from spans import Recorder, install, layer_metrics, write_trace
from workloads import WORK_DIR, WORKLOADS


def run_rep(workload, traced: bool, run_id: str):
    workload.reset()
    rec = Recorder(run_id) if traced else None
    # Collect the previous repetition's garbage outside the timed part.
    gc.collect()
    with install(rec) if traced else contextlib.nullcontext():
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            raw, error = workload.execute(), None
        except Exception as exc:  # the run failed: its operations count as failed
            raw, error = None, exc
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    rep = workload.failed_rep(error) if error is not None else workload.examine(raw)
    out = dict(asdict(rep), wall=wall, cpu=cpu, traced=traced)
    if traced:
        out["layers"] = dict(layer_metrics(rec), **rep.counters)
    return out, rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measurement window; 0 = set up only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    workload.reset()
    ready = time.monotonic()
    reps, last_rec, rss_first = [], None, 0
    deadline = ready + args.seconds
    # Repeat while the next repetition, as long as the last one, still
    # ends inside the window; at least one (two when tracing).
    need = 2 if args.trace else 1
    while args.seconds > 0:
        traced = bool(args.trace) and len(reps) % 2 == 1
        run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}-r{len(reps)}"
        t0 = time.monotonic()
        rep, rec = run_rep(workload, traced, run_id)
        reps.append(rep)
        last_rec = rec or last_rec
        if len(reps) == 1:
            rss_first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        now = time.monotonic()
        if len(reps) >= need and now + (now - t0) > deadline:
            break
    if last_rec is not None:
        traces = WORK_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        write_trace(traces / f"{args.workload}.jsonl", last_rec,
                    {"workload": args.workload, "seed": args.seed})
    print(json.dumps({
        "ready": ready,
        "reps": reps,
        "rss_first_kib": rss_first,
        "rss_end_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
