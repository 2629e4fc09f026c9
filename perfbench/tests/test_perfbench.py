"""Self-tests of the benchmark: determinism, self time, failure counting.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  The workloads are shrunk (fewer ranks and steps) to keep the
tests short; the code paths are the benchmark's own.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from spans import Recorder, Span, install, self_times
from worker import run_rep


class SmallService(workloads.ServiceFanin):
    TENANTS, PRODUCERS, ENDPOINTS, STEPS = 4, 2, 2, 4


class SmallArray(workloads.ArraySkew):
    RANKS, LENGTH, STEPS, BLOCK_ROWS = 4, 4096, 16, 128


class SmallInsitu(workloads.InsituSweep):
    N_BODIES, STEPS = 200, 1


def _sim(rep: dict) -> tuple:
    counters = {k: v for k, v in rep["counters"].items()
                if k != "array.numpy_baseline_s"}
    return rep["makespan"], rep["samples"], rep["attempted"], counters


@pytest.mark.parametrize("cls", [SmallService, SmallArray])
def test_repeated_runs_give_identical_simulated_metrics(cls):
    first, _ = run_rep(cls(7), traced=False, run_id="a")
    second, _ = run_rep(cls(7), traced=False, run_id="b")
    assert first["failed"] == 0, first["errors"]
    assert first["samples"], "no simulated step samples"
    assert _sim(first) == _sim(second)


def test_traced_run_matches_untraced_simulation_and_restores_patches():
    from repro.mpi.comm import ThreadCommunicator

    plain_send = ThreadCommunicator.send
    untraced, _ = run_rep(SmallArray(3), traced=False, run_id="u")
    traced, rec = run_rep(SmallArray(3), traced=True, run_id="t")
    assert ThreadCommunicator.send is plain_send
    assert _sim(untraced) == _sim(traced)
    layers = traced["layers"]
    assert layers["array.exchange.calls"] == SmallArray.RANKS * SmallArray.STEPS
    assert layers["transport.chunks_sent"] > 0
    assert layers["hw.sim_events"] > 0
    assert {s.thread for s in rec.spans} >= {"spmd-rank-0", "spmd-rank-3"}


def _span(sid, start, end, parent=0, name="x"):
    s = Span(sid, name, start, parent, "main")
    s.end = end
    return s


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),   # overlaps its sibling: union counts once
        _span(4, 2.0, 3.0, parent=2),
        _span(5, 9.0, 12.0, parent=1),  # clipped to the parent's end
        _span(6, 20.0, 21.0),           # a second root
    ]
    assert self_times(spans) == pytest.approx(
        {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0, 6: 1.0}
    )


def test_nested_collectives_record_one_span():
    rec = Recorder("nested")
    from repro.mpi import run_spmd

    def main(comm):
        return comm.coordinated_allreduce(np.ones(2))

    with install(rec):
        run_spmd(2, main)
    names = [s.name for s in rec.spans if s.name == "mpi.collective"]
    assert len(names) == 2  # one per rank, not one per inner allgather


def test_corrupted_service_output_counts_as_failed():
    w = SmallService(5)
    w.reset()
    producers, endpoints, sinks = w.execute()
    assert w.examine((producers, endpoints, sinks)).failed == 0
    # Lose one processed (producer, step) at an endpoint.
    victim = next(s for s in sinks if s.seen)
    victim.seen.pop(next(iter(victim.seen)))
    rep = w.examine((producers, endpoints, sinks))
    assert rep.failed == 1 and rep.attempted == w.operations
    assert "not conserved" in " ".join(rep.errors)


def test_corrupted_array_output_counts_its_rank_steps():
    w = SmallArray(5)
    w.reset()
    raw = w.execute()
    raw[1]["owned"][0][1][0] += 1e-6
    rep = w.examine(raw)
    assert rep.failed == SmallArray.STEPS


def test_corrupted_insitu_output_counts_its_rank_steps():
    w = SmallInsitu(5)
    w.reset()
    raw = w.execute()
    spec, ranks = raw[0]
    ranks[0]["binned"][0] = (ranks[0]["binned"][0][0] - 1, ranks[0]["binned"][0][1])
    rep = w.examine(raw)
    assert rep.failed == SmallInsitu.STEPS


class DroppingLint(workloads.LintTree):
    """Loses one finding: the check must see the file as failed."""

    def execute(self):
        return super().execute()[1:]


def test_corrupted_lint_output_counts_toward_fail_ratio(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path)
    good, _ = run_rep(workloads.LintTree(3), traced=False, run_id="g")
    bad, _ = run_rep(DroppingLint(3), traced=False, run_id="b")
    assert good["failed"] == 0
    assert bad["failed"] == 1 and bad["attempted"] == good["attempted"]


def test_a_raising_run_fails_every_operation():
    class Broken(SmallArray):
        def execute(self):
            raise RuntimeError("boom")

    rep, _ = run_rep(Broken(1), traced=False, run_id="x")
    assert rep["failed"] == rep["attempted"] == Broken(1).operations
    assert "boom" in rep["errors"][0]


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(1024) == 99
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(52) == 80
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_runs_nowhere_without_the_program(tmp_path):
    """A copy holding only the benchmark fails fast and prints no result."""
    bench = Path(run.__file__).resolve().parent
    (tmp_path / "perfbench").mkdir()
    for f in bench.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (bench.parent / "BENCHMARK.json").read_text()
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lint-tree",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
