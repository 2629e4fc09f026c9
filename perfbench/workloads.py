"""The benchmark's four workloads.

Each workload generates every input from its seed at construction
(set-up), runs the program once per :meth:`Workload.execute` (the timed
part), and checks the outputs in :meth:`Workload.examine` after the
clock has stopped.  Simulated ranks are the program's own
``run_spmd`` threads; their count is a property of the input.

Driving is a closed loop in simulated time: every rank or producer
finishes a step before it starts the next one.

See ``perfbench/README.md`` for why each workload is in the set.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis import lint_paths
from repro.array import StencilConfig, StencilWorkload
from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest
from repro.binning.reduce import ReductionOp
from repro.control.plan import ControlConfig, ControlPlane
from repro.hamr.runtime import current_clock
from repro.hamr.stream import reset_default_streams
from repro.harness.calibrate import scaled_node_spec
from repro.harness.runner import COORD_SYSTEMS, VARIABLES
from repro.harness.spec import table1_matrix
from repro.hw.node import VirtualNode, set_node
from repro.mpi.comm import CommCostModel, run_spmd
from repro.newton.adaptor import NewtonDataAdaptor
from repro.newton.ic import uniform_random
from repro.newton.solver import NewtonSolver, SolverConfig
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.backends.binning import BinningAnalysis
from repro.sensei.bridge import Bridge
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.service import PipelineSpec, ServiceConfig, run_service
from repro.svtk.table import TableData
from repro.trace.harness import fresh_substrate
from repro.transport import TransportConfig
from repro.transport.metrics import reset_transport_timelines
from repro.transport.retry import RetryPolicy
from repro.units import gbs, us

from corpus import generate

__all__ = ["Rep", "Workload", "WORKLOADS"]

#: Where generated inputs (the lint corpus) are written, under the
#: checkout root.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


@dataclass
class Rep:
    """What one repetition produced, examined outside the timed part."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    makespan: float = 0.0  # simulated seconds; 0 when nothing simulates
    samples: list[float] = field(default_factory=list)  # sim s per op
    counters: dict[str, float] = field(default_factory=dict)


class Workload:
    """One seeded input set and the program run it drives."""

    name = ""

    def __init__(self, seed: int):
        self.seed = int(seed)

    @property
    def operations(self) -> int:
        """Operations one repetition attempts (the fail_ratio base)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Fresh substrate before each repetition (untimed)."""
        fresh_substrate(f"perfbench-{self.name}")
        reset_transport_timelines()

    def execute(self):
        raise NotImplementedError

    def examine(self, raw) -> Rep:
        raise NotImplementedError

    def failed_rep(self, exc: BaseException) -> Rep:
        """A repetition that raised: every operation in it failed."""
        return Rep(attempted=self.operations, failed=self.operations,
                   errors=[f"{type(exc).__name__}: {exc}"])


# -- insitu-sweep -----------------------------------------------------------------


class InsituSweep(Workload):
    """Newton++ -> SENSEI -> 90 binning operations, all 8 Table 1 cases."""

    name = "insitu-sweep"
    N_BODIES = 1200
    STEPS = 2
    BINS = (16, 16)
    DT = 1e-3
    SOFTENING = 0.05
    MASS_RANGE = (0.01, 0.03)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cases = table1_matrix()
        self.node_spec = scaled_node_spec()
        self.bodies = uniform_random(
            self.N_BODIES, seed=self.seed, mass_range=self.MASS_RANGE,
        )
        self.system_mass = float(np.sum(self.bodies.mass))

    @property
    def operations(self) -> int:
        return sum(c.ranks_per_node for c in self.cases) * self.STEPS

    def execute(self):
        out = []
        for spec in self.cases:
            set_node(VirtualNode(self.node_spec.with_devices(spec.gpus_per_node)))
            reset_default_streams()
            try:
                ranks = run_spmd(spec.ranks_per_node, self._rank, spec)
            except Exception as exc:  # one failed case fails its rank-steps
                ranks = exc
            out.append((spec, ranks))
        return out

    def _rank(self, comm, spec):
        solver = NewtonSolver(SolverConfig(
            n_bodies=self.N_BODIES, dt=self.DT, softening=self.SOFTENING,
            mass_range=self.MASS_RANGE,
        ), comm)
        # The solver runs on the benchmark's generated initial condition.
        solver.bodies = solver.domain.select_initial(self.bodies)
        placement = spec.insitu_device_placement()
        requests = [BinRequest(op, var) for var, op in VARIABLES]
        analyses = []
        for a, b in COORD_SYSTEMS:
            analysis = BinningAnalysis(
                "bodies",
                [AxisSpec(a, self.BINS[0]), AxisSpec(b, self.BINS[1])],
                requests, name=f"binning[{a},{b}]",
            )
            analysis.set_placement(placement)
            analysis.set_execution_method(spec.method)
            analyses.append(analysis)
        bridge = Bridge()
        bridge.initialize(comm, analyses=analyses)
        solver.run(self.STEPS, bridge=bridge, adaptor=NewtonDataAdaptor(solver))
        bridge.finalize()
        comm.barrier()
        mass_name = BinRequest(ReductionOp.SUM, "mass").result_name
        binned = [
            (float(a.latest.cell_array_as_grid("count").sum()),
             float(a.latest.cell_array_as_grid(mass_name).sum()))
            for a in analyses
        ]
        return {
            "end": current_clock().now,
            "solver": list(solver.step_times),
            "insitu": list(bridge.step_costs),
            "apparent": bridge.total_apparent_time,
            "actual": bridge.total_actual_time,
            "binned": binned,
        }

    def examine(self, raw) -> Rep:
        rep = Rep(attempted=self.operations)
        solver, apparent, actual = [], 0.0, 0.0
        for spec, ranks in raw:
            ops = spec.ranks_per_node * self.STEPS
            if isinstance(ranks, Exception):
                rep.failed += ops
                rep.errors.append(f"{spec.label}: {ranks!r}")
                continue
            rep.makespan += max(r["end"] for r in ranks)
            for r in ranks:
                rep.samples += [s + i for s, i in zip(r["solver"], r["insitu"])]
                solver += r["solver"]
                apparent += r["apparent"]
                actual += r["actual"]
                bad = [
                    (count, mass) for count, mass in r["binned"]
                    if count != self.N_BODIES
                    or abs(mass - self.system_mass) > 1e-9 * self.system_mass
                ]
                if bad:
                    rep.failed += self.STEPS
                    rep.errors.append(
                        f"{spec.label}: binned (rows, mass) {bad[0]}, want "
                        f"({self.N_BODIES}, {self.system_mass})"
                    )
        n = max(1, len(solver))
        rep.counters = {
            "newton.sim_step_s": sum(solver) / n,
            "sensei.sim_apparent_s": apparent / n,
            "sensei.sim_actual_s": actual / n,
            "sensei.hidden_ratio": 1.0 - apparent / actual if actual else 0.0,
        }
        return rep


# -- service-fanin ----------------------------------------------------------------


class ServiceFanin(Workload):
    """16 tenants x 12 producers fan in to 8 endpoints (200 ranks)."""

    name = "service-fanin"
    TENANTS = 16
    PRODUCERS = 12
    ENDPOINTS = 8
    STEPS = 8
    HI_WEIGHT = 8.0
    BULK_ROWS = 2048
    HI_ROWS = 256
    BURST_PERIOD, BURST_ON = 4, 3
    DROP = 0.02

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(self.seed)
        self.names = ["hi-pri"] + [f"bulk{i:02d}" for i in range(self.TENANTS - 1)]
        # Seeded burst phase per bulk tenant: on BURST_ON of every
        # BURST_PERIOD steps.
        self.phase = [0] + [
            rng.randrange(self.BURST_PERIOD) for _ in self.names[1:]
        ]
        transport = TransportConfig(
            compression="none", chunk_bytes=4096, max_inflight=8,
            pipelined=True,
            # Patient: a retransmit comes from the delivery verdict,
            # the wall-clock ACK timeout is only a stall guard.
            retry=RetryPolicy(max_retries=60, ack_timeout=5.0,
                              backoff_base=us(500.0), backoff_max=us(5000.0)),
        ).with_faults(drop=self.DROP, seed=rng.randrange(2**31))
        self.config = ServiceConfig(
            pipelines=tuple(
                PipelineSpec(
                    name=name,
                    weight=self.HI_WEIGHT if i == 0 else 1.0,
                    ranks=tuple(range(i * self.PRODUCERS,
                                      (i + 1) * self.PRODUCERS)),
                    transport=transport,
                    collective=(i == 0),
                )
                for i, name in enumerate(self.names)
            ),
            budget=96, skew=2.0, cooldown=2, interval=2,
        )
        self.control = ControlConfig.from_xml_attrs(
            {"execution": "off", "codec": "off", "placement": "off",
             "pool": "off", "flow": "off", "quota": "on", "interval": "2"},
        )
        self.cost = CommCostModel(latency=us(40.0), bandwidth=gbs(1.0))
        # Every published row carries its (producer, step) key, so the
        # endpoints' tallies show exactly-once delivery.
        self.published: dict[tuple[int, int], int] = {}
        self.keys: dict[int, list[np.ndarray]] = {}
        for t, name in enumerate(self.names):
            rows = self.HI_ROWS if t == 0 else self.BULK_ROWS
            for p in self.config.spec(name).ranks:
                self.keys[p] = [
                    np.full(rows, float(p * self.STEPS + s))
                    for s in range(self.STEPS)
                ]
                for step in range(self.STEPS):
                    if self.publishes(t, step):
                        self.published[p, step] = rows

    def publishes(self, tenant: int, step: int) -> bool:
        if tenant == 0:
            return True
        return (step + self.phase[tenant]) % self.BURST_PERIOD < self.BURST_ON

    @property
    def operations(self) -> int:
        return len(self.published)

    def execute(self):
        sinks = []
        registry = {
            name: (lambda name=name: [_Sink(name, self.STEPS, sinks)])
            for name in self.names
        }
        producers, endpoints = run_service(
            self.config, self._producer, registry,
            m=self.TENANTS * self.PRODUCERS, n=self.ENDPOINTS,
            cost=self.cost, control=self.control,
        )
        return producers, endpoints, sinks

    def _producer(self, sim_comm, bridge):
        rank = sim_comm.rank
        tenant = rank // self.PRODUCERS
        name = self.names[tenant]
        keys = self.keys[rank]
        for step in range(self.STEPS):
            meshes = {}
            if self.publishes(tenant, step):
                table = TableData(name)
                table.add_host_column("key", keys[step])
                meshes[name] = table
            adaptor = TableDataAdaptor(meshes)
            adaptor.set_step(step, step * 1e-3)
            bridge.execute(adaptor)
        return {
            "end": current_clock().now,
            "costs": list(bridge.pipeline_step_costs[name]),
        }

    def examine(self, raw) -> Rep:
        producers, endpoints, sinks = raw
        rep = Rep(attempted=self.operations)
        rep.samples = [c for r in producers for c in r["costs"]]
        rep.makespan = max(r["end"] for r in producers)
        rows: dict[tuple[int, int], int] = {}
        nbytes: dict[tuple[int, int], int] = {}
        for sink in sinks:
            for key, (n, b) in sink.seen.items():
                rows[key] = rows.get(key, 0) + n
                nbytes[key] = nbytes.get(key, 0) + b
        for key in sorted(set(self.published) | set(rows)):
            want = self.published.get(key, 0)
            want_bytes = 8 * want
            if rows.get(key, 0) != want or nbytes.get(key, 0) != want_bytes:
                rep.failed += 1
                if len(rep.errors) < 5:
                    rep.errors.append(
                        f"(producer, step) {key}: {rows.get(key, 0)} rows / "
                        f"{nbytes.get(key, 0)} B processed, published "
                        f"{want} rows / {want_bytes} B"
                    )
        sent = 8 * sum(self.published.values())
        got = sum(nbytes.values())
        if sent != got:
            rep.errors.append(f"raw bytes not conserved: {sent} sent, {got} processed")
            rep.failed = max(rep.failed, 1)
        return rep


class _Sink(AnalysisAdaptor):
    """Endpoint analysis that tallies rows and bytes per (producer, step)."""

    def __init__(self, mesh, steps, registry):
        super().__init__(f"sink-{mesh}")
        self.mesh = mesh
        self.steps = steps
        self.seen: dict[tuple[int, int], tuple[int, int]] = {}
        self.set_device_id(-1)
        registry.append(self)  # list.append is atomic under the GIL

    def acquire(self, data, deep):
        table = data.get_mesh(self.mesh)
        cols = {}
        for name in table.column_names:
            with table.column(name).get_host_accessible() as view:
                cols[name] = np.array(view.get())
        return cols

    def process(self, cols, comm, device_id):
        if not cols:
            return
        width = sum(c.itemsize for c in cols.values())
        keys, counts = np.unique(cols["key"], return_counts=True)
        for k, n in zip(keys, counts):
            key = divmod(int(k), self.steps)
            r, b = self.seen.get(key, (0, 0))
            self.seen[key] = (r + int(n), b + int(n) * width)


# -- array-skew -------------------------------------------------------------------


class ArraySkew(Workload):
    """Adaptive 1-D Jacobi stencil, 8 ranks, 6x hotspot, lossy links."""

    name = "array-skew"
    RANKS = 8
    LENGTH = 65536
    STEPS = 128
    BLOCK_ROWS = 512
    HOTSPOT = (0.0, 0.0859375)
    HOTSPOT_COST = 6.0
    INTERVAL = 4
    #: Relative tolerance of the final field against the numpy
    #: baseline (same expression, so it is met exactly in practice).
    RTOL = 1e-12

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(self.seed)
        self.initial = rng.uniform(-1.0, 1.0, self.LENGTH)
        self.stencil = StencilConfig(
            length=self.LENGTH, steps=self.STEPS, block_rows=self.BLOCK_ROWS,
            compute_rate=2.0e6, hotspot=self.HOTSPOT,
            hotspot_cost=self.HOTSPOT_COST, hotspot_from=1,
        )
        self.transport = TransportConfig(
            retry=RetryPolicy(max_retries=40, ack_timeout=5.0),
        ).with_faults(drop=0.05, reorder=0.05,
                      seed=int(rng.integers(2**31)))
        self.control = ControlConfig.from_xml_attrs(
            {"execution": "off", "codec": "off", "placement": "off",
             "pool": "off", "repartition": "on",
             "interval": str(self.INTERVAL)},
        )
        self.cost = CommCostModel(latency=us(20.0), bandwidth=gbs(2.0))

    @property
    def operations(self) -> int:
        return self.RANKS * self.STEPS

    def execute(self):
        return run_spmd(self.RANKS, self._rank, cost=self.cost)

    def _rank(self, comm):
        plane = ControlPlane(self.control, comm=comm)
        work = StencilWorkload(
            comm, self.stencil, transport=self.transport, plane=plane,
            adaptive=True, interval=self.INTERVAL,
        )
        work.u[:] = self.initial
        clock = current_clock()
        samples = []
        for k in range(1, self.STEPS + 1):
            t0 = clock.now
            work.step(k)
            samples.append(clock.now - t0)
        end = clock.now
        owned = [(start, interior.copy())
                 for _b, start, _stop, interior in work.u.local_spans()]
        summary = work.summary()
        drops = work.exchanger.drops_recovered
        work.close()
        return {"end": end, "samples": samples, "owned": owned,
                "summary": summary, "drops": drops}

    def baseline(self) -> np.ndarray:
        """Plain single-threaded numpy Jacobi with zero Dirichlet edges."""
        alpha = self.stencil.alpha
        padded = np.zeros(self.LENGTH + 2)
        padded[1:-1] = self.initial
        for _ in range(self.STEPS):
            left, mid, right = padded[:-2], padded[1:-1], padded[2:]
            padded[1:-1] = mid + alpha * (left - 2.0 * mid + right)
        return padded[1:-1]

    def examine(self, raw) -> Rep:
        rep = Rep(attempted=self.operations)
        t0 = time.perf_counter()
        want = self.baseline()
        baseline_s = time.perf_counter() - t0
        scale = float(np.max(np.abs(self.initial)))
        for rank, r in enumerate(raw):
            rep.samples += r["samples"]
            worst = max(
                (float(np.max(np.abs(v - want[s:s + v.size]), initial=0.0))
                 for s, v in r["owned"]),
                default=0.0,
            )
            if worst > self.RTOL * scale:
                rep.failed += self.STEPS
                rep.errors.append(
                    f"rank {rank}: final field off the numpy baseline by "
                    f"{worst:.3g} (tolerance {self.RTOL * scale:.3g})"
                )
        covered = sum(v.size for r in raw for _s, v in r["owned"])
        if covered != self.LENGTH:
            rep.errors.append(f"ranks own {covered} rows, want {self.LENGTH}")
            rep.failed = max(rep.failed, 1)
        rep.makespan = max(r["end"] for r in raw)
        summary = raw[0]["summary"]
        rep.counters = {
            "array.halo_bytes": sum(r["summary"]["halo_bytes"] for r in raw),
            "array.handoff_bytes": sum(
                r["summary"]["handoff_bytes"] for r in raw
            ),
            "array.repartitions": summary["repartitions"],
            "array.drops_recovered": sum(r["drops"] for r in raw),
            "array.numpy_baseline_s": baseline_s,
        }
        return rep


# -- lint-tree --------------------------------------------------------------------


class LintTree(Workload):
    """``lint_paths(..., check_suppressions=True)`` over a seeded corpus."""

    name = "lint-tree"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.root = WORK_DIR / "lint-corpus"
        self.expected = generate(self.root, self.seed)
        self.files = sorted(
            str(p.relative_to(self.root)) for p in self.root.rglob("*.py")
        )

    @property
    def operations(self) -> int:
        return len(self.files)

    def reset(self) -> None:
        pass

    def execute(self):
        return lint_paths([self.root], check_suppressions=True)

    def examine(self, findings) -> Rep:
        rep = Rep(attempted=self.operations)
        got = {
            (str(Path(f.path).relative_to(self.root)), f.line, f.rule)
            for f in findings
        }
        for path in self.files:
            want = {f for f in self.expected if f[0] == path}
            have = {f for f in got if f[0] == path}
            if want != have:
                rep.failed += 1
                rep.errors.append(
                    f"{path}: missing {sorted(want - have)}, "
                    f"unexpected {sorted(have - want)}"
                )
        rep.counters = {
            "analysis.files": len(self.files),
            "analysis.findings": len(findings),
        }
        return rep


WORKLOADS = {
    w.name: w for w in (InsituSweep, ServiceFanin, ArraySkew, LintTree)
}
