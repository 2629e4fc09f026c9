"""Span recorder for the traced benchmark run.

The traced run wraps the public entry points of each ``repro`` layer
(see :data:`SPANS`) from the benchmark's own files: the program is not
edited.  A wrapper opens a span (name, start, end, parent, run id,
thread), calls through, and closes the span; some wrappers also add to
a counter (bytes, pool hits) at the same boundary.  Spans stay in
memory and are written out once, when the run ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover.  Children are recorded on the thread that
opened the parent, so work a rank hands to another thread (an
asynchronous analysis worker) forms its own root spans on that thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

__all__ = [
    "Recorder",
    "Span",
    "self_times",
    "install",
    "layer_metrics",
    "hw_counters",
    "thread_attribution",
    "write_trace",
]


class Span:
    """One timed call at a layer boundary (wall seconds, perf_counter)."""

    __slots__ = ("sid", "name", "start", "end", "parent", "thread")

    def __init__(self, sid, name, start, parent, thread):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe, in-memory span and counter store for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.instances: dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, stack: list[Span]) -> Span:
        parent = stack[-1].sid if stack else 0
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    threading.current_thread().name)
        stack.append(span)
        return span

    def close(self, span: Span, stack: list[Span]) -> None:
        span.end = time.perf_counter()
        stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def keep(self, kind: str, obj) -> None:
        with self._lock:
            self.instances[kind].append(obj)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out


# -- wrapping -------------------------------------------------------------------


def _span_wrapper(rec: Recorder, fn, name: str, after=None, nested=True):
    """Time ``fn`` as span ``name``; ``after(rec, args, result)`` counts.

    ``nested=False`` skips the span when the innermost open span on the
    thread already has this name (a collective built on collectives).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = rec.stack()
        if not nested and stack and stack[-1].name == name:
            return fn(*args, **kwargs)
        span = rec.open(name, stack)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span, stack)
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(rec, args, result)
        return result

    return wrapper


def _p2p_bytes(rec, args, _result):
    # The byte count the communicator's cost model charges for.
    from repro.mpi.comm import _payload_bytes

    rec.count("mpi.p2p.bytes", _payload_bytes(args[1]))


def _transfer_bytes(rec, args, _result):
    rec.count("hamr.transfer.bytes", args[0].nbytes)


def _pool_acquire(rec, _args, hit):
    rec.count("hamr.pool.acquires")
    if hit:
        rec.count("hamr.pool.hits")


def _served(rec, _args, steps):
    rec.count("service.steps_processed", steps)


def _keeper(kind):
    def after(rec, args, _result):
        rec.keep(kind, args[0])
    return after


#: (module, owner or None for a module-level function, attribute,
#:  span name or None for count-only, after-hook, nested spans allowed)
SPANS = [
    ("repro.newton.solver", "NewtonSolver", "step", "newton.step", None, True),
    ("repro.binning.operator", "DataBinner", "execute", "binning.execute",
     None, True),
    ("repro.pm.kernels", None, "launch", "pm.launch", None, True),
    ("repro.sensei.bridge", "Bridge", "execute", "sensei.execute", None, True),
    ("repro.hamr.copier", None, "transfer", "hamr.transfer",
     _transfer_bytes, True),
    ("repro.hamr.pool", "MemoryPool", "acquire", None, _pool_acquire, True),
    ("repro.mpi.comm", "ThreadCommunicator", "send", "mpi.send",
     _p2p_bytes, True),
    ("repro.mpi.comm", "ThreadCommunicator", "recv", "mpi.recv", None, True),
    *[
        ("repro.mpi.comm", "ThreadCommunicator", op, "mpi.collective",
         None, False)
        for op in ("barrier", "bcast", "gather", "allgather", "scatter",
                   "alltoall", "reduce", "allreduce", "dup", "split")
    ],
    ("repro.mpi.comm", "Communicator", "coordinated_allreduce",
     "mpi.collective", None, False),
    ("repro.transport.channel", "ReliableSender", "send_step",
     "transport.send_step", None, True),
    ("repro.transport.channel", "ReliableReceiver", "receive_step",
     "transport.receive_step", None, True),
    ("repro.transport.channel", "ReliableSender", "__init__", None,
     _keeper("sender"), True),
    ("repro.hamr.stream", "Stream", "__init__", None, _keeper("stream"), True),
    ("repro.service.runtime", "ServiceEndpoint", "serve", "service.serve",
     _served, True),
    *[
        ("repro.control.plan", "ControlPlane", op, "control.observe",
         None, False)
        for op in ("observe_bridge_step", "observe_transport_step",
                   "observe_device_loads")
    ],
    ("repro.control.plan", "ControlPlane", "__init__", None,
     _keeper("plane"), True),
    ("repro.array.halo", "HaloExchanger", "exchange", "array.exchange",
     None, True),
    ("repro.array.array", "DistributedArray", "repartition",
     "array.repartition", None, True),
    ("repro.analysis.engine", None, "parse_files", "analysis.parse",
     None, True),
    ("repro.analysis.dataflow", "ProjectContext", "build", "analysis.project",
     None, True),
    ("repro.analysis.engine", None, "run_rules_detailed", "analysis.run_rules",
     None, True),
]


@contextlib.contextmanager
def install(rec: Recorder):
    """Wrap every boundary in :data:`SPANS` for ``rec``; undo on exit.

    Module-level functions are replaced in every loaded module that
    bound them by name (``from repro.pm.kernels import launch``), so
    call sites that imported the function directly are traced too.
    """
    undo: list[tuple[object, str, object]] = []

    def put(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(fn, name, after, nested):
        if name is None:
            return _count_wrapper(rec, fn, after)
        return _span_wrapper(rec, fn, name, after, nested)

    try:
        for modname, cls, attr, name, after, nested in SPANS:
            module = importlib.import_module(modname)
            if cls is not None:
                owner = getattr(module, cls)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    put(owner, attr,
                        classmethod(wrap(raw.__func__, name, after, nested)))
                else:
                    put(owner, attr, wrap(raw, name, after, nested))
                continue
            fn = getattr(module, attr)
            wrapped = wrap(fn, name, after, nested)
            for mod in list(sys.modules.values()):
                for key, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is fn:
                        put(mod, key, wrapped)
        yield rec
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# -- reduction to metrics ----------------------------------------------------------


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer calls, inclusive and self wall seconds, and counters."""
    selfs = self_times(rec.spans)
    calls: dict[str, int] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for s in rec.spans:
        calls[s.name] += 1
        wall[s.name] += s.duration
        own[s.name] += selfs[s.sid]
    out = {
        "newton.step.calls": calls["newton.step"],
        "newton.step.self_s": own["newton.step"],
        "binning.execute.calls": calls["binning.execute"],
        "binning.execute.self_s": own["binning.execute"],
        "pm.launch.calls": calls["pm.launch"],
        "pm.launch.self_s": own["pm.launch"],
        "sensei.execute.calls": calls["sensei.execute"],
        "sensei.execute.wall_s": wall["sensei.execute"],
        "hamr.transfer.calls": calls["hamr.transfer"],
        "hamr.transfer.bytes": rec.counts["hamr.transfer.bytes"],
        "hamr.transfer.self_s": own["hamr.transfer"],
        "hamr.pool.hit_ratio": _ratio(
            rec.counts["hamr.pool.hits"], rec.counts["hamr.pool.acquires"]
        ),
        "mpi.p2p.calls": calls["mpi.send"],
        "mpi.p2p.bytes": rec.counts["mpi.p2p.bytes"],
        "mpi.recv.calls": calls["mpi.recv"],
        "mpi.recv.wait_s": wall["mpi.recv"],
        "mpi.collective.calls": calls["mpi.collective"],
        "mpi.collective.wait_s": wall["mpi.collective"],
        "transport.send_step.calls": calls["transport.send_step"],
        "transport.send_step.wall_s": wall["transport.send_step"],
        "transport.receive_step.wall_s": wall["transport.receive_step"],
        "service.serve.wall_s": wall["service.serve"],
        "service.steps_processed": rec.counts["service.steps_processed"],
        "control.observe.wall_s": wall["control.observe"],
        "array.exchange.calls": calls["array.exchange"],
        "array.exchange.wall_s": wall["array.exchange"],
        "array.repartition.wall_s": wall["array.repartition"],
        "analysis.parse.wall_s": wall["analysis.parse"],
        "analysis.project.wall_s": wall["analysis.project"],
        # The rule pass is what run_rules_detailed spends outside its
        # parse and project-index children.
        "analysis.rules.wall_s": own["analysis.run_rules"],
    }
    senders = [s.metrics for s in rec.instances["sender"]]
    chunks = sum(m.chunks_sent for m in senders)
    retries = sum(m.retries for m in senders)
    out.update({
        "transport.chunks_sent": chunks,
        "transport.retries": retries,
        "transport.useful_ratio": _ratio(chunks, chunks + retries),
        "transport.sim_backoff_s": sum(m.backoff_time for m in senders),
        "transport.bytes_out": sum(m.bytes_out for m in senders),
        "transport.wire_bytes": sum(m.wire_bytes for m in senders),
    })
    # Node-consistent governors log the same decisions on every rank's
    # plane, so the count is the per-plane maximum, not the sum.
    by_gov: dict[str, int] = defaultdict(int)
    for plane in rec.instances["plane"]:
        for gov, n in plane.summary()["by_governor"].items():
            by_gov[gov] = max(by_gov[gov], n)
    out["control.decisions.quota"] = by_gov["quota"]
    out["control.decisions.repartition"] = by_gov["repartition"]
    out.update(hw_counters(rec))
    return out


def hw_counters(rec: Recorder) -> dict[str, float]:
    """Simulated busy seconds by event category, and the event count.

    Every simulated operation is scheduled on exactly one timeline: a
    hamr stream's (kernels, copies, allocations) or a transport
    endpoint's (wire time, backoff).  Device timelines only mirror the
    kernels, so they are not counted again.  This is
    ``Timeline.busy_time(category)`` over those timelines, summed with
    ``math.fsum`` so it does not depend on the order rank threads
    appended the events.
    """
    from repro.hw.clock import EventCategory
    from repro.transport.metrics import transport_timelines

    lines = [s.timeline for s in rec.instances["stream"]]
    events = [e for tl in lines + transport_timelines() for e in tl.events]
    busy = {
        c: math.fsum(e.duration for e in events if e.category is c)
        for c in EventCategory
    }
    return {
        "hw.sim_compute_s": busy[EventCategory.COMPUTE],
        "hw.sim_copy_s": busy[EventCategory.COPY],
        "hw.sim_alloc_s": busy[EventCategory.ALLOC] + busy[EventCategory.FREE],
        "hw.sim_comm_s": busy[EventCategory.COMM],
        "hw.sim_events": len(events),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def thread_attribution(rec: Recorder) -> dict[str, dict[str, float]]:
    """Self wall seconds per thread, per span name."""
    selfs = self_times(rec.spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in rec.spans:
        out[s.thread][s.name] += selfs[s.sid]
    return {t: dict(sorted(v.items())) for t, v in sorted(out.items())}


def write_trace(path, rec: Recorder, header: dict) -> None:
    """One JSON header line, then one line per span (start order)."""
    t0 = min((s.start for s in rec.spans), default=0.0)
    with open(path, "w") as f:
        head = dict(header, run_id=rec.run_id, spans=len(rec.spans),
                    threads=thread_attribution(rec))
        f.write(json.dumps(head, sort_keys=True) + "\n")
        for s in sorted(rec.spans, key=lambda s: (s.start, s.sid)):
            f.write(json.dumps([
                s.sid, s.parent, s.name, round(s.start - t0, 9),
                round(s.end - t0, 9), s.thread,
            ]) + "\n")
