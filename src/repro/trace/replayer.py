"""Trace replay: feed a recorded run back through the live service.

:func:`replay_trace` reconstructs the recorded run's configuration
from the trace header (via :mod:`repro.trace.configs`), then launches
``run_service`` with a *scripted* producer: each producer rank walks
its recorded event stream in ``seq`` order, restores the recorded
publish cadence with ``clock.wait_for(entry)`` (exact — the recorder
stores absolute simulated entry times, not gaps), rebuilds each
published table bit-exactly from the recorded column bytes, and
replays ``finish_pipeline`` calls at their recorded clock readings.

Because every ingredient of the original run is a pure function of
what the trace carries — configs, seeds, payload bytes, cadence — the
replay's decisions, observations, retry counts, and simulated
timestamps re-record to the *byte-identical* trace.  That fixpoint
(``replay(record(run)) re-records to record(run)``) is what the
golden-trace regression gate checks in CI.

The replay runs real analyses only if the caller passes a registry;
by default every pipeline gets a :class:`SinkAnalysis` that validates
the merged tables arrive but does no numerics, keeping the gate about
the transport/control planes rather than back-end math.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TraceFormatError
from repro.hamr.runtime import current_clock
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.trace.configs import decode_control, decode_cost, decode_service
from repro.trace.format import Trace, decode_table
from repro.trace.recorder import TraceRecorder

__all__ = ["SinkAnalysis", "ReplayResult", "replay_trace", "diff_traces"]

#: Governors whose decisions the replay *regenerates* live: they are
#: driven entirely by the transport path the replay re-executes (codec
#: and flow from the per-step transport tap, quota and shard from the
#: service bridge's coordination rounds).  Every other governor is
#: driven by workload-side state that does not run under replay
#: (in situ bridges, pools, device loads, array repartitioning); its
#: recorded decisions are re-injected from the script instead.
_REPLAYED_GOVERNORS = frozenset({"codec", "flow", "quota", "shard"})


def _regenerated(event: dict) -> bool:
    """Will the live replay re-emit this recorded event itself?"""
    if event["kind"] == "obs":
        return event.get("origin", "transport") == "transport"
    if event["kind"] == "decision":
        return _field(event, "governor", _text) in _REPLAYED_GOVERNORS
    return False


def _text(value) -> str:
    """A field that must already be a string (no coercion)."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


class SinkAnalysis(AnalysisAdaptor):
    """An endpoint back-end that consumes merged steps and counts them."""

    def __init__(self, name: str = "sink"):
        super().__init__(name)
        self.set_device_id(-1)
        self.steps_seen = 0

    def acquire(self, data, deep: bool):
        self.steps_seen += 1
        return None

    def process(self, payload, comm, device_id: int) -> None:
        pass


@dataclass
class ReplayResult:
    """What a replay produced: the re-recorded trace plus the run."""

    trace: Trace
    producers: list = field(default_factory=list)
    endpoints: list = field(default_factory=list)


def _field(event: dict, key: str, conv):
    """A typed event field, with structured failure on skew."""
    try:
        return conv(event[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"{event.get('kind', '?')} event (rank {event.get('rank')}, "
            f"seq {event.get('seq')}) has a bad {key!r} field: {exc}",
            details={
                "kind": event.get("kind"),
                "rank": event.get("rank"),
                "seq": event.get("seq"),
                "field": key,
            },
        ) from exc


def _producer_scripts(trace: Trace, m: int) -> dict[int, list]:
    """Each producer rank's validated op stream, in recorded order.

    Field conversion (and table decoding) happens here, in the calling
    thread, so a malformed trace fails as a :class:`TraceFormatError`
    before any producer launches — not as a wrapped SPMD rank failure.
    """
    scripts: dict[int, list] = {rank: [] for rank in range(m)}
    for event in sorted(trace.events, key=lambda e: (e["rank"], e["seq"])):
        if event["rank"] not in scripts:
            continue
        kind = event["kind"]
        if kind == "fin":
            op = (
                "fin",
                _field(event, "entry", float),
                _field(event, "pipeline", str),
            )
        elif kind == "publish":
            meshes = _field(event, "meshes", dict)
            op = (
                "publish",
                _field(event, "entry", float),
                _field(event, "step", int),
                _field(event, "sim_time", float),
                {m_: decode_table(m_, meshes[m_]) for m_ in sorted(meshes)},
            )
        elif _regenerated(event):
            continue  # the live replay re-emits this one itself
        else:
            op = ("inject", event)
        scripts[event["rank"]].append(op)
    return scripts


def replay_trace(trace, registry=None) -> ReplayResult:
    """Replay a recorded trace and re-record it (the fixpoint check).

    ``trace`` is a :class:`~repro.trace.format.Trace` or its JSONL
    text.  Returns a :class:`ReplayResult` whose ``trace`` should be
    byte-identical (``.to_jsonl()``) to the input when the input was
    itself recorded from a seeded run.
    """
    if isinstance(trace, str):
        trace = Trace.from_jsonl(trace)
    header = trace.header
    config = decode_service(header["service"])
    cost = decode_cost(header.get("cost"))
    control = decode_control(header.get("control"))
    try:
        m, n = int(header["m"]), int(header["n"])
        if m < 1 or n < 1:
            raise ValueError(f"m={m}, n={n} must both be >= 1")
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(
            f"trace header has a bad topology: {exc}",
            details={"section": "topology"},
        ) from exc
    scripts = _producer_scripts(trace, m)
    if registry is None:
        registry = {
            name: (lambda: [SinkAnalysis()]) for name in config.names
        }

    def producer_main(sim_comm, bridge):
        clk = current_clock()
        for op in scripts.get(sim_comm.rank, ()):
            if op[0] == "fin":
                _kind, entry, pipeline = op
                clk.wait_for(entry)
                bridge.finish_pipeline(pipeline)
            elif op[0] == "publish":
                _kind, entry, step, sim_time, tables = op
                clk.wait_for(entry)
                # Fresh adaptor per publish: a mesh absent from this
                # step's record must not linger from an earlier one.
                adaptor = TableDataAdaptor(comm=sim_comm)
                for mesh, table in tables.items():
                    adaptor.set_table(mesh, table)
                adaptor.set_step(step, sim_time)
                bridge.execute(adaptor)
            else:
                bridge.inject(op[1])
        return sim_comm.rank

    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceFormatError(
            "trace header has a bad meta: expected an object, got "
            f"{type(meta).__name__}",
            details={"section": "meta"},
        )
    recorder = TraceRecorder(trace.name, meta=dict(meta))
    recorder.describe(config, m, n, cost=cost, control=control)
    from repro.service.runtime import run_service

    producers, endpoints = run_service(
        config,
        producer_main,
        registry,
        m=m,
        n=n,
        cost=cost,
        control=control,
        recorder=recorder,
    )
    return ReplayResult(
        trace=recorder.trace(), producers=producers, endpoints=endpoints
    )


def diff_traces(a: Trace, b: Trace, limit: int = 20) -> list[str]:
    """Human-readable record-level differences between two traces.

    Empty when the traces are byte-identical; otherwise up to ``limit``
    lines naming the first diverging records — the error message the
    golden gate prints when a trace drifts.
    """
    lines_a = a.to_jsonl().splitlines()
    lines_b = b.to_jsonl().splitlines()
    out = []
    for i in range(max(len(lines_a), len(lines_b))):
        if len(out) >= limit:
            out.append("... (diff truncated)")
            break
        ra = lines_a[i] if i < len(lines_a) else "<missing>"
        rb = lines_b[i] if i < len(lines_b) else "<missing>"
        if ra != rb:
            out.append(f"record {i}: {ra!r} != {rb!r}")
    return out
