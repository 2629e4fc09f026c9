"""The built-in rules (HL001-HL010) targeting this codebase's idioms.

Each rule encodes one of the correctness hazards the heterogeneous
substrate permits mechanically (see :mod:`repro.hamr.buffer`): the
linter's job is to make them visible before the sanitizer has to catch
them at run time.

Most rules are static heuristics over names and keywords — they
resolve ``Allocator``/``PMKind``/``StreamMode`` members against the
real enums but do not do type inference.  The *project rules*
(HL003, HL008, HL009, HL010) additionally opt into the engine's
:class:`~repro.analysis.dataflow.ProjectContext` and reason across
function and file boundaries through bounded data-flow summaries.
False positives are expected to be rare in this tree and are silenced
with ``# lint: disable=HLxxx`` plus a justification comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, Severity
from repro.analysis.project import FLOW_NODES
from repro.hamr.allocator import HOST_DEVICE_ID, Allocator, PMKind

__all__ = [
    "RawDataAccessRule",
    "AllocatorMismatchRule",
    "UnsynchronizedStreamRule",
    "UnownedWrapRule",
    "ThreadOutsideRunnerRule",
    "SwallowedErrorRule",
    "PoolLeakRule",
    "PlacementChargeRule",
    "PoolEscapeRule",
    "NondeterministicDecisionRule",
    "ProjectRule",
    "DEFAULT_RULES",
    "default_rules",
    "rule_span",
]


# -- helpers ------------------------------------------------------------------

def _attr_name(node: ast.AST) -> str | None:
    """Trailing identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _enum_member(node: ast.AST, enum_name: str, enum_cls):
    """Resolve ``EnumName.MEMBER`` attribute nodes to the real member."""
    if (
        isinstance(node, ast.Attribute)
        and _attr_name(node.value) == enum_name
    ):
        return getattr(enum_cls, node.attr, None)
    return None


def _literal_device_id(node: ast.AST) -> int | None:
    """Literal device ordinals: ints, ``-1``, or ``HOST_DEVICE_ID``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return int(node.value)
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -int(node.operand.value)
    if _attr_name(node) == "HOST_DEVICE_ID":
        return HOST_DEVICE_ID
    return None


def _keywords(call: ast.Call) -> dict[str, ast.expr]:
    return {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}


# -- HL001 --------------------------------------------------------------------

class RawDataAccessRule(Rule):
    """Raw ``Buffer.data`` / ``._data`` access outside the view layer.

    Storage tagged with a location must be dereferenced through the
    access APIs in :mod:`repro.hamr.view` (or the ``get_*_accessible``
    methods layered on them), which charge the right simulated costs
    and stage temporaries.  ``self.data`` / ``self._data`` are exempt
    (classes managing their own storage), as are the view and buffer
    modules that *define* the access path.
    """

    id = "HL001"
    severity = Severity.ERROR
    title = "raw buffer storage access outside the view layer"
    hint = (
        "route access through repro.hamr.view.accessible_view or the "
        "HAMRDataArray.get_*_accessible APIs; engine-layer code may "
        "suppress with '# lint: disable=HL001' and a justification"
    )

    #: Modules that define the sanctioned access path.
    allowed = ("repro/hamr/view.py", "repro/hamr/buffer.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.allowed):
            return
        for node in ctx.nodes(ast.Attribute):
            if node.attr not in ("data", "_data"):
                continue
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                continue
            yield self.finding(
                ctx,
                node,
                f"raw '.{node.attr}' access bypasses the location-aware "
                "view layer",
                details={"attribute": node.attr},
            )


# -- HL002 --------------------------------------------------------------------

class AllocatorMismatchRule(Rule):
    """Allocator paired with an incompatible location or PM.

    Flags calls whose literal keywords contradict the allocator's
    capabilities: a host-resident allocator targeting a device ordinal,
    a device allocator targeting ``HOST_DEVICE_ID``, or a
    device-resident allocator paired with the host-only PM.
    """

    id = "HL002"
    severity = Severity.ERROR
    title = "allocator/location/PM mismatch"
    hint = (
        "pick the allocator for where the memory must live: host "
        "allocators (MALLOC/NEW/*_HOST) pair with HOST_DEVICE_ID, "
        "device allocators with a device ordinal and a device PM"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            kws = _keywords(node)
            alloc = _enum_member(kws.get("allocator"), "Allocator", Allocator)
            if alloc is None:
                continue
            details = {"allocator": alloc.name}
            dev = (
                _literal_device_id(kws["device_id"])
                if "device_id" in kws
                else None
            )
            if dev is not None:
                details["device_id"] = dev
                if alloc.is_host_resident and dev != HOST_DEVICE_ID:
                    yield self.finding(
                        ctx,
                        node,
                        f"host-resident allocator {alloc.name} cannot "
                        f"target device {dev}",
                        details=details,
                    )
                elif alloc.is_device_resident and dev < 0:
                    yield self.finding(
                        ctx,
                        node,
                        f"device allocator {alloc.name} cannot target "
                        "host memory",
                        details=details,
                    )
            pm = _enum_member(kws.get("pm"), "PMKind", PMKind)
            if pm is PMKind.HOST and alloc.is_device_resident:
                details["pm"] = pm.value
                yield self.finding(
                    ctx,
                    node,
                    f"device allocator {alloc.name} paired with the "
                    "host-only PM",
                    details=details,
                )


# -- project rules ------------------------------------------------------------

class ProjectRule(Rule):
    """Base for rules that reason across function and file boundaries.

    The engine hands these the run's shared
    :class:`~repro.analysis.dataflow.ProjectContext` (module index,
    call graph, data-flow summaries) on :attr:`FileContext.project`.
    Used standalone — outside the engine — they degrade gracefully to a
    single-file project, keeping cross-function reasoning within the
    file.
    """

    uses_project = True

    def project_for(self, ctx: FileContext):
        if ctx.project is not None:
            return ctx.project
        from repro.analysis.dataflow import ProjectContext

        return ProjectContext.build([ctx])


# -- HL003 --------------------------------------------------------------------

class UnsynchronizedStreamRule(ProjectRule):
    """A stream created and used asynchronously but never synchronized.

    ``s = Stream(...)`` followed by asynchronous use (a call passing
    ``stream=s`` with ``mode=StreamMode.ASYNC`` / ``stream_mode=...``)
    is flagged unless the function also synchronizes *something*
    (``.synchronize()``/``.drain()``), returns the stream, or stores it
    on ``self`` — i.e. unless the completion is someone's
    responsibility.

    Interprocedural: the async use may happen inside a callee the
    stream is passed to, the stream may have been minted by a helper
    (``s = make_stream()``), and a callee that synchronizes the
    parameter discharges the obligation — all tracked through
    :class:`~repro.analysis.dataflow.StreamAnalysis` summaries with
    bounded call depth.
    """

    id = "HL003"
    severity = Severity.WARNING
    title = "asynchronous stream never synchronized"
    hint = (
        "call stream.synchronize(clock) (or synchronize the buffers "
        "ordered on it) before the results are consumed, or hand the "
        "stream to a caller that will"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        proj = self.project_for(ctx)
        seen: set[tuple[int, int, str]] = set()
        for fn, _fi in proj.iter_file_functions(ctx):
            scope = proj.scope(ctx, fn)
            facts = proj.streams.facts(fn, scope)
            if facts.any_sync:
                continue
            leaked = (
                (facts.async_used & set(facts.created))
                - facts.escaped
                - facts.synced
            )
            for name in sorted(leaked):
                node = facts.created[name]
                key = (node.lineno, node.col_offset, name)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    ctx,
                    node,
                    f"stream {name!r} orders asynchronous work but is "
                    "never synchronized in this function",
                    details={"stream": name, "stream_mode": "async"},
                )


# -- HL004 --------------------------------------------------------------------

class UnownedWrapRule(Rule):
    """Zero-copy construction without a lifetime owner.

    ``Buffer.wrap`` / ``*.zero_copy`` capture a pointer to externally
    allocated memory; without an ``owner`` (keep-alive) or ``deleter``
    (coordinated free) the wrapped storage can disappear while the
    buffer still references it — the classic zero-copy use-after-free.
    """

    id = "HL004"
    severity = Severity.WARNING
    title = "zero-copy wrap without lifetime owner"
    hint = (
        "pass owner= (keep-alive reference) or deleter= (called once "
        "on free) so the external memory outlives the buffer"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes(ast.Call):
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr == "wrap":
                recv = _attr_name(node.func.value)
                if recv is None or not recv.endswith("Buffer"):
                    continue
            elif attr != "zero_copy":
                continue
            if any(kw.arg is None for kw in node.keywords):
                continue  # **kwargs forwarding: cannot see statically
            kws = _keywords(node)
            if "owner" in kws or "deleter" in kws:
                continue
            yield self.finding(
                ctx,
                node,
                f"zero-copy '{attr}' without owner= or deleter=: the "
                "wrapped memory's lifetime is uncoordinated",
                details={"constructor": attr},
            )


# -- HL005 --------------------------------------------------------------------

class ThreadOutsideRunnerRule(Rule):
    """Direct ``threading.Thread`` use outside :class:`AsyncRunner`.

    Ad-hoc threads bypass the simulated-clock hand-off, back-pressure,
    and exception propagation that :class:`AsyncRunner` provides; a
    thread without its own :class:`SimClock` silently reads the
    launching thread's clock and corrupts simulated time.
    """

    id = "HL005"
    severity = Severity.ERROR
    title = "raw thread outside AsyncRunner"
    hint = (
        "use repro.sensei.execution.AsyncRunner (simulated clocks, "
        "drain semantics, error propagation) instead of a raw Thread"
    )

    #: The module that implements the sanctioned threading machinery.
    allowed = ("repro/sensei/execution.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.allowed):
            return
        for node in ctx.nodes(ast.Call):
            func = node.func
            is_thread = (
                isinstance(func, ast.Attribute)
                and func.attr == "Thread"
                and _attr_name(func.value) == "threading"
            ) or (isinstance(func, ast.Name) and func.id == "Thread")
            if is_thread:
                yield self.finding(
                    ctx,
                    node,
                    "direct threading.Thread use outside AsyncRunner",
                )


# -- HL006 --------------------------------------------------------------------

class SwallowedErrorRule(Rule):
    """Bare ``except:`` or a silently swallowed ``StreamError``.

    A bare except hides every substrate error (including sanitizer
    violations); catching ``StreamError``/``SynchronizationError`` and
    doing nothing discards exactly the signal the stream layer exists
    to raise.
    """

    id = "HL006"
    severity = Severity.ERROR
    title = "swallowed stream error / bare except"
    hint = (
        "catch the narrowest ReproError subclass you can handle and "
        "either handle it or re-raise; never pass on a StreamError"
    )

    _stream_errors = ("StreamError", "SynchronizationError")

    def _catches_stream_error(self, handler: ast.ExceptHandler) -> bool:
        t = handler.type
        nodes = t.elts if isinstance(t, ast.Tuple) else [t]
        return any(_attr_name(n) in self._stream_errors for n in nodes if n)

    @staticmethod
    def _body_swallows(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / ellipsis
            return False
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes(ast.ExceptHandler):
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare 'except:' hides substrate errors"
                )
            elif self._catches_stream_error(node) and self._body_swallows(node):
                yield self.finding(
                    ctx,
                    node,
                    "StreamError caught and silently discarded",
                )


# -- HL007 --------------------------------------------------------------------

class PoolLeakRule(Rule):
    """A pool ``acquire`` without a ``release``/``trim`` in scope.

    Within one function: acquiring a block from a memory pool
    (``pool_for(res).acquire(...)`` or ``pool.acquire(...)`` on a name
    bound from ``pool_for``) without any ``release``/``trim`` call in
    the same function leaks the block's footprint — the bytes stay
    claimed on the device until someone trims.  The acquire is exempt
    when the pool escapes the function (returned, stored on ``self``),
    i.e. when releasing is visibly someone else's responsibility.
    """

    id = "HL007"
    severity = Severity.WARNING
    title = "pool acquire without release/trim in scope"
    hint = (
        "pair pool.acquire(nbytes) with pool.release(nbytes) (or a "
        "trim()) in the same scope, or hand the pool to an owner that "
        "frees it; allocation/free layers may suppress with "
        "'# lint: disable=HL007' and a justification"
    )

    #: The allocation/free layer splits acquire and release across
    #: functions by design (allocate vs free), and the pool module
    #: defines the machinery itself.
    allowed = ("repro/hamr/buffer.py", "repro/hamr/pool.py")

    @staticmethod
    def _is_pool_receiver(recv: ast.AST, pool_names: set[str]) -> bool:
        if isinstance(recv, ast.Call) and _attr_name(recv.func) == "pool_for":
            return True
        name = _attr_name(recv)
        return name is not None and name in pool_names

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.allowed):
            return
        for fn in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
            pool_names: set[str] = set()
            escaped: set[str] = set()
            # Receivers are checked after the walk, once every
            # pool_for binding in the function is known.
            acquires: list[ast.Call] = []
            discharged = False
            for node in ctx.nodes(*FLOW_NODES, root=fn):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    if _attr_name(node.value.func) == "pool_for":
                        for tgt in node.targets:
                            if isinstance(tgt, ast.Name):
                                pool_names.add(tgt.id)
                            elif isinstance(tgt, ast.Attribute):
                                escaped.add("")  # stored: escapes
                if isinstance(node, ast.Return) and node.value is not None:
                    for sub in ctx.walk(node.value):
                        if isinstance(sub, ast.Name):
                            escaped.add(sub.id)
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Attribute):
                            escaped.add(node.value.id)
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    if node.func.attr == "acquire":
                        acquires.append(node)
                    elif node.func.attr in ("release", "trim"):
                        discharged = True
            if discharged:
                continue
            for call in acquires:
                if not self._is_pool_receiver(call.func.value, pool_names):
                    continue
                recv_name = _attr_name(call.func.value)
                if recv_name in escaped:
                    continue
                yield self.finding(
                    ctx,
                    call,
                    "pool block acquired but never released or trimmed "
                    "in this scope",
                    details={"pool": recv_name or "pool_for(...)"},
                )


# -- HL008 --------------------------------------------------------------------

class PlacementChargeRule(ProjectRule):
    """Work charged to a device other than the resolved placement.

    The placement formula (Eq. 1) exists so every rank charges its in
    situ work to *its* assigned device.  A function that resolves the
    placement — ``placement.resolve(rank)``, ``resolve_device()``, or
    ``select_device(...)`` — and then passes a *hardcoded* device
    ordinal as ``device_id=`` to some call is charging work to a device
    the formula may have assigned to another rank: on a shared node
    that double-charges one device while the resolved one idles, and
    the accounting (utilization, contention) silently lies.

    Charging the host (``-1`` / ``HOST_DEVICE_ID``) is exempt — host
    staging next to a device-placed analysis is a legitimate pattern,
    and the host is not a placement-managed device.
    """

    id = "HL008"
    severity = Severity.WARNING
    title = "device charge bypasses the resolved placement"
    hint = (
        "pass the resolved device (the value of placement.resolve(rank) "
        "/ resolve_device() / select_device(...)) instead of a "
        "hardcoded ordinal; deliberate cross-device staging may "
        "suppress with '# lint: disable=HL008' and a justification"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        proj = self.project_for(ctx)
        seen: set[tuple[int, int, int]] = set()
        for fn, _fi in proj.iter_file_functions(ctx):
            scope = proj.scope(ctx, fn)
            facts = proj.charges.facts(fn, scope)
            resolved = facts.resolved_names
            if resolved:
                for call, dev in facts.literal_kw:
                    if dev < 0:
                        continue  # host staging (exempt)
                    key = (call.lineno, call.col_offset, dev)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding(
                        ctx,
                        call,
                        f"call charges device {dev} although this function "
                        f"resolved the placement into "
                        f"{'/'.join(sorted(resolved))}",
                        details={
                            "device_id": dev,
                            "resolved": ", ".join(sorted(resolved)),
                        },
                    )
            for call, dev, callee, callee_resolves in facts.literal_via_helper:
                if dev < 0:
                    continue  # host staging (exempt)
                if not (resolved or callee_resolves):
                    continue  # no placement in sight: manual choice
                key = (call.lineno, call.col_offset, dev)
                if key in seen:
                    continue
                seen.add(key)
                where = (
                    f"this function resolved the placement into "
                    f"{'/'.join(sorted(resolved))}"
                    if resolved
                    else f"'{callee}' resolves the placement itself"
                )
                yield self.finding(
                    ctx,
                    call,
                    f"literal device {dev} flows through '{callee}' into "
                    f"charged work although {where}",
                    details={
                        "device_id": dev,
                        "via": callee,
                        "resolved": ", ".join(sorted(resolved)),
                    },
                )


# -- HL009 --------------------------------------------------------------------

class PoolEscapeRule(ProjectRule):
    """A pool handle leaking across a function boundary.

    HL007 deliberately exempts an acquired pool that *escapes* its
    function — returned, stored, or handed to a callee — because
    releasing is then visibly someone else's responsibility.  This rule
    follows the escape: a ``pool_for``/``acquire`` result handed back
    by a helper must be released, trimmed, re-escaped, or passed to a
    releasing callee by the receiver; a handle discarded outright, or
    passed into a callee that provably never releases it while the
    local release discharged something *else*, leaks the block's
    footprint with no path to reclaim it.
    """

    id = "HL009"
    severity = Severity.WARNING
    title = "pool handle leaks across a function boundary"
    hint = (
        "release/trim the pool handle the helper returned, hand it to "
        "an owner that will, or keep the acquire/release pair in one "
        "scope; deliberate transfer may suppress with "
        "'# lint: disable=HL009' and a justification"
    )

    #: Same layers HL007 exempts: they split acquire/release by design.
    allowed = ("repro/hamr/buffer.py", "repro/hamr/pool.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_module(*self.allowed):
            return
        proj = self.project_for(ctx)
        seen: set[tuple[int, int, str]] = set()

        def emit(node, message, **details):
            key = (node.lineno, node.col_offset, message)
            if key in seen:
                return None
            seen.add(key)
            return self.finding(ctx, node, message, details=details)

        for fn, _fi in proj.iter_file_functions(ctx):
            scope = proj.scope(ctx, fn)
            facts = proj.pools.facts(fn, scope)

            def kept_locally(name):
                return (
                    name in facts.released
                    or name in facts.returned
                    or name in facts.attr_stored
                )

            def discharged_by_pass(name):
                return any(
                    proj.pools.param_released_by(resolved, param)
                    for _call, resolved, param in facts.passes.get(name, ())
                )

            for name in sorted(facts.callee_pools):
                call, origin = facts.callee_pools[name]
                if kept_locally(name) or discharged_by_pass(name):
                    continue
                f = emit(
                    call,
                    f"pool handle acquired in '{origin}' is never "
                    "released or trimmed on any path from here",
                    pool=name,
                    origin=origin,
                )
                if f:
                    yield f
            for call, origin in facts.discarded:
                f = emit(
                    call,
                    f"acquired pool handle returned by '{origin}' is "
                    "discarded without release",
                    origin=origin,
                )
                if f:
                    yield f
            # A local acquire whose only escape is into a callee that
            # provably never releases it: HL007's same-scope discharge
            # (any release/trim present) hides exactly this case.
            if not facts.any_release:
                continue
            for name in sorted(set(facts.local_pools) & facts.acquired):
                if kept_locally(name):
                    continue
                passes = facts.passes.get(name, ())
                if not passes or discharged_by_pass(name):
                    continue
                call, resolved, _param = passes[0]
                f = emit(
                    call,
                    f"pool handle escapes into '{resolved.func.qualname}' "
                    "which never releases or trims it",
                    pool=name,
                    callee=resolved.func.qualname,
                )
                if f:
                    yield f


# -- HL010 --------------------------------------------------------------------

class NondeterministicDecisionRule(ProjectRule):
    """Nondeterminism feeding a governor :class:`Decision`.

    The control plane's contract (PRs 3-5) is bit-identical decisions
    across ranks and reruns.  This rule statically guards it: inside
    any function on a *decision path* — one that constructs a
    ``repro.control.governors.Decision`` or a
    ``repro.trace.format.TraceEvent`` (the trace recorder's record
    type: recorded traces must be byte-reproducible), directly feeds
    one (its callers), or computes values for one (their callees,
    bounded depth) — it flags:

    - wall-clock reads (``time.time``/``monotonic``/``perf_counter``,
      ``datetime.now``/``utcnow``/``today``),
    - module-level ``random.*`` calls and unseeded ``random.Random()``
      (a seeded ``random.Random(seed)`` instance is the sanctioned
      source of randomness),
    - iteration over ``.keys()``/``.values()``/``.items()`` or
      ``set(...)`` in ``for`` loops and comprehensions without a
      ``sorted(...)`` wrapper — insertion order is rank-local, so
      dict-order dependence breaks cross-rank agreement.

    The simulated clock (``current_clock()``, ``clock.now``) and
    seeded RNG instances are allowlisted by construction: neither
    matches the patterns above.
    """

    id = "HL010"
    severity = Severity.WARNING
    title = "nondeterminism on a governor decision path"
    hint = (
        "use the simulated clock (current_clock().now), a seeded "
        "random.Random(seed), and sorted(...) iteration so decisions "
        "replay bit-identically across ranks and reruns; display-only "
        "uses may suppress with '# lint: disable=HL010' and a "
        "justification"
    )

    _wallclock = frozenset({
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    #: Calls, loops and comprehensions: the nodes _nondet_sites reads.
    _site_types = (ast.Call, ast.For, ast.AsyncFor, ast.ListComp,
                   ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        proj = self.project_for(ctx)
        if proj.index.module_for(ctx) is None:
            return
        seen: set[tuple[int, int, str]] = set()
        for fn, fi in proj.iter_file_functions(ctx):
            if fi is None:
                continue  # nested defs are scanned with their parent
            anchor = proj.decisions.anchor(fi)
            if anchor is None:
                continue
            scope = proj.scope(ctx, fn)
            for node, source in self._nondet_sites(fn, scope):
                key = (node.lineno, node.col_offset, source)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    ctx,
                    node,
                    f"{source} on the decision path through "
                    f"'{anchor.rsplit('.', 2)[-1]}' breaks bit-identical "
                    "replay",
                    details={"anchor": anchor, "source": source},
                )

    def _nondet_sites(self, fn, scope):
        for node in scope.nodes(fn, *self._site_types):
            if isinstance(node, ast.Call):
                canon = scope.canonical(node.func)
                if canon in self._wallclock:
                    yield node, f"wall-clock read '{canon}'"
                elif canon == "random.Random":
                    if not (node.args or node.keywords):
                        yield node, "unseeded 'random.Random()'"
                elif canon is not None and canon.startswith("random."):
                    yield node, f"module-level RNG call '{canon}'"
            for it in self._iter_exprs(node):
                kind = self._unordered_iter(it)
                if kind is not None:
                    yield it, f"order-dependent iteration over {kind}"

    @staticmethod
    def _iter_exprs(node):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter

    @staticmethod
    def _unordered_iter(it) -> str | None:
        if not isinstance(it, ast.Call):
            return None
        if isinstance(it.func, ast.Attribute) and it.func.attr in (
            "keys", "values", "items"
        ):
            return f"'.{it.func.attr}()'"
        if isinstance(it.func, ast.Name) and it.func.id == "set":
            return "'set(...)'"
        return None


DEFAULT_RULES: tuple[type[Rule], ...] = (
    RawDataAccessRule,
    AllocatorMismatchRule,
    UnsynchronizedStreamRule,
    UnownedWrapRule,
    ThreadOutsideRunnerRule,
    SwallowedErrorRule,
    PoolLeakRule,
    PlacementChargeRule,
    PoolEscapeRule,
    NondeterministicDecisionRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every built-in rule."""
    return [cls() for cls in DEFAULT_RULES]


def rule_span() -> str:
    """Human-readable id range of the built-in rules, e.g.
    ``HL001-HL010`` — derived so CLI help can never drift again."""
    ids = sorted(cls.id for cls in DEFAULT_RULES)
    return f"{ids[0]}-{ids[-1]}" if len(ids) > 1 else ids[0]
