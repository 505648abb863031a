"""Per-config compiled step kernels: codegen for the cycle loop.

The reference loop in :meth:`repro.core.simulator.Simulator.run` pays
generic-Python overhead on every *live* cycle: virtual dispatch into
each component phase, attribute lookups for state that never moves,
``tracer.enabled`` tests that are false for the whole run, and replay
bookkeeping that is disabled.  This module generates, per machine
configuration, a monolithic specialized run function in which

* configuration constants (``max_cycles``, the deadlock horizon, queue
  capacities, branch latency, bus/priority knobs) are folded into
  integer and string literals;
* the per-cycle component phases (``memory.begin_cycle``,
  ``engine.update``, ``backend.step``, ``memory.end_cycle``) are
  flattened into straight-line inlined code whenever the component
  opted into emission (see below) and is not monkeypatched;
* ``tracer.enabled`` branches, replay hooks, and the idle-skip block
  are specialized *out* of the source when the corresponding feature
  is disabled for the run;
* component objects, bound methods, and queue storage are hoisted into
  locals once per run, outside the hot loop.

The generated source mirrors the reference loop statement for
statement — same phase order, same counter updates, same trace events,
same error arithmetic — so results, stats, and JSONL trace bytes are
byte-identical (``tests/test_scheduler_differential.py`` pins this
across the whole crosscheck config family).

**Specialization contract.**  A component opts into lowering by
providing ``emit_compiled_*`` classmethods (and/or declaring
``COMPILED_IDLE_HINT`` / ``COMPILED_POLL_GUARD``); the generator only
uses them when the live instance is exactly the known class with no
instance-level monkeypatching, otherwise it falls back to calling the
bound method — so tests that stub out ``frontend.poll_requests`` or
``backend.step`` still see their stubs.  Every fold decision is part
of the :class:`KernelSpec`, which keys the process-wide compile cache:
one config (plus traced/skip/replay flags and fold profile) compiles
exactly once per process.  The caches live in process memory only;
forked sweep workers inherit whatever the parent had compiled.
``docs/COMPILED.md`` documents the contract in full.

**Hoisting rule.**  Only objects that are never *rebound* during a run
may be hoisted into kernel locals: component objects, the queues'
``_items`` deques (mutated in place, even by replay's commit), the
stall-counter dict, stats objects.  Attributes the replay engine or
the components rebind (``external.in_flight``, ``fpu._ops_pending``,
``engine._uncommitted_*``) are always read through their owner.

``compiled=False``, ``--no-compiled`` or ``REPRO_NO_COMPILED=1``
selects the interpreted engines for differential testing.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from ..cpu.backend import Backend, _PendingBranch
from ..cpu.data_engine import DataQueueEngine
from ..cpu.dispatch import (
    ProgramDispatchTable,
    clear_dispatch_cache,
    dispatch_codegen_stats,
)
from ..cpu.executor import execute, queue_effects
from ..cpu.queues import ArchitecturalQueue
from ..frontend.base import FetchUnit
from ..frontend.conventional import ConventionalFetchUnit
from ..frontend.icache import InstructionCache
from ..frontend.pipe_fetch import PipeFetchUnit
from ..frontend.tib import TibFetchUnit
from ..isa.encoding import DecodeError
from ..isa.predecode import PredecodedImage
from ..memory.external import ExternalMemory
from ..memory.fpu import is_fpu_address
from ..memory.fpu_timing import TimedFpu
from ..memory.requests import RequestKind, RequestPriority, acceptance_order
from ..memory.system import MemorySystem
from .scheduler import (
    ENGINE_REVISION,
    IDLE,
    inline_frontend_enabled_default,
    specialize_dispatch_enabled_default,
)

__all__ = [
    "CompiledKernel",
    "KernelContext",
    "KernelSpec",
    "clear_compile_cache",
    "compile_stats",
    "config_fingerprint",
    "generate_source",
    "kernel_for",
    "kernel_spec_for",
]


def config_fingerprint(config) -> str:
    """Content address of one :class:`MachineConfig` for kernel keying.

    Folds the engine revision so a kernel compiled by one generator
    version can never be mistaken for another's (mirrors the simcache
    key discipline).
    """
    payload = repr(sorted(config.to_dict().items()))
    h = hashlib.sha256()
    h.update(ENGINE_REVISION.encode())
    h.update(b"\x00")
    h.update(payload.encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# The kernel specification: everything the generated source depends on
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSpec:
    """Pure value object from which kernel source is generated.

    ``generate_source`` is a deterministic function of this spec (the
    golden test pins that), and the spec is the compile-cache key: two
    runs share a kernel iff their specs are equal.  The ``inline_*`` /
    ``fold_*`` flags record which components were eligible for
    lowering when the spec was built; a monkeypatched component simply
    produces a spec with that fold off, whose kernel calls the bound
    method instead.
    """

    config_key: str
    traced: bool
    skip: bool
    replay: bool
    max_cycles: int
    deadlock_cycles: int
    snapshot_mask: int
    branch_resolution_latency: int
    laq_capacity: int | None
    ldq_capacity: int | None
    saq_capacity: int | None
    sdq_capacity: int | None
    memory_pipelined: bool
    instruction_first: bool
    strategy: str
    describe: str
    inline_step: bool
    inline_update: bool
    inline_begin: bool
    inline_end: bool
    poll_guard: bool
    inline_frontend: bool
    specialize_dispatch: bool
    #: PIPE only: icache line size folded into the IQB-exhaustion guards
    line_size: int | None
    #: PIPE only: IQ byte capacity folded into the transfer loop
    pipe_iq_size: int | None
    #: TIB only: stream-request geometry folded into the request guard
    tib_block_size: int | None
    tib_stream_capacity: int | None
    engine_precheck: bool
    fold_drained: bool
    fold_wake_memory: bool
    fold_wake_backend: bool
    fold_hint_engine: bool
    fold_hint_frontend: bool


def _clean(obj, *names: str) -> bool:
    """True when none of ``names`` is shadowed on the instance."""
    shadow = vars(obj).keys()
    return not any(name in shadow for name in names)


def kernel_spec_for(sim) -> KernelSpec:
    """Build the spec for one simulator instance, at ``run()`` time.

    Eligibility is judged against the *instance* (exact class, no
    monkeypatched methods), so per-test stubbing naturally disables
    the affected fold instead of being compiled over.
    """
    config = sim.config
    backend = sim.backend
    engine = sim.engine
    memory = sim.memory
    external = memory.external
    fpu = memory.fpu
    frontend = sim.frontend
    queues = (engine.laq, engine.ldq, engine.saq, engine.sdq)
    plain_queues = all(
        type(queue) is ArchitecturalQueue
        and getattr(type(queue), "COMPILED_PLAIN_FIFO", False)
        and _clean(queue, "push", "pop", "peek")
        for queue in queues
    )
    plain_engine = type(engine) is DataQueueEngine
    plain_backend = type(backend) is Backend
    plain_memory = (
        type(memory) is MemorySystem
        and type(external) is ExternalMemory
        and type(fpu) is TimedFpu
        and len(memory._sources) == 2
        and memory._sources[0] is frontend
        and memory._sources[1] is engine
    )
    poll_guard = getattr(type(frontend), "COMPILED_POLL_GUARD", False) and _clean(
        frontend, "poll_requests"
    )
    inline_step = (
        plain_backend
        and plain_engine
        and plain_queues
        and _clean(backend, "step", "_stall", "_handle_branch_bookkeeping")
        and _clean(engine, "ldq_has_data")
    )
    # Frontend inlining: the emitted update/post_issue/next_instruction/
    # consume/poll bodies assume the exact shipped state machines, so
    # eligibility demands the exact class (a subclass inherits the
    # COMPILED_FRONTEND_INLINE flag but not necessarily the machine) and
    # no instance-level monkeypatching of any method the emitted guards
    # reason about.  An ineligible frontend falls back to bound calls.
    inline_frontend = False
    line_size = None
    pipe_iq_size = None
    tib_block_size = None
    tib_stream_capacity = None
    if (
        inline_frontend_enabled_default()
        and poll_guard
        and getattr(type(frontend), "COMPILED_FRONTEND_INLINE", False)
    ):
        if type(frontend) is ConventionalFetchUnit:
            cache = frontend.cache
            inline_frontend = (
                type(cache) is InstructionCache
                and getattr(type(cache), "COMPILED_RESIDENCY_EPOCH", False)
                and type(frontend.predecode) is PredecodedImage
                and _clean(
                    frontend,
                    "update",
                    "post_issue",
                    "_maybe_promote",
                    "_maybe_request",
                    "_choose_prefetch",
                    "_current_instruction_resident",
                    "_prefetchable",
                    "_issue_request",
                    "_block_address",
                    "next_instruction",
                    "consume",
                )
                and _clean(
                    cache,
                    "probe",
                    "lookup",
                    "fill",
                    "invalidate_all",
                    "record_hit",
                    "record_miss",
                    "touch",
                )
            )
        elif type(frontend) is PipeFetchUnit:
            cache = frontend.cache
            inline_frontend = (
                type(cache) is InstructionCache
                and getattr(type(cache), "COMPILED_RESIDENCY_EPOCH", False)
                and type(frontend.predecode) is PredecodedImage
                and _clean(
                    frontend,
                    "update",
                    "post_issue",
                    "_advance",
                    "_promote_if_starving",
                    "_transfer_to_iq",
                    "_choose_fill",
                    "_start_fill",
                    "next_instruction",
                    "consume",
                )
                and _clean(
                    cache,
                    "probe",
                    "fill",
                    "invalidate_all",
                    "record_hit",
                    "record_miss",
                    "touch",
                )
            )
            if inline_frontend:
                line_size = frontend.line_size
                pipe_iq_size = frontend.iq_size
        elif type(frontend) is TibFetchUnit:
            inline_frontend = type(frontend.predecode) is PredecodedImage and _clean(
                frontend,
                "update",
                "post_issue",
                "_promote_if_starving",
                "_maybe_request",
                "_has_instruction",
                "next_instruction",
                "consume",
            )
            if inline_frontend:
                tib_block_size = frontend.block_size
                tib_stream_capacity = frontend.stream_capacity
    return KernelSpec(
        config_key=config_fingerprint(config),
        traced=sim.tracer.enabled,
        skip=sim.skip,
        replay=sim.replay_enabled,
        max_cycles=config.max_cycles,
        deadlock_cycles=sim.DEADLOCK_CYCLES,
        snapshot_mask=sim.SNAPSHOT_MASK,
        branch_resolution_latency=config.branch_resolution_latency,
        laq_capacity=engine.laq.capacity,
        ldq_capacity=engine.ldq.capacity,
        saq_capacity=engine.saq.capacity,
        sdq_capacity=engine.sdq.capacity,
        memory_pipelined=external.pipelined,
        instruction_first=memory.priority is RequestPriority.INSTRUCTION_FIRST,
        strategy=config.fetch_strategy.value,
        describe=config.describe(),
        inline_step=inline_step,
        inline_update=plain_engine and plain_queues and _clean(engine, "update"),
        inline_begin=(
            plain_memory
            and _clean(memory, "begin_cycle", "_deliver_one")
            and _clean(external, "begin_cycle", "retire_finished", "ready_requests")
            and _clean(fpu, "begin_cycle", "deliverable_load", "deliver")
        ),
        inline_end=(
            plain_memory
            and _clean(memory, "end_cycle", "_try_accept", "_count_acceptance")
            and _clean(external, "can_accept", "accept")
            and _clean(fpu, "can_accept", "accept")
        ),
        poll_guard=poll_guard,
        inline_frontend=inline_frontend,
        specialize_dispatch=(
            specialize_dispatch_enabled_default() and inline_step
        ),
        line_size=line_size,
        pipe_iq_size=pipe_iq_size,
        tib_block_size=tib_block_size,
        tib_stream_capacity=tib_stream_capacity,
        engine_precheck=(
            plain_engine
            and plain_queues
            and _clean(engine, "poll_requests", "_load_credit_available")
        ),
        fold_drained=plain_engine and plain_queues and plain_memory,
        fold_wake_memory=(
            plain_memory
            and _clean(memory, "next_event_cycle")
            and _clean(external, "next_event_cycle")
            and _clean(fpu, "next_event_cycle")
        ),
        fold_wake_backend=plain_backend and _clean(backend, "next_event_cycle"),
        fold_hint_engine=(
            plain_engine
            and _clean(engine, "next_event_cycle")
            and getattr(type(engine), "COMPILED_IDLE_HINT", False)
        ),
        fold_hint_frontend=(
            _clean(frontend, "next_event_cycle")
            and type(frontend).next_event_cycle is FetchUnit.next_event_cycle
            and getattr(type(frontend), "COMPILED_IDLE_HINT", False)
        ),
    )


# ----------------------------------------------------------------------
# The emission context component hooks write into
# ----------------------------------------------------------------------
#: kernel-local bindings, hoisted once per run in the prologue.  Hooks
#: declare which they use via ``ctx.need``; the prologue emits only
#: those, in this (deterministic) order.  Everything here is bound
#: from ``sim`` at kernel *invocation*, so instance monkeypatching of
#: methods that are merely called (not inlined) is honored.
_BINDINGS: dict[str, str] = {
    "memory": "sim.memory",
    "mem_stats": "sim.memory.stats",
    "external": "sim.memory.external",
    "fpu": "sim.memory.fpu",
    "engine": "sim.engine",
    "engine_stats": "sim.engine.stats",
    "frontend": "sim.frontend",
    "backend": "sim.backend",
    "clock": "sim.clock",
    "tracer": "sim.tracer",
    "tracer_emit": "sim.tracer.emit",
    "laq_items": "sim.engine.laq._items",
    "ldq_items": "sim.engine.ldq._items",
    "saq_items": "sim.engine.saq._items",
    "sdq_items": "sim.engine.sdq._items",
    "ldq_push": "sim.engine.ldq.push",
    "backend_stalls": "sim.backend.stalls",
    "backend_state": "sim.backend.state",
    "backend_env": "sim.backend._env",
    "effects_memo": "{}",
    "frontend_next_instruction": "sim.frontend.next_instruction",
    "frontend_consume": "sim.frontend.consume",
    "frontend_note_branch": "sim.frontend.note_branch",
    "frontend_branch_resolved": "sim.frontend.branch_resolved",
    "frontend_redirect": "sim.frontend.redirect",
    "frontend_halt": "sim.frontend.halt",
    "frontend_update": "sim.frontend.update",
    "frontend_post_issue": "sim.frontend.post_issue",
    "frontend_poll": "sim.frontend.poll_requests",
    "frontend_notify": "sim.frontend.notify_accepted",
    "engine_update": "sim.engine.update",
    "engine_poll": "sim.engine.poll_requests",
    "engine_notify": "sim.engine.notify_accepted",
    "backend_step": "sim.backend.step",
    "memory_begin": "sim.memory.begin_cycle",
    "memory_end": "sim.memory.end_cycle",
    "memory_next_event": "sim.memory.next_event_cycle",
    "backend_next_event": "sim.backend.next_event_cycle",
    "engine_next_event": "sim.engine.next_event_cycle",
    "frontend_next_event": "sim.frontend.next_event_cycle",
    "external_accept": "sim.memory.external.accept",
    "fpu_can_accept": "sim.memory.fpu.can_accept",
    "fpu_accept": "sim.memory.fpu.accept",
    "replay_on_backedge": "sim.replay_controller.on_backedge",
    "replay_check_runaway": "sim.replay_controller.check_runaway",
    # -- frontend-inlining bindings (spec.inline_frontend only) --------
    # The frontends' stats objects and queue/table storage are mutated
    # in place for the whole run (replay advances counters with setattr
    # on the same objects), so hoisting them obeys the hoisting rule.
    "fe_stats": "sim.frontend.stats",
    "icache_stats": "sim.frontend.cache.stats",
    "icache_unit": "sim.frontend.cache",
    "cache_probe": "sim.frontend.cache.probe",
    "pipe_iq": "sim.frontend._iq",
    "pipe_clock": "sim.frontend._clock",
    "pd_table": "sim.frontend.predecode._table",
    "fe_memo": "{}",
    "res_memo": "{}",
    "probe_memo": "{}",
    "frontend_maybe_promote": "sim.frontend._maybe_promote",
    "frontend_promote_starving": "sim.frontend._promote_if_starving",
    "frontend_maybe_request": "sim.frontend._maybe_request",
    "frontend_predecode_at": "sim.frontend.predecode.at",
    "frontend_start_fill": "sim.frontend._start_fill",
    # -- program-specialized dispatch (spec.specialize_dispatch only) --
    "dispatch_get": "_dispatch_for(sim).handler_for",
}


#: The frontend classes whose state machines the generator knows how to
#: inline, by strategy name.  ``kernel_spec_for`` only sets
#: ``inline_frontend`` after verifying the live instance is *exactly*
#: one of these classes, so the lookup can key on the folded strategy.
_FRONTEND_CLASSES: dict[str, type] = {
    "conventional": ConventionalFetchUnit,
    "pipe": PipeFetchUnit,
    "tib": TibFetchUnit,
}


class KernelContext:
    """Line buffer + binding ledger the emission hooks write into.

    Component ``emit_compiled_*`` classmethods receive one of these:
    ``line()`` appends a statement at the current indent, ``block()``
    opens an indented suite, ``need()`` requests prologue bindings
    from the fixed :data:`_BINDINGS` table, and :attr:`spec` carries
    the constants to fold.  The context never executes anything — it
    only renders deterministic source.
    """

    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self._body: list[str] = []
        self._depth = 1
        self._needs: set[str] = set()
        #: the frontend class whose emitters to use, or ``None`` when
        #: the kernel calls the bound frontend methods instead
        self.frontend_cls = (
            _FRONTEND_CLASSES.get(spec.strategy) if spec.inline_frontend else None
        )

    # -- emission ------------------------------------------------------
    def line(self, text: str) -> None:
        self._body.append("    " * self._depth + text)

    def comment(self, text: str) -> None:
        self.line(f"# {text}")

    @contextmanager
    def block(self, header: str):
        self.line(header)
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1

    def need(self, *names: str) -> None:
        for name in names:
            if name not in _BINDINGS:
                raise KeyError(f"unknown kernel binding {name!r}")
            self._needs.add(name)

    # -- assembly ------------------------------------------------------
    def render(self) -> str:
        lines = ["def __kernel(sim):", "    now = 0"]
        for name, expr in _BINDINGS.items():
            if name in self._needs:
                lines.append(f"    {name} = {expr}")
        lines.extend(self._body)
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The generator driver
# ----------------------------------------------------------------------
def _emit_phase_begin(ctx: KernelContext) -> None:
    ctx.comment("memory.begin_cycle(now)")
    if ctx.spec.inline_begin:
        MemorySystem.emit_compiled_begin_cycle(ctx)
    else:
        ctx.need("memory_begin")
        ctx.line("memory_begin(now)")


def _emit_phase_update(ctx: KernelContext) -> None:
    ctx.comment("engine.update(now)")
    if ctx.spec.inline_update:
        DataQueueEngine.emit_compiled_update(ctx)
    else:
        ctx.need("engine_update")
        ctx.line("engine_update(now)")


def _emit_phase_frontend_update(ctx: KernelContext) -> None:
    ctx.comment("frontend.update(now)")
    if ctx.frontend_cls is not None:
        ctx.frontend_cls.emit_compiled_update(ctx)
    else:
        ctx.need("frontend_update")
        ctx.line("frontend_update(now)")


def _emit_phase_frontend_post_issue(ctx: KernelContext) -> None:
    ctx.comment("frontend.post_issue(now)")
    if ctx.frontend_cls is not None:
        ctx.frontend_cls.emit_compiled_post_issue(ctx)
    else:
        ctx.need("frontend_post_issue")
        ctx.line("frontend_post_issue(now)")


def _emit_phase_step(ctx: KernelContext) -> None:
    ctx.comment("backend.step(now)")
    if ctx.spec.inline_step:
        Backend.emit_compiled_step(ctx)
    else:
        ctx.need("backend_step")
        ctx.line("backend_step(now)")


def _emit_phase_end(ctx: KernelContext) -> None:
    ctx.comment("memory.end_cycle(now)")
    if ctx.spec.inline_end:
        MemorySystem.emit_compiled_end_cycle(ctx)
    else:
        ctx.need("memory_end")
        ctx.line("memory_end(now)")


def _emit_drain_check(ctx: KernelContext) -> None:
    spec = ctx.spec
    if spec.fold_drained:
        ctx.need("laq_items", "saq_items", "sdq_items", "engine", "external", "fpu")
        condition = (
            "backend.halted and not laq_items and not saq_items "
            "and not sdq_items and not engine._in_flight_loads "
            "and not external.in_flight and not fpu._ops_pending "
            "and not fpu._results_ready and not fpu._result_loads"
        )
    else:
        ctx.need("engine", "memory")
        condition = "backend.halted and engine.drained and memory.drained"
    with ctx.block(f"if {condition}:"):
        if spec.traced:
            ctx.line("tracer.cycle = now")
            ctx.line(
                'tracer_emit("sim", "end", cycles=now, '
                "instructions=backend.instructions, halted=backend.halted)"
            )
        ctx.line("break")


def _emit_replay_block(ctx: KernelContext) -> None:
    mask = ctx.spec.snapshot_mask
    ctx.need("replay_on_backedge")
    with ctx.block("if backend.replay_backedge is not None:"):
        ctx.line("target = backend.replay_backedge")
        ctx.line("backend.replay_backedge = None")
        ctx.line("jumped = replay_on_backedge(target, now)")
        with ctx.block("if jumped != now:"):
            ctx.line("now = jumped")
            ctx.line("last_ticks = clock.ticks")
            ctx.line(f"last_progress_at = now & {~mask}")


def _emit_snapshot_block(ctx: KernelContext) -> None:
    spec = ctx.spec
    with ctx.block(f"if not now & {spec.snapshot_mask}:"):
        ctx.line("ticks = clock.ticks")
        with ctx.block("if ticks != last_ticks:"):
            ctx.line("last_ticks = ticks")
            ctx.line("last_progress_at = now")
        with ctx.block(f"elif now - last_progress_at > {spec.deadlock_cycles}:"):
            ctx.line("raise sim._deadlock(now, last_progress_at, False)")
        if spec.replay:
            ctx.need("replay_check_runaway")
            ctx.line("replay_check_runaway()")
    with ctx.block(f"if now >= {spec.max_cycles}:"):
        ctx.line("raise sim._timeout(now, False)")


def _emit_wake_computation(ctx: KernelContext) -> None:
    spec = ctx.spec
    if spec.fold_wake_memory:
        ExternalMemory.emit_compiled_wake(ctx)
        TimedFpu.emit_compiled_wake(ctx)
    else:
        ctx.need("memory_next_event")
        ctx.line("wake = memory_next_event(now)")
    if spec.fold_wake_backend:
        Backend.emit_compiled_wake(ctx)
    else:
        ctx.need("backend_next_event")
        ctx.line("hint = backend_next_event(now)")
        with ctx.block("if hint < wake:"):
            ctx.line("wake = hint")
    if not spec.fold_hint_engine:
        ctx.need("engine_next_event")
        ctx.line("hint = engine_next_event(now)")
        with ctx.block("if hint < wake:"):
            ctx.line("wake = hint")
    if not spec.fold_hint_frontend:
        ctx.need("frontend_next_event")
        ctx.line("hint = frontend_next_event(now)")
        with ctx.block("if hint < wake:"):
            ctx.line("wake = hint")


def _emit_skip_block(ctx: KernelContext) -> None:
    spec = ctx.spec
    mask = spec.snapshot_mask
    interval = mask + 1
    with ctx.block("if clock.ticks == ticks_before:"):
        _emit_wake_computation(ctx)
        ctx.line("ticks = clock.ticks")
        with ctx.block("if ticks != last_ticks:"):
            ctx.line(f"first_snapshot = (now | {mask}) + 1")
            ctx.line("fire_base = first_snapshot")
        with ctx.block("else:"):
            ctx.line("first_snapshot = None")
            ctx.line("fire_base = last_progress_at")
        ctx.line(
            f"fire = -(-(fire_base + {spec.deadlock_cycles + 1}) "
            f"// {interval}) * {interval}"
        )
        with ctx.block(f"if fire <= wake and fire <= {spec.max_cycles}:"):
            ctx.line("target = fire")
            ctx.line("fate = 1")
        with ctx.block(f"elif {spec.max_cycles} <= wake:"):
            ctx.line(f"target = {spec.max_cycles}")
            ctx.line("fate = 2")
        with ctx.block("else:"):
            ctx.line("target = wake")
            ctx.line("fate = 0")
        with ctx.block("if target > now:"):
            ctx.line("span = target - now")
            ctx.line(
                "stall_reason = "
                "backend.last_stall_reason if not backend.halted else None"
            )
            with ctx.block("if stall_reason is not None:"):
                ctx.need("backend_stalls")
                ctx.line("backend_stalls[stall_reason] += span")
            ctx.line("conflict = mem_stats.acceptance_conflicts > conflicts_before")
            with ctx.block("if conflict:"):
                ctx.line("mem_stats.acceptance_conflicts += span")
            with ctx.block("if external.in_flight:"):
                ctx.need("external")
                ctx.line("external.busy_cycles += span")
            if spec.traced:
                with ctx.block("if stall_reason is not None or conflict:"):
                    ctx.line("candidates = memory.last_conflict_candidates")
                    with ctx.block("for cycle in range(now, target):"):
                        ctx.line("tracer.cycle = cycle")
                        with ctx.block("if stall_reason is not None:"):
                            ctx.line(
                                'tracer_emit("backend", "stall", '
                                "reason=stall_reason)"
                            )
                        with ctx.block("if conflict:"):
                            ctx.line(
                                'tracer_emit("mem", "conflict", '
                                "candidates=candidates)"
                            )
            with ctx.block("if first_snapshot is not None and first_snapshot <= target:"):
                ctx.line("last_ticks = ticks")
                ctx.line("last_progress_at = first_snapshot")
            ctx.line("now = target")
            with ctx.block("if fate == 1:"):
                ctx.line("raise sim._deadlock(now, last_progress_at, True)")
            with ctx.block("if fate == 2:"):
                ctx.line("raise sim._timeout(now, True)")


def generate_source(spec: KernelSpec) -> str:
    """Render the specialized run function for one spec.

    Pure: the same spec always renders byte-identical source (the
    golden test pins a representative config's output).
    """
    ctx = KernelContext(spec)
    traced = spec.traced
    ctx.need("memory", "mem_stats", "external", "fpu", "engine", "frontend",
             "backend", "clock", "frontend_halt")
    if traced:
        ctx.need("tracer", "tracer_emit")
        ctx.line("tracer.cycle = 0")
        ctx.line(
            f'tracer_emit("sim", "begin", strategy={spec.strategy!r}, '
            f"config={spec.describe!r})"
        )
    ctx.line("last_ticks = clock.ticks")
    ctx.line("last_progress_at = 0")
    with ctx.block("while True:"):
        if traced:
            ctx.line("tracer.cycle = now")
        ctx.line("ticks_before = clock.ticks")
        if spec.skip:
            ctx.line("conflicts_before = mem_stats.acceptance_conflicts")
        _emit_phase_begin(ctx)
        _emit_phase_update(ctx)
        _emit_phase_frontend_update(ctx)
        _emit_phase_step(ctx)
        with ctx.block("if backend.halted:"):
            ctx.line("frontend_halt()")
        _emit_phase_frontend_post_issue(ctx)
        _emit_phase_end(ctx)
        ctx.line("now += 1")
        _emit_drain_check(ctx)
        if spec.replay:
            _emit_replay_block(ctx)
        _emit_snapshot_block(ctx)
        if spec.skip:
            _emit_skip_block(ctx)
    ctx.line("return now")
    return ctx.render()


# ----------------------------------------------------------------------
# Compile cache
# ----------------------------------------------------------------------
class CompiledKernel:
    """One compiled specialization: the spec, its source, the function."""

    __slots__ = ("spec", "source", "fn")

    def __init__(self, spec: KernelSpec, source: str, fn):
        self.spec = spec
        self.source = source
        self.fn = fn

    def __call__(self, sim) -> int:
        """Run the kernel; returns the final architectural cycle."""
        return self.fn(sim)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<CompiledKernel {self.spec.config_key[:12]} "
            f"traced={self.spec.traced} skip={self.spec.skip} "
            f"replay={self.spec.replay}>"
        )


_KERNEL_CACHE: dict[KernelSpec, CompiledKernel] = {}
_COMPILE_COUNT = 0
_KERNEL_HITS = 0
_CODEGEN_SECONDS = 0.0

#: Source-level cache: ``(source, code object)`` keyed by the *source
#: key* — every spec field the generated text depends on.  The untraced
#: kernel text is identical across icache sizes (only ``config_key``
#: and, when traced, ``describe`` vary within a config family), so a
#: five-size sweep family generates and byte-compiles once and only
#: re-``exec``s per spec.  Safe because kernels are pure text: all
#: per-spec state enters through :func:`_kernel_globals` at exec time.
_SOURCE_CACHE: dict[str, tuple[str, object]] = {}
_SOURCE_HITS = 0


def _source_key(spec: KernelSpec) -> str:
    """Content address of the generated *text* for one spec.

    Excludes ``config_key`` (it appears only in the compile filename
    and the exec-time globals, never in the source) and blanks
    ``describe`` for untraced specs (it is only interpolated into the
    trace preamble), so every config in a kernel family — same machine
    shape, different icache size — shares one entry.  Folds
    :data:`ENGINE_REVISION` so a generator bump misses cleanly.
    """
    fields = asdict(spec)
    fields.pop("config_key")
    if not spec.traced:
        fields["describe"] = ""
    payload = repr(sorted(fields.items()))
    h = hashlib.sha256()
    h.update(ENGINE_REVISION.encode())
    h.update(b"\x00")
    h.update(payload.encode())
    return h.hexdigest()

#: Per-program dispatch tables, keyed ``(program_fingerprint,
#: config_key)``.  The config key already folds ``ENGINE_REVISION``
#: (see :func:`config_fingerprint`), so a generator bump invalidates
#: dispatch tables exactly as it invalidates kernels.
_DISPATCH_CACHE: dict[tuple[str, str], ProgramDispatchTable] = {}
_DISPATCH_HITS = 0


def _dispatch_table_for(sim, config_key: str) -> ProgramDispatchTable:
    """The (cached) per-program dispatch table for one kernel run."""
    global _DISPATCH_HITS
    from .simcache import program_fingerprint

    key = (program_fingerprint(sim.program), config_key)
    table = _DISPATCH_CACHE.get(key)
    if table is None:
        table = ProgramDispatchTable()
        _DISPATCH_CACHE[key] = table
    else:
        _DISPATCH_HITS += 1
    return table


def _kernel_globals(spec: KernelSpec) -> dict:
    return {
        "IDLE": IDLE,
        "execute": execute,
        "queue_effects": queue_effects,
        "_PendingBranch": _PendingBranch,
        "_is_fpu": is_fpu_address,
        "_acc_order": acceptance_order,
        "_PRIORITY": (
            RequestPriority.INSTRUCTION_FIRST
            if spec.instruction_first
            else RequestPriority.DATA_FIRST
        ),
        "K_LOAD": RequestKind.LOAD,
        "K_STORE": RequestKind.STORE,
        "DecodeError": DecodeError,
        "_dispatch_for": (
            lambda sim, _key=spec.config_key: _dispatch_table_for(sim, _key)
        ),
    }


def _compile(spec: KernelSpec) -> CompiledKernel:
    """Source/code for the spec's kernel family, ``exec``'d per spec.

    A family already in the source cache skips generation and bytecode
    compilation; only that path counts as a *compile*.  Every path pays
    the per-spec ``exec`` that binds the family's code object to this
    spec's globals.
    """
    global _COMPILE_COUNT, _CODEGEN_SECONDS, _SOURCE_HITS
    started = time.perf_counter()
    skey = _source_key(spec)
    cached = _SOURCE_CACHE.get(skey)
    if cached is not None:
        source, code = cached
        _SOURCE_HITS += 1
    else:
        source = generate_source(spec)
        code = compile(source, f"<repro-kernel-{skey[:12]}>", "exec")
        _COMPILE_COUNT += 1
        _SOURCE_CACHE[skey] = (source, code)
    namespace = _kernel_globals(spec)
    exec(code, namespace)  # noqa: S102 — the source is our own codegen
    _CODEGEN_SECONDS += time.perf_counter() - started
    return CompiledKernel(spec, source, namespace["__kernel"])


def kernel_for(sim) -> CompiledKernel:
    """The (cached) compiled kernel serving one simulator instance."""
    global _KERNEL_HITS
    spec = kernel_spec_for(sim)
    kernel = _KERNEL_CACHE.get(spec)
    if kernel is None:
        kernel = _compile(spec)
        _KERNEL_CACHE[spec] = kernel
    else:
        _KERNEL_HITS += 1
    return kernel


def compile_stats() -> dict:
    """Codegen-cache observability: both cache levels plus codegen time.

    ``codegen_seconds`` sums kernel generation/compilation with the
    per-instruction dispatch-handler compiles (the dispatch module
    keeps its own cumulative clock).  Counts cover this process only.
    """
    dispatch = dispatch_codegen_stats()
    return {
        "kernels": len(_KERNEL_CACHE),
        "compiles": _COMPILE_COUNT,
        "kernel_cache_hits": _KERNEL_HITS,
        "kernel_sources": len(_SOURCE_CACHE),
        "kernel_source_hits": _SOURCE_HITS,
        "codegen_seconds": _CODEGEN_SECONDS + dispatch["codegen_seconds"],
        "dispatch_tables": len(_DISPATCH_CACHE),
        "dispatch_handlers": sum(len(t) for t in _DISPATCH_CACHE.values()),
        "dispatch_handler_compiles": dispatch["handler_compiles"],
        "dispatch_handler_shared_hits": dispatch["shared_hits"],
        "dispatch_cache_hits": _DISPATCH_HITS,
    }


def clear_compile_cache() -> None:
    """Drop every cached kernel and per-program dispatch table.

    All in-process levels clear together — spec-keyed kernels, the
    shared source/code entries, dispatch tables, and the dispatch
    module's shared handler memo — so a stale program kernel cannot
    survive a clear (``tests/test_compiled_engine.py`` pins this).
    Hit counters are cumulative across clears so tests can assert on
    deltas.
    """
    _KERNEL_CACHE.clear()
    _SOURCE_CACHE.clear()
    _DISPATCH_CACHE.clear()
    clear_dispatch_cache()
