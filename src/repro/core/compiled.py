"""Compiled step kernels: codegen for the cycle loop.

The reference loop, :meth:`repro.core.simulator.Simulator._run_loop`,
pays generic-Python overhead on every cycle: virtual dispatch into
each component phase, attribute lookups for state that never moves,
and ``tracer.enabled`` tests that are false for the whole run.  This
module generates, per machine shape (a configuration, its cache size
aside), the compiled engine: a monolithic specialized run function
that skips idle spans, replays warm loop iterations
(:mod:`repro.core.replay`), carries no trace code at all (a traced run
is the reference loop's: :meth:`~repro.core.simulator.Simulator.run`),
and in which

* configuration constants (``max_cycles``, the deadlock horizon, queue
  capacities, branch latency, the bus knobs, the FPU window) are folded
  into integer and string literals, and the acceptance priority into
  the order the two request sources are tried;
* every per-cycle component phase (``memory.begin_cycle``,
  ``engine.update``, ``frontend.update``, ``backend.step``,
  ``frontend.post_issue``, ``memory.end_cycle``) and the idle-skip
  wake scan are flattened into straight-line inlined code: the input
  bus's FPU drain, delivery arbitration and retirement, both sources'
  polls and the acceptance decision run in the kernel, which builds a
  data request object only when memory accepts it or the FPU must
  inspect it, while the cold or once-per-request work they trigger (an
  FPU result's delivery, the acceptance itself, request callbacks,
  branch redirects, the icache miss fill) stays a bound call
  (``docs/COMPILED.md``, "Current inlining frontier");
* component objects, bound methods, and queue storage are hoisted into
  locals once per run, outside the hot loop.

The live cycles of the generated source follow the reference loop
statement for statement — same phase order, same counter updates, same
deadlock and timeout checks — minus its ``tracer.enabled`` branches.
The idle skip (:func:`_emit_skip_block`) and the replay hooks
(:func:`_emit_replay_block` and the backend's backedge) are
specified here, by the arithmetic they must reproduce: results and
stats equal the reference loop's (``tests/test_scheduler_differential.py``
checks this across the whole crosscheck config family, and
``repro-sim fuzz`` on generated programs).

**Eligibility: everything or nothing.**  The components'
``emit_compiled_*`` classmethods mirror the shipped classes' methods,
so a kernel describes exactly one kind of machine.  One check,
:func:`_shipped`, passes when every component is exactly the class its
emitters mirror and no instance attribute shadows one of that class's
methods; such a machine gets the fully inlined kernel for its
:class:`KernelSpec`.  Any other machine — a test stub, a subclass, a
monkeypatched method — gets ``None`` from :func:`kernel_for`, and
:meth:`~repro.core.simulator.Simulator.run` runs the reference loop
instead, which calls the bound methods.

**One cache per artifact.**  A :class:`KernelSpec` holds only the
constants folded into the kernel text, so the spec keys the one kernel
cache: every instruction-cache size of a config family runs on the
same kernel per process.  Issue entries (an instruction's queue,
branch and halt flags, and the dispatch handler the functional pass
runs) are cached by instruction value in
:func:`repro.cpu.dispatch.issue_entry`'s memo, which every kernel binds
as ``entry_for``.  Both caches live in process memory only; forked
sweep workers inherit whatever the parent had compiled.
``docs/COMPILED.md`` documents the contract in full.

**Hoisting rule.**  Only objects that are never *rebound* during a run
may be hoisted into kernel locals: component objects, the queues'
``_items`` deques (mutated in place, even by replay's commit), the
issue stream's arrays (they only grow), the stall-counter dict, stats
objects.  Attributes the replay engine or the components rebind
(``external.in_flight``, ``fpu._ops_pending``, the back-end's stream
cursors) are always read through their owner, and no kernel local
holds one across cycles.

The kernel always runs with idle-cycle skipping and loop replay on;
``skip=False`` (:func:`repro.core.scheduler.resolve_engine`) or an
enabled tracer selects the reference loop instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..cpu.backend import Backend, _PendingBranch
from ..cpu.data_engine import DataQueueEngine
from ..cpu.dispatch import (
    clear_dispatch_cache,
    dispatch_codegen_stats,
    issue_entry,
)
from ..cpu.queues import ArchitecturalQueue
from ..frontend.conventional import ConventionalFetchUnit
from ..frontend.icache import InstructionCache
from ..frontend.pipe_fetch import PipeFetchUnit
from ..frontend.tib import TibFetchUnit
from ..isa.encoding import DecodeError
from ..isa.predecode import PredecodedImage
from ..memory.external import ExternalMemory
from ..memory.fpu_timing import TimedFpu
from ..memory.requests import MemoryRequest, RequestKind, RequestPriority
from ..memory.system import MemorySystem
from .scheduler import IDLE

__all__ = [
    "CompiledKernel",
    "KernelContext",
    "KernelSpec",
    "clear_compile_cache",
    "compile_stats",
    "generate_source",
    "kernel_for",
    "kernel_spec_for",
]


# ----------------------------------------------------------------------
# Eligibility: is this exactly the machine the emitters describe?
# ----------------------------------------------------------------------
#: The frontend class whose state machines the generator inlines, by
#: strategy name.
_FRONTEND_CLASSES: dict[str, type] = {
    "conventional": ConventionalFetchUnit,
    "pipe": PipeFetchUnit,
    "tib": TibFetchUnit,
}

#: Method names of every class whose methods an emitter mirrors.  The
#: inlined code bypasses those methods, so an instance attribute of the
#: same name (a monkeypatched method) disqualifies the machine; one
#: frozenset per class keeps that test to a single ``isdisjoint``.
_METHODS: dict[type, frozenset[str]] = {
    cls: frozenset(name for name in dir(cls) if callable(getattr(cls, name)))
    for cls in (
        Backend,
        DataQueueEngine,
        ArchitecturalQueue,
        MemorySystem,
        ExternalMemory,
        TimedFpu,
        InstructionCache,
        *_FRONTEND_CLASSES.values(),
    )
}


def _exactly(obj, cls: type) -> bool:
    """``obj`` is a ``cls`` (not a subclass) with no method shadowed."""
    return type(obj) is cls and _METHODS[cls].isdisjoint(vars(obj))


def _shipped(sim) -> bool:
    """True when the emitters describe this simulator's machine exactly.

    Every component must be exactly the class its emitters mirror, with
    no instance attribute shadowing one of that class's methods, and
    the memory must poll the frontend, then the engine (the order the
    inlined acceptance phase assumes).  A machine that fails runs the
    reference loop.
    """
    frontend = sim.frontend
    engine = sim.engine
    memory = sim.memory
    frontend_cls = _FRONTEND_CLASSES[sim.config.fetch_strategy.value]
    return (
        _exactly(frontend, frontend_cls)
        # slotted, so no instance attribute can shadow its methods
        and type(frontend.predecode) is PredecodedImage
        and (
            frontend_cls is TibFetchUnit
            or _exactly(frontend.cache, InstructionCache)
        )
        and _exactly(sim.backend, Backend)
        and _exactly(engine, DataQueueEngine)
        and all(
            _exactly(queue, ArchitecturalQueue)
            for queue in (engine.laq, engine.ldq, engine.saq, engine.sdq)
        )
        and _exactly(memory, MemorySystem)
        and _exactly(memory.external, ExternalMemory)
        and _exactly(memory.fpu, TimedFpu)
        and len(memory._sources) == 2
        and memory._sources[0] is frontend
        and memory._sources[1] is engine
    )


# ----------------------------------------------------------------------
# The kernel specification: everything the generated source depends on
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSpec:
    """Pure value object from which kernel source is generated.

    ``generate_source`` is a deterministic function of this spec (the
    golden tests pin that), and the spec is the compile-cache key: two
    runs share a kernel iff their specs are equal.  It holds only the
    constants folded into the kernel text; whether a machine may run a
    kernel at all is decided by :func:`_shipped`.
    """

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
    #: PIPE only: icache line size folded into the IQB-exhaustion guards
    line_size: int | None
    #: PIPE only: IQ byte capacity folded into the transfer loop
    pipe_iq_size: int | None
    #: TIB only: stream-request geometry folded into the request guard
    tib_block_size: int | None
    tib_stream_capacity: int | None


def kernel_spec_for(sim) -> KernelSpec:
    """Build the spec for one simulator instance, at ``run()`` time."""
    config = sim.config
    engine = sim.engine
    memory = sim.memory
    frontend = sim.frontend
    pipe = type(frontend) is PipeFetchUnit
    tib = type(frontend) is TibFetchUnit
    return KernelSpec(
        max_cycles=config.max_cycles,
        deadlock_cycles=sim.DEADLOCK_CYCLES,
        snapshot_mask=sim.SNAPSHOT_MASK,
        branch_resolution_latency=config.branch_resolution_latency,
        laq_capacity=engine.laq.capacity,
        ldq_capacity=engine.ldq.capacity,
        saq_capacity=engine.saq.capacity,
        sdq_capacity=engine.sdq.capacity,
        memory_pipelined=memory.external.pipelined,
        instruction_first=memory.priority is RequestPriority.INSTRUCTION_FIRST,
        strategy=config.fetch_strategy.value,
        line_size=frontend.line_size if pipe else None,
        pipe_iq_size=frontend.iq_size if pipe else None,
        tib_block_size=frontend.block_size if tib else None,
        tib_stream_capacity=frontend.stream_capacity if tib else None,
    )


# ----------------------------------------------------------------------
# The emission context component hooks write into
# ----------------------------------------------------------------------
#: kernel-local bindings, hoisted once per run in the prologue.  Hooks
#: declare which they use via ``ctx.need``; the prologue emits only
#: those, in this (deterministic) order.  Everything here is bound
#: from ``sim`` at kernel *invocation*.
_BINDINGS: dict[str, str] = {
    "memory": "sim.memory",
    "mem_stats": "sim.memory.stats",
    "external": "sim.memory.external",
    "fpu": "sim.memory.fpu",
    "bus_width": "sim.memory.input_bus_width",
    "engine": "sim.engine",
    "engine_stats": "sim.engine.stats",
    "frontend": "sim.frontend",
    "backend": "sim.backend",
    "clock": "sim.clock",
    "laq_items": "sim.engine.laq._items",
    "ldq_items": "sim.engine.ldq._items",
    "saq_items": "sim.engine.saq._items",
    "sdq_items": "sim.engine.sdq._items",
    "ldq_push": "sim.engine.ldq.push",
    "backend_stalls": "sim.backend.stalls",
    "ldq_pop": "sim.engine.ldq.pop",
    "engine_push_laq": "sim.engine.push_laq",
    "engine_push_saq": "sim.engine.push_saq",
    "engine_push_sdq": "sim.engine.push_sdq",
    # -- the issue stream: its arrays only grow, in place; ``horizon``
    # is the recorded length ``stream.reach`` last returned (stale, it
    # only costs one more call)
    "stream": "sim.backend.stream",
    "stream_loads": "sim.backend.stream.loads",
    "stream_stores": "sim.backend.stream.stores",
    "stream_branches": "sim.backend.stream.branches",
    "horizon": "0",
    "effects_memo": "{}",
    "frontend_next_instruction": "sim.frontend.next_instruction",
    "frontend_note_branch": "sim.frontend.note_branch",
    "frontend_branch_resolved": "sim.frontend.branch_resolved",
    "frontend_redirect": "sim.frontend.redirect",
    "frontend_halt": "sim.frontend.halt",
    "frontend_notify": "sim.frontend.notify_accepted",
    "engine_notify": "sim.engine.notify_accepted",
    "external_accept": "sim.memory.external.accept",
    "fpu_can_accept": "sim.memory.fpu.can_accept",
    "fpu_accept": "sim.memory.fpu.accept",
    "fpu_deliver": "sim.memory.fpu.deliver",
    "replay_on_backedge": "sim.replay_controller.on_backedge",
    "replay_check_runaway": "sim.replay_controller.check_runaway",
    # -- frontend-inlining bindings ------------------------------------
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
    # -- instruction-specialized dispatch ------------------------------
    "entry_for": "issue_entry",
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
        #: the frontend class whose emitters the kernel inlines
        self.frontend_cls = _FRONTEND_CLASSES[spec.strategy]
        #: the data engine class, reached through the context so the
        #: memory emitters need not import ``repro.cpu``
        self.engine_cls = DataQueueEngine

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
def _emit_drain_check(ctx: KernelContext) -> None:
    ctx.need("laq_items", "saq_items", "sdq_items", "engine", "external", "fpu")
    # ``engine.drained and memory.drained``, read field by field
    condition = (
        "backend.halted and not laq_items and not saq_items "
        "and not sdq_items and not engine._in_flight_loads "
        "and not external.in_flight and not fpu._ops_pending "
        "and not fpu._results_ready and not fpu._result_loads"
    )
    with ctx.block(f"if {condition}:"):
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
        ctx.need("replay_check_runaway")
        ctx.line("replay_check_runaway()")
    with ctx.block(f"if now >= {spec.max_cycles}:"):
        ctx.line("raise sim._timeout(now, False)")


def _emit_skip_block(ctx: KernelContext) -> None:
    spec = ctx.spec
    mask = spec.snapshot_mask
    interval = mask + 1
    with ctx.block("if clock.ticks == ticks_before:"):
        # The wake scan: the earliest timed event.  Only memory and the
        # backend own one.  The frontends and the data engine are purely
        # event-woken: every change of theirs reacts to input-bus data
        # (a delivery tick), an issue or pop, a branch resolution, a
        # redirect or an acceptance, and each of those bumps the clock
        # at its origin, so a zero-tick cycle leaves them frozen.
        ExternalMemory.emit_compiled_wake(ctx)
        TimedFpu.emit_compiled_wake(ctx)
        Backend.emit_compiled_wake(ctx)
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
    ctx.need("memory", "mem_stats", "external", "fpu", "engine", "frontend",
             "backend", "clock", "frontend_halt")
    ctx.line("last_ticks = clock.ticks")
    ctx.line("last_progress_at = 0")
    with ctx.block("while True:"):
        ctx.line("ticks_before = clock.ticks")
        ctx.line("conflicts_before = mem_stats.acceptance_conflicts")
        ctx.comment("memory.begin_cycle(now)")
        MemorySystem.emit_compiled_begin_cycle(ctx)
        ctx.comment("engine.update(now)")
        DataQueueEngine.emit_compiled_update(ctx)
        ctx.comment("frontend.update(now)")
        ctx.frontend_cls.emit_compiled_update(ctx)
        ctx.comment("backend.step(now)")
        Backend.emit_compiled_step(ctx)
        with ctx.block("if backend.halted:"):
            ctx.line("frontend_halt()")
        ctx.comment("frontend.post_issue(now)")
        ctx.frontend_cls.emit_compiled_post_issue(ctx)
        ctx.comment("memory.end_cycle(now)")
        MemorySystem.emit_compiled_end_cycle(ctx)
        ctx.line("now += 1")
        _emit_drain_check(ctx)
        _emit_replay_block(ctx)
        _emit_snapshot_block(ctx)
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
        return f"<CompiledKernel {self.spec.strategy}>"


_KERNEL_CACHE: dict[KernelSpec, CompiledKernel] = {}
_COMPILE_COUNT = 0
_KERNEL_HITS = 0
_CODEGEN_SECONDS = 0.0


def _kernel_globals() -> dict:
    # The same for every spec, so the source alone tells kernels apart:
    # that is what makes one kernel per spec sound.  Per-run state
    # enters through ``sim``.
    return {
        "IDLE": IDLE,
        "issue_entry": issue_entry,
        "_PendingBranch": _PendingBranch,
        "K_LOAD": RequestKind.LOAD,
        "K_STORE": RequestKind.STORE,
        "MemoryRequest": MemoryRequest,
        "DecodeError": DecodeError,
    }


def _compile(spec: KernelSpec) -> CompiledKernel:
    """Generate, byte-compile and ``exec`` the kernel for one spec."""
    global _COMPILE_COUNT, _CODEGEN_SECONDS
    started = time.perf_counter()
    source = generate_source(spec)
    code = compile(source, f"<repro-kernel-{spec.strategy}>", "exec")
    namespace = _kernel_globals()
    exec(code, namespace)  # noqa: S102 — the source is our own codegen
    _COMPILE_COUNT += 1
    _CODEGEN_SECONDS += time.perf_counter() - started
    return CompiledKernel(spec, source, namespace["__kernel"])


def kernel_for(sim) -> CompiledKernel | None:
    """The (cached) compiled kernel serving one simulator instance.

    ``None`` when the machine is not exactly the shipped one
    (:func:`_shipped`); the caller then runs the reference loop.
    """
    global _KERNEL_HITS
    if not _shipped(sim):
        return None
    spec = kernel_spec_for(sim)
    kernel = _KERNEL_CACHE.get(spec)
    if kernel is None:
        kernel = _compile(spec)
        _KERNEL_CACHE[spec] = kernel
    else:
        _KERNEL_HITS += 1
    return kernel


def compile_stats() -> dict:
    """Codegen observability: both caches plus codegen time.

    ``kernels`` and ``dispatch_handlers`` are the sizes of the kernel
    cache and the issue-entry memo (one handler per entry);
    ``codegen_seconds`` sums kernel and handler compiles.  Counts cover
    this process only.
    """
    dispatch = dispatch_codegen_stats()
    return {
        "kernels": len(_KERNEL_CACHE),
        "compiles": _COMPILE_COUNT,
        "kernel_cache_hits": _KERNEL_HITS,
        "codegen_seconds": _CODEGEN_SECONDS + dispatch["codegen_seconds"],
        "dispatch_handlers": dispatch["handlers"],
        "dispatch_handler_compiles": dispatch["handler_compiles"],
    }


def clear_compile_cache() -> None:
    """Drop every cached kernel and issue entry.

    Counters are cumulative across clears so tests can assert on
    deltas.
    """
    _KERNEL_CACHE.clear()
    clear_dispatch_cache()
