"""The cycle-level simulator.

Builds the machine described by a :class:`~repro.core.config.MachineConfig`
around an assembled :class:`~repro.asm.program.Program` and runs it to
completion.  Per cycle, components are evaluated in this order:

1. ``memory.begin_cycle`` — the input bus delivers at most one transfer
   (load data → the data engine, instruction bytes → cache/IQB);
2. ``engine.update`` — arrived load data enters the LDQ in program order;
3. ``frontend.update`` — pre-issue frontend work (prefetch promotion,
   moving arrived instruction bytes toward the decoder);
4. ``backend.step`` — at most one instruction issues;
5. ``frontend.post_issue`` — refills/transfers are staged for next cycle;
6. ``memory.end_cycle`` — the output bus accepts at most one new request
   under the configured memory-interface priority.

The run ends when the program has executed HALT **and** every queue and
in-flight transaction has drained; the cycle count at that point is the
paper's performance metric.

**Idle-cycle skipping.**  Every component bumps a shared
:class:`~repro.core.scheduler.ProgressClock` on each real state
mutation.  When an executed cycle produces zero ticks the machine is
provably frozen — the same stall, the same losing arbitration, the same
busy memory — until the earliest *timed* event (external-memory
``ready_at``, FPU completion, branch ``resolve_at``).  The scheduler
then bulk-advances ``now`` to the min over the components'
``next_event_cycle`` hints, applying the per-cycle accounting (stall
counters, external-memory busy cycles, acceptance conflicts, and —
when traced — the per-idle-cycle ``backend stall`` / ``mem conflict``
events) arithmetically, so results and traces are byte-identical to
the reference loop.

**Steady-state loop replay.**  On top of idle-cycle skipping, the
:class:`~repro.core.replay.ReplayController` memoizes warm loop
iterations: at loop backedges the machine is fingerprinted via the
components' ``state_signature`` hooks, and once a recorded iteration
is reproduced exactly by the next live iteration, further iterations
are applied *arithmetically* — a counter-silent shadow functional pass
advances registers, memory, and queue values, every simulation counter
advances by its recorded delta, and all timed state shifts by the
iteration's cycle/sequence deltas.  The moment any input differs
(branch outcome, FPU-window address, ordering-hazard count) the shadow
is discarded and live simulation resumes from the untouched boundary
state, so results, stats, and traces stay byte-identical to the
reference engine.

**Compiled step kernels.**  The generic loop below pays Python
dispatch and attribute-lookup overhead on every *live* cycle.  When
``compiled`` is enabled (the default), :meth:`Simulator.run` instead
executes a specialized run function generated by
:mod:`repro.core.compiled` — the same skip+replay loop with config
constants folded to literals, the component phases inlined, and the
trace branches specialized out when untraced — cached per process (one
kernel serves every cache size of a configuration) and byte-identical
to this reference loop (the four-way differential matrix pins it).  A machine whose components are not exactly the
shipped classes (a test stub, a subclass, a monkeypatched method) gets
no kernel and runs this interpreted skip+replay loop instead.

**Choosing an engine.**  The switches nest
(:func:`~repro.core.scheduler.resolve_engine`), so a run is always one
of the four :data:`~repro.core.scheduler.ENGINES` rows: ``skip=False``
or ``REPRO_NO_SKIP=1`` selects the reference cycle-by-cycle loop,
``replay=False`` idle-cycle skipping alone, and ``compiled=False`` the
interpreted skip+replay loop.
"""

from __future__ import annotations

from ..asm.program import Program
from ..cpu.backend import Backend
from ..cpu.data_engine import DataQueueEngine
from ..frontend.conventional import ConventionalFetchUnit
from ..frontend.icache import InstructionCache
from ..frontend.pipe_fetch import PipeFetchUnit
from ..frontend.tib import TibFetchUnit
from ..memory.system import MemorySystem
from .compiled import kernel_for
from .config import FetchStrategy, MachineConfig
from .replay import ReplayController
from .results import QueueSnapshot, SimulationResult
from .scheduler import (
    IDLE,
    ProgressClock,
    SeqCounter,
    resolve_engine,
)
from .trace import NULL_TRACER, JsonLinesSink, MetricsSink, TraceSink, Tracer

__all__ = [
    "DeadlockError",
    "SimulationTimeout",
    "Simulator",
    "simulate",
    "simulate_traced",
]


class SimulationTimeout(RuntimeError):
    """The run exceeded ``config.max_cycles`` without draining.

    ``cycle`` is the architectural cycle at which the limit was hit
    (exact even when the skip scheduler jumped into it); ``fast_path``
    records whether the limit fell inside a skipped idle span rather
    than on a live cycle.
    """

    cycle: int = -1
    fast_path: bool = False


class DeadlockError(RuntimeError):
    """No instruction issued and no bus activity for a long stretch.

    This catches programs that violate the architectural queue
    discipline — most commonly keeping more unconsumed loads in flight
    than the LDQ can hold, which wedges any decoupled-queue machine
    (the LAQ cannot drain because the LDQ is full, and the LDQ cannot
    drain because issue is blocked on the full LAQ).

    ``cycle`` is the architectural cycle at which the detector fired
    (exact even when the skip scheduler jumped into it); ``fast_path``
    records whether it fired inside a skipped idle span rather than at
    a live snapshot.
    """

    cycle: int = -1
    fast_path: bool = False


#: outcomes of a bulk-advance that lands on a detection horizon
_FATE_DEADLOCK = "deadlock"
_FATE_TIMEOUT = "timeout"


class Simulator:
    """One machine instance, ready to :meth:`run` one program."""

    def __init__(
        self,
        config: MachineConfig,
        program: Program,
        tracer: Tracer | None = None,
        skip: bool | None = None,
        replay: bool | None = None,
        compiled: bool | None = None,
    ):
        if program.fmt is not config.instruction_format:
            raise ValueError(
                f"program was assembled for {program.fmt.value} but the "
                f"machine is configured for {config.instruction_format.value}"
            )
        self.config = config
        self.program = program
        self.tracer = tracer if tracer is not None else NULL_TRACER
        tracer = self.tracer
        #: the engine switches after nesting (``None`` follows the
        #: switch below, and ``skip`` follows ``REPRO_NO_SKIP``):
        #: idle-cycle skipping, steady-state loop replay on top of it,
        #: the compiled kernel on top of both
        self.skip, self.replay_enabled, self.compiled_enabled = resolve_engine(
            skip, replay, compiled
        )
        #: the controller of the most recent :meth:`run` (``None`` when
        #: replay is disabled); the engine profiler reads its reports
        self.replay_controller: ReplayController | None = None
        self.clock = ProgressClock()
        clock = self.clock

        #: shared sequence allocator (a plain counter object so the
        #: replay engine can shift it across memoized iterations)
        self.seq = SeqCounter()
        next_seq = self.seq

        self.cache = InstructionCache(
            size=config.icache_size,
            line_size=config.line_size,
            sub_block_size=config.sub_block_size,
            associativity=config.cache_associativity,
            tracer=tracer,
        )
        self.memory = MemorySystem(
            access_time=config.memory_access_time,
            pipelined=config.memory_pipelined,
            input_bus_width=config.input_bus_width,
            priority=config.priority,
            fpu_latencies=config.fpu_latencies,
            tracer=tracer,
            clock=clock,
        )
        # All frontends share the program's predecoded-instruction
        # table, so the decode work for a hot loop is paid once per
        # program image rather than once per fetch.
        predecode = program.predecoded
        if config.fetch_strategy is FetchStrategy.PIPE:
            self.frontend = PipeFetchUnit(
                image=program.image,
                fmt=program.fmt,
                cache=self.cache,
                iq_size=config.iq_size,
                iqb_size=config.iqb_size,
                entry_point=program.entry_point,
                next_seq=next_seq,
                true_prefetch=config.true_prefetch,
                predecode=predecode,
                tracer=tracer,
                clock=clock,
            )
        elif config.fetch_strategy is FetchStrategy.TIB:
            self.frontend = TibFetchUnit(
                image=program.image,
                fmt=program.fmt,
                input_bus_width=config.input_bus_width,
                entry_point=program.entry_point,
                next_seq=next_seq,
                tib_entries=config.tib_entries,
                tib_entry_bytes=config.tib_entry_bytes,
                stream_buffer_bytes=config.stream_buffer_bytes,
                predecode=predecode,
                tracer=tracer,
                clock=clock,
            )
        else:
            self.frontend = ConventionalFetchUnit(
                image=program.image,
                fmt=program.fmt,
                cache=self.cache,
                input_bus_width=config.input_bus_width,
                entry_point=program.entry_point,
                next_seq=next_seq,
                prefetch_policy=config.prefetch_policy,
                predecode=predecode,
                tracer=tracer,
                clock=clock,
            )
        self.engine = DataQueueEngine(
            program=program,
            next_seq=next_seq,
            laq_capacity=config.laq_capacity,
            ldq_capacity=config.ldq_capacity,
            saq_capacity=config.saq_capacity,
            sdq_capacity=config.sdq_capacity,
            tracer=tracer,
            clock=clock,
        )
        self.backend = Backend(
            frontend=self.frontend,
            engine=self.engine,
            branch_resolution_latency=config.branch_resolution_latency,
            tracer=tracer,
            clock=clock,
        )
        # Arbitration polls sources in registration order; order is
        # irrelevant because priority is decided per request.
        self.memory.register_source(self.frontend)
        self.memory.register_source(self.engine)

    # ------------------------------------------------------------------
    #: cycles of zero progress (no issue, no bus traffic) before the run
    #: is declared deadlocked.  Far above any legitimate stall.
    DEADLOCK_CYCLES = 20_000

    #: progress snapshots for deadlock detection happen when
    #: ``now & SNAPSHOT_MASK == 0`` (every 256 cycles), so the hot loop
    #: pays one integer compare per cycle instead of building a tuple.
    SNAPSHOT_MASK = 0xFF

    def run(self) -> SimulationResult:
        kernel = kernel_for(self) if self.compiled_enabled else None
        replay = (
            ReplayController(self, compiled=kernel is not None)
            if self.replay_enabled
            else None
        )
        self.replay_controller = replay
        if kernel is not None:
            return self._collect(kernel(self))
        return self._collect(self._run_loop(replay))

    def _run_loop(self, replay: ReplayController | None) -> int:
        """The interpreted reference/skip/replay loop; returns the final
        architectural cycle.  The compiled kernels generated by
        :mod:`repro.core.compiled` mirror this method statement for
        statement — any change here needs a matching generator change
        (and an ``ENGINE_REVISION`` bump)."""
        now = 0
        max_cycles = self.config.max_cycles
        memory = self.memory
        mem_stats = memory.stats
        external = memory.external
        engine = self.engine
        frontend = self.frontend
        backend = self.backend
        clock = self.clock
        skip = self.skip
        tracer = self.tracer
        traced = tracer.enabled
        deadlock_cycles = self.DEADLOCK_CYCLES
        mask = self.SNAPSHOT_MASK
        interval = mask + 1
        if traced:
            tracer.cycle = 0
            tracer.emit(
                "sim",
                "begin",
                strategy=self.config.fetch_strategy.value,
                config=self.config.describe(),
            )
        # Deadlock detection: the tick count seen at the last snapshot
        # and the snapshot cycle at which it last advanced.
        last_ticks = clock.ticks
        last_progress_at = 0
        while True:
            if traced:
                tracer.cycle = now
            ticks_before = clock.ticks
            conflicts_before = mem_stats.acceptance_conflicts
            memory.begin_cycle(now)
            engine.update(now)
            frontend.update(now)
            backend.step(now)
            if backend.halted:
                frontend.halt()
            frontend.post_issue(now)
            memory.end_cycle(now)
            now += 1
            if backend.halted and engine.drained and memory.drained:
                if traced:
                    tracer.cycle = now
                    tracer.emit(
                        "sim",
                        "end",
                        cycles=now,
                        instructions=backend.instructions,
                        halted=backend.halted,
                    )
                break
            if replay is not None and backend.replay_backedge is not None:
                target = backend.replay_backedge
                backend.replay_backedge = None
                jumped = replay.on_backedge(target, now)
                if jumped != now:
                    # Iterations were replayed arithmetically; the
                    # reference engine recorded progress at every
                    # snapshot inside the span.
                    now = jumped
                    last_ticks = clock.ticks
                    last_progress_at = now & ~mask
            if not now & mask:
                ticks = clock.ticks
                if ticks != last_ticks:
                    last_ticks = ticks
                    last_progress_at = now
                elif now - last_progress_at > deadlock_cycles:
                    raise self._deadlock(now, last_progress_at, fast_path=False)
                if replay is not None:
                    replay.check_runaway()
            if now >= max_cycles:
                raise self._timeout(now, fast_path=False)
            if skip and clock.ticks == ticks_before:
                # Quiescent probe cycle: zero ticks means machine state
                # is frozen, so every following cycle repeats this one
                # exactly until the earliest timed event.  Jump there,
                # applying the per-cycle accounting arithmetically.
                wake = memory.next_event_cycle(now)
                hint = backend.next_event_cycle(now)
                if hint < wake:
                    wake = hint
                hint = engine.next_event_cycle(now)
                if hint < wake:
                    wake = hint
                hint = frontend.next_event_cycle(now)
                if hint < wake:
                    wake = hint
                # Replay the detector's arithmetic over the span: with
                # the ticks frozen, only the first snapshot after `now`
                # can still record progress; the detector then fires a
                # fixed distance past the last recorded progress.
                ticks = clock.ticks
                if ticks != last_ticks:
                    first_snapshot = (now | mask) + 1
                    fire_base = first_snapshot
                else:
                    first_snapshot = None
                    fire_base = last_progress_at
                fire = -(-(fire_base + deadlock_cycles + 1) // interval) * interval
                if fire <= wake and fire <= max_cycles:
                    target, fate = fire, _FATE_DEADLOCK
                elif max_cycles <= wake:
                    target, fate = max_cycles, _FATE_TIMEOUT
                else:
                    target, fate = wake, None
                if target > now:
                    span = target - now
                    stall_reason = (
                        backend.last_stall_reason if not backend.halted else None
                    )
                    if stall_reason is not None:
                        backend.stalls[stall_reason] += span
                    conflict = mem_stats.acceptance_conflicts > conflicts_before
                    if conflict:
                        mem_stats.acceptance_conflicts += span
                    if external.in_flight:
                        external.busy_cycles += span
                    if traced and (stall_reason is not None or conflict):
                        # Re-emit the probe cycle's per-idle-cycle events
                        # for every skipped cycle, in intra-cycle order
                        # (the stall during backend.step, the conflict
                        # during memory.end_cycle).
                        candidates = memory.last_conflict_candidates
                        emit = tracer.emit
                        for cycle in range(now, target):
                            tracer.cycle = cycle
                            if stall_reason is not None:
                                emit("backend", "stall", reason=stall_reason)
                            if conflict:
                                emit("mem", "conflict", candidates=candidates)
                    if first_snapshot is not None and first_snapshot <= target:
                        last_ticks = ticks
                        last_progress_at = first_snapshot
                    now = target
                    if fate is _FATE_DEADLOCK:
                        raise self._deadlock(now, last_progress_at, fast_path=True)
                    if fate is _FATE_TIMEOUT:
                        raise self._timeout(now, fast_path=True)
        return now

    # ------------------------------------------------------------------
    def _deadlock(
        self, now: int, last_progress_at: int, fast_path: bool
    ) -> DeadlockError:
        engine = self.engine
        backend = self.backend
        frontend = self.frontend
        where = "inside a skipped idle span" if fast_path else "at a live snapshot"
        error = DeadlockError(
            f"no progress since cycle {last_progress_at} "
            f"(detected at cycle {now}, {where}; "
            f"{backend.instructions} instructions issued; "
            f"stalls={backend.stalls}; LAQ={len(engine.laq)} "
            f"LDQ={len(engine.ldq)} SAQ={len(engine.saq)} "
            f"SDQ={len(engine.sdq)}; "
            f"frontend {type(frontend).__name__}: "
            f"{frontend.describe_state()})"
        )
        error.cycle = now
        error.fast_path = fast_path
        return error

    def _timeout(self, now: int, fast_path: bool) -> SimulationTimeout:
        backend = self.backend
        where = "inside a skipped idle span" if fast_path else "on a live cycle"
        error = SimulationTimeout(
            f"no completion after {self.config.max_cycles} cycles "
            f"(at cycle {now}, {where}; "
            f"{backend.instructions} instructions issued; "
            f"halted={backend.halted})"
        )
        error.cycle = now
        error.fast_path = fast_path
        return error

    def _collect(self, cycles: int) -> SimulationResult:
        engine = self.engine
        queues = {
            queue.name: QueueSnapshot(
                name=queue.name,
                pushes=queue.total_pushes,
                pops=queue.total_pops,
                max_occupancy=queue.max_occupancy,
            )
            for queue in (engine.laq, engine.ldq, engine.saq, engine.sdq)
        }
        result = SimulationResult(
            config=self.config,
            cycles=cycles,
            instructions=self.backend.instructions,
            halted=self.backend.halted,
            cache=self.cache.stats,
            fetch=self.frontend.stats,
            memory=self.memory.stats,
            stalls=dict(self.backend.stalls),
            queues=queues,
            branches=self.backend.branches,
            branches_taken=self.backend.branches_taken,
            loads=engine.stats.loads_issued,
            stores=engine.stats.stores_issued,
            fpu_operations=engine.fpu_core.operations_started,
            ordering_hazards=engine.stats.ordering_hazards,
        )
        metrics = self.tracer.metrics()
        if metrics is not None:
            result.trace_metrics = metrics.to_dict()
        return result


def simulate(
    config: MachineConfig,
    program: Program,
    tracer: Tracer | None = None,
    skip: bool | None = None,
    replay: bool | None = None,
    compiled: bool | None = None,
) -> SimulationResult:
    """Build a machine for ``config`` and run ``program`` to completion.

    ``skip``, ``replay`` and ``compiled`` pick the engine (default: the
    compiled kernel, unless ``REPRO_NO_SKIP`` says otherwise; see
    :func:`~repro.core.scheduler.resolve_engine`); results are
    identical on every engine.
    """
    return Simulator(
        config, program, tracer=tracer, skip=skip, replay=replay, compiled=compiled
    ).run()


def simulate_traced(
    config: MachineConfig,
    program: Program,
    trace_path=None,
    *,
    sinks: tuple[TraceSink, ...] = (),
    metrics: bool = True,
    skip: bool | None = None,
    replay: bool | None = None,
    compiled: bool | None = None,
) -> SimulationResult:
    """Run ``program`` with tracing enabled.

    ``trace_path`` (optional) receives the JSONL event stream; with
    ``metrics`` (the default) a :class:`MetricsSink` aggregates the same
    stream and the result's :attr:`~SimulationResult.trace_metrics`
    carries its counters.  Extra ``sinks`` are attached as given.  All
    sinks are closed when the run finishes (or fails).  ``skip``,
    ``replay`` and ``compiled`` pick the engine as in :func:`simulate`;
    the event stream is identical on every engine.
    """
    tracer = Tracer()
    if trace_path is not None:
        tracer.attach(JsonLinesSink(trace_path))
    if metrics:
        tracer.attach(MetricsSink())
    for sink in sinks:
        tracer.attach(sink)
    try:
        return Simulator(
            config,
            program,
            tracer=tracer,
            skip=skip,
            replay=replay,
            compiled=compiled,
        ).run()
    finally:
        tracer.close()
