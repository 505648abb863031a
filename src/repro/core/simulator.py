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

The machine computes no values: at issue the back-end reads each PBR's
outcome and each data access's address from the program's issue stream,
recorded once per process by its functional pass (:mod:`repro.cpu.stream`).

**Two engines.**  :meth:`Simulator._run_loop` is the reference loop: it
runs every cycle through the component methods above, and it is the
oracle every result is checked against.  By default,
:meth:`Simulator.run` instead executes the machine's compiled kernel
(:mod:`repro.core.compiled`): the same phases with config constants
folded to literals, the component phases inlined and no trace code,
cached per process (one kernel serves every cache size of a
configuration).  The kernel adds two fast paths, and results and stats
stay identical to the reference loop (the differential matrix pins it):

* *idle-cycle skipping* — every component bumps a shared
  :class:`~repro.core.scheduler.ProgressClock` on each real state
  mutation.  When an executed cycle produces zero ticks the machine is
  provably frozen until the earliest timed event (external-memory
  ``ready_at``, FPU completion, branch ``resolve_at``), so the kernel
  bulk-advances ``now`` there and applies the per-cycle accounting
  (stall counters, external-memory busy cycles, acceptance conflicts)
  arithmetically;
* *steady-state loop replay* — the
  :class:`~repro.core.replay.ReplayController` memoizes warm loop
  iterations and applies further ones arithmetically, falling back to
  live simulation the moment any input differs.

A traced run (an enabled :class:`~repro.core.trace.Tracer`) runs the
reference loop, and so does a machine whose components are not exactly
the shipped classes (a test stub, a subclass, a monkeypatched method):
either gets no kernel and no replay controller.  ``skip=False``,
``REPRO_NO_SKIP=1`` or ``--no-skip`` selects the reference loop for
every machine (:func:`~repro.core.scheduler.resolve_engine`).
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
from .scheduler import ProgressClock, SeqCounter, resolve_engine
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
    (exact even when the compiled kernel's idle skip jumped into it);
    ``fast_path`` records whether the limit fell inside a skipped idle
    span rather than on a live cycle.
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
    (exact even when the compiled kernel's idle skip jumped into it);
    ``fast_path`` records whether it fired inside a skipped idle span
    rather than at a live snapshot.
    """

    cycle: int = -1
    fast_path: bool = False


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
        #: True runs the compiled engine (when the run is untraced and
        #: the machine gets a kernel), False the reference loop; see
        #: :func:`~repro.core.scheduler.resolve_engine`
        self.skip = resolve_engine(skip, replay, compiled)
        #: the controller of the most recent :meth:`run` (``None`` when
        #: it ran the reference loop); the engine profiler reads its
        #: reports
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
            next_seq=next_seq,
            laq_capacity=config.laq_capacity,
            ldq_capacity=config.ldq_capacity,
            saq_capacity=config.saq_capacity,
            sdq_capacity=config.sdq_capacity,
            tracer=tracer,
            clock=clock,
        )
        # Every machine simulating this program reads its one recorded
        # issue stream instead of executing.
        self.backend = Backend(
            frontend=self.frontend,
            engine=self.engine,
            stream=program.issue_stream,
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
        # The kernels carry no trace code: a traced run is the reference
        # loop's, event for event.
        traced = self.tracer.enabled
        kernel = kernel_for(self) if self.skip and not traced else None
        if kernel is None:
            self.replay_controller = None
            return self._collect(self._run_loop())
        self.replay_controller = ReplayController(self)
        return self._collect(kernel(self))

    def _run_loop(self) -> int:
        """The reference loop; returns the final architectural cycle.

        Every cycle runs the component phases in the order above.  The
        compiled kernels generated by :mod:`repro.core.compiled` are
        checked against this loop, so any change to it needs a matching
        generator change (and an ``ENGINE_REVISION`` bump).
        """
        now = 0
        max_cycles = self.config.max_cycles
        memory = self.memory
        engine = self.engine
        frontend = self.frontend
        backend = self.backend
        clock = self.clock
        tracer = self.tracer
        traced = tracer.enabled
        deadlock_cycles = self.DEADLOCK_CYCLES
        mask = self.SNAPSHOT_MASK
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
            if not now & mask:
                ticks = clock.ticks
                if ticks != last_ticks:
                    last_ticks = ticks
                    last_progress_at = now
                elif now - last_progress_at > deadlock_cycles:
                    raise self._deadlock(now, last_progress_at, fast_path=False)
            if now >= max_cycles:
                raise self._timeout(now, fast_path=False)
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
            fpu_operations=self.memory.fpu.operations_started,
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

    ``skip=False`` selects the reference loop (default: the compiled
    engine, unless ``REPRO_NO_SKIP`` says otherwise); ``replay=False``
    and ``compiled=False`` select it too (see
    :func:`~repro.core.scheduler.resolve_engine`), and so does an
    enabled ``tracer``.  Results are identical on both engines.
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
) -> SimulationResult:
    """Run ``program`` with tracing enabled, on the reference loop.

    ``trace_path`` (optional) receives the JSONL event stream; with
    ``metrics`` (the default) a :class:`MetricsSink` aggregates the same
    stream and the result's :attr:`~SimulationResult.trace_metrics`
    carries its counters.  Extra ``sinks`` are attached as given.  All
    sinks are closed when the run finishes (or fails).  A traced run
    always takes the reference loop (:meth:`Simulator.run`), and its
    counters equal the compiled engine's untraced ones.
    """
    tracer = Tracer()
    if trace_path is not None:
        tracer.attach(JsonLinesSink(trace_path))
    if metrics:
        tracer.attach(MetricsSink())
    for sink in sinks:
        tracer.attach(sink)
    try:
        return Simulator(config, program, tracer=tracer).run()
    finally:
        tracer.close()
