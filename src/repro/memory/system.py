"""The memory system facade: output-bus acceptance, input-bus delivery.

This ties together the external memory (:mod:`repro.memory.external`),
the timed FPU (:mod:`repro.memory.fpu_timing`), and the two buses of the
paper's Figure 3 simulation setup.

Per simulated cycle the simulator calls, in order:

1. :meth:`MemorySystem.begin_cycle` — the *input bus* delivers at most one
   transfer of up to ``input_bus_width`` bytes, chosen by the return-bus
   priority of section 5 (demand loads/fetches, then FPU results, then
   instruction prefetches);
2. the frontend and back-end update (possibly generating new requests);
3. :meth:`MemorySystem.end_cycle` — the *output bus* accepts at most one
   new request, chosen by the memory-interface priority (instruction- or
   data-first, a configuration knob), skipping requests whose target
   cannot accept this cycle (e.g. a busy non-pipelined memory).

Request *sources* register with the system and are polled each acceptance
phase; this keeps back-pressure natural: a request that is not accepted
simply stays at the head of its source (the LAQ, the SAQ/SDQ pair, or the
frontend's fetch logic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..core.scheduler import ProgressClock
from ..core.trace import NULL_TRACER, Tracer
from .external import ExternalMemory
from .fpu import FPU_BASE, FPU_SIZE, FpuLatencies, is_fpu_address
from .fpu import TRIGGER_OPERATIONS as _FPUTRIGGER_OPERATIONS
from .fpu_timing import TimedFpu
from .requests import (
    RETURN_TIER_FPU_RESULT,
    MemoryRequest,
    RequestKind,
    RequestPriority,
    acceptance_order,
    return_tier,
)

__all__ = ["MemorySystem", "MemoryStats", "RequestSource"]


class RequestSource(Protocol):
    """Anything that can offer memory requests for acceptance."""

    def poll_requests(self, now: int) -> list[MemoryRequest]:
        """Candidate requests this cycle (each source usually offers 0-1)."""
        ...

    def notify_accepted(self, request: MemoryRequest, now: int) -> None:
        """Called when one of this source's candidates won arbitration."""
        ...


@dataclass
class MemoryStats:
    """Counters the analysis layer reports alongside cycle counts."""

    loads_accepted: int = 0
    stores_accepted: int = 0
    ifetch_demand_accepted: int = 0
    ifetch_prefetch_accepted: int = 0
    fpu_stores_accepted: int = 0
    fpu_loads_accepted: int = 0
    input_bus_busy_cycles: int = 0
    output_bus_busy_cycles: int = 0
    input_bus_bytes: int = 0
    acceptance_conflicts: int = 0  #: cycles where >1 candidate wanted the bus
    by_source_bytes: dict[str, int] = field(default_factory=dict)


class MemorySystem:
    """Arbitrates both buses and owns the external memory + timed FPU."""

    def __init__(
        self,
        access_time: int,
        pipelined: bool,
        input_bus_width: int,
        priority: RequestPriority,
        fpu_latencies: FpuLatencies | None = None,
        tracer: Tracer | None = None,
        clock: ProgressClock | None = None,
    ):
        if input_bus_width < 4:
            raise ValueError("input bus must be at least 4 bytes wide")
        clock = clock if clock is not None else ProgressClock()
        self._clock = clock
        self.external = ExternalMemory(access_time, pipelined, clock=clock)
        self.fpu = TimedFpu(
            fpu_latencies or FpuLatencies(), _FPUTRIGGER_OPERATIONS, clock=clock
        )
        self.input_bus_width = input_bus_width
        self.priority = priority
        self.stats = MemoryStats()
        self._sources: list[RequestSource] = []
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def register_source(self, source: RequestSource) -> None:
        self._sources.append(source)

    # ------------------------------------------------------------------
    # Input bus (deliveries) — call first each cycle
    # ------------------------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        self.external.begin_cycle(now)
        self.fpu.begin_cycle(now)
        self._deliver_one(now)
        self.external.retire_finished(now)

    def _deliver_one(self, now: int) -> None:
        candidates: list[tuple[tuple, str, MemoryRequest]] = []
        for request in self.external.ready_requests(now):
            key = (return_tier(request), request.ready_at, request.seq)
            candidates.append((key, "external", request))
        fpu_load = self.fpu.deliverable_load(now)
        if fpu_load is not None:
            key = (RETURN_TIER_FPU_RESULT, fpu_load.accepted_at, fpu_load.seq)
            candidates.append((key, "fpu", fpu_load))
        if not candidates:
            return
        candidates.sort(key=lambda item: item[0])
        _key, target, request = candidates[0]
        if target == "fpu":
            offset = 0
            transferred = request.size
            if self._tracer.enabled:
                self._tracer.emit(
                    "mem",
                    "deliver",
                    source=target,
                    seq=request.seq,
                    offset=offset,
                    bytes=transferred,
                )
            self.fpu.deliver(now)
        else:
            offset = request.delivered_bytes
            transferred = min(self.input_bus_width, request.remaining_bytes)
            request.delivered_bytes += transferred
            if self._tracer.enabled:
                self._tracer.emit(
                    "mem",
                    "deliver",
                    source=target,
                    seq=request.seq,
                    offset=offset,
                    bytes=transferred,
                )
            if request.on_chunk is not None:
                request.on_chunk(offset, transferred, now)
        self.stats.input_bus_busy_cycles += 1
        self.stats.input_bus_bytes += transferred
        self._clock.ticks += 1

    # ------------------------------------------------------------------
    # Output bus (acceptances) — call last each cycle
    # ------------------------------------------------------------------
    def end_cycle(self, now: int) -> None:
        candidates: list[tuple[MemoryRequest, RequestSource]] = []
        for source in self._sources:
            for request in source.poll_requests(now):
                candidates.append((request, source))
        if not candidates:
            return
        if len(candidates) > 1:
            self.stats.acceptance_conflicts += 1
            if self._tracer.enabled:
                self._tracer.emit("mem", "conflict", candidates=len(candidates))
        candidates.sort(key=lambda item: acceptance_order(item[0], self.priority))
        for request, source in candidates:
            if self._try_accept(request, now):
                source.notify_accepted(request, now)
                self.stats.output_bus_busy_cycles += 1
                self._count_acceptance(request)
                if self._tracer.enabled:
                    self._tracer.emit(
                        "mem",
                        "accept",
                        kind=request.kind.value,
                        addr=request.address,
                        bytes=request.size,
                        demand=request.demand,
                        fpu=is_fpu_address(request.address),
                        seq=request.seq,
                    )
                return

    def _try_accept(self, request: MemoryRequest, now: int) -> bool:
        if is_fpu_address(request.address):
            if not self.fpu.can_accept(request, now):
                return False
            self.fpu.accept(request, now)
            return True
        if not self.external.can_accept(now):
            return False
        self.external.accept(request, now)
        return True

    def _count_acceptance(self, request: MemoryRequest) -> None:
        stats = self.stats
        if is_fpu_address(request.address):
            if request.kind == RequestKind.STORE:
                stats.fpu_stores_accepted += 1
            else:
                stats.fpu_loads_accepted += 1
            return
        if request.kind == RequestKind.LOAD:
            stats.loads_accepted += 1
        elif request.kind == RequestKind.STORE:
            stats.stores_accepted += 1
        elif request.demand:
            stats.ifetch_demand_accepted += 1
        else:
            stats.ifetch_prefetch_accepted += 1

    # ------------------------------------------------------------------
    # compiled-kernel lowering (repro.core.compiled)
    # ------------------------------------------------------------------
    @classmethod
    def emit_compiled_begin_cycle(cls, ctx) -> None:
        """Lower :meth:`begin_cycle` inline, in the reference's order.

        ``external.begin_cycle`` and ``fpu.begin_cycle`` become the latch
        reset, the busy count and the FPU drain loop.  :meth:`_deliver_one`
        becomes one pass for the smallest ``(tier, ready_at, seq)`` over
        the external requests, against which the FPU's oldest result
        load competes at ``(1, accepted_at, seq)``; it wins only with a
        strictly smaller key, as the reference's stable sort lists it
        last.  The FPU delivery itself still calls ``TimedFpu.deliver``
        (once per result).  ``retire_finished`` follows.  The input-bus
        width is a prologue binding, not a spec field, so a config
        family keeps one kernel source.
        """
        ctx.need("external", "fpu", "clock", "mem_stats", "fpu_deliver",
                 "bus_width")
        ctx.line("external._accepted_this_cycle = False")
        ctx.line("m_flight = external.in_flight")
        with ctx.block("if m_flight:"):
            ctx.line("external.busy_cycles += 1")
        ctx.line("m_ops = fpu._ops_pending")
        with ctx.block("while m_ops and m_ops[0] <= now:"):
            ctx.line("fpu._results_ready.append(m_ops.popleft())")
            ctx.line("clock.ticks += 1")
        # With no external request and no result load outstanding there
        # is nothing to deliver or retire.
        with ctx.block("if m_flight or fpu._result_loads:"):
            ctx.line("m_best = None")
            with ctx.block("for request in m_flight:"):
                with ctx.block("if request.kind is not K_STORE:"):
                    ctx.line("ready = request.ready_at")
                    with ctx.block(
                        "if ready is not None and ready <= now "
                        "and request.delivered_bytes < request.size:"
                    ):
                        ctx.line(
                            "m_k = (0 if request.kind is K_LOAD "
                            "or request.demand else 2, ready, request.seq)"
                        )
                        with ctx.block("if m_best is None or m_k < m_key:"):
                            ctx.line("m_best = request")
                            ctx.line("m_key = m_k")
            ctx.line("m_loads = fpu._result_loads")
            with ctx.block(
                "if m_loads and fpu._results_ready and (m_best is None "
                "or (1, m_loads[0].accepted_at, m_loads[0].seq) < m_key):"
            ):
                ctx.line("request = m_loads[0]")
                ctx.line("m_bytes = request.size")
                ctx.line("fpu_deliver(now)")
                cls._emit_delivery_books(ctx)
            with ctx.block("elif m_best is not None:"):
                ctx.line("m_offset = m_best.delivered_bytes")
                ctx.line("m_bytes = m_best.size - m_offset")
                with ctx.block("if m_bytes > bus_width:"):
                    ctx.line("m_bytes = bus_width")
                ctx.line("m_best.delivered_bytes = m_offset + m_bytes")
                with ctx.block("if m_best.on_chunk is not None:"):
                    ctx.line("m_best.on_chunk(m_offset, m_bytes, now)")
                cls._emit_delivery_books(ctx)
            # ``retire_finished``.  Stores retire at ``ready_at``, reads
            # once fully delivered.  ``in_flight`` is rebound only when
            # something retires; otherwise the list keeps its value, and
            # nothing may hold it across cycles (the hoisting rule).
            done = (
                "(request.ready_at is not None and request.ready_at <= now) "
                "if request.kind is K_STORE "
                "else request.delivered_bytes == request.size"
            )
            with ctx.block("for request in external.in_flight:"):
                with ctx.block(f"if {done}:"):
                    ctx.line("m_live = []")
                    with ctx.block("for request in external.in_flight:"):
                        with ctx.block(f"if {done}:"):
                            ctx.line("request.completed = True")
                            ctx.line("clock.ticks += 1")
                            with ctx.block(
                                "if request.on_complete is not None:"
                            ):
                                ctx.line("request.on_complete(now)")
                        with ctx.block("else:"):
                            ctx.line("m_live.append(request)")
                    ctx.line("external.in_flight = m_live")
                    ctx.line("break")

    @classmethod
    def _emit_delivery_books(cls, ctx) -> None:
        """The input-bus counters and progress tick after one transfer
        of ``m_bytes`` bytes."""
        ctx.line("mem_stats.input_bus_busy_cycles += 1")
        ctx.line("mem_stats.input_bus_bytes += m_bytes")
        ctx.line("clock.ticks += 1")

    @classmethod
    def emit_compiled_end_cycle(cls, ctx) -> None:
        """Lower :meth:`end_cycle` with both sources inlined.

        The frontend's poll is guarded by a test under which it provably
        offers nothing and has no side effects (see the comment below);
        the engine's poll (``DataQueueEngine.emit_compiled_poll``) runs
        inline every cycle.  Each source is polled at most once per
        cycle, exactly like the reference, and offers at most one
        request: ``f_req`` (or ``None``) and the engine's ``e_head``.
        With both present the conflict is counted, then they are tried
        in the order :func:`acceptance_order` gives them, folded from
        the spec (see the comment below).  Each try mirrors
        :meth:`_try_accept` and :meth:`_count_acceptance` for its
        source, with the FPU window and the ``pipelined`` flag folded to
        literals.  The data request object is built only when the
        external memory accepts it or ``fpu.can_accept`` must read it.
        Acceptance itself (``external.accept``, ``fpu.can_accept``,
        ``fpu.accept``, the sources' ``notify_accepted``) stays a bound
        call.
        """
        spec = ctx.spec
        ctx.need(
            "memory",
            "mem_stats",
            "external",
            "frontend_notify",
            "engine_notify",
            "external_accept",
            "fpu_can_accept",
            "fpu_accept",
        )
        # A frontend's ``poll_requests`` returns ``[]`` with no side
        # effects when no unaccepted request is outstanding.
        with ctx.block(
            "if frontend._request is not None "
            "and not frontend._request_accepted:"
        ):
            ctx.frontend_cls.emit_compiled_poll(ctx)
        with ctx.block("else:"):
            ctx.line("f_req = None")
        ctx.engine_cls.emit_compiled_poll(ctx)
        if spec.memory_pipelined:
            busy = "external._accepted_this_cycle"
        else:
            busy = "external._accepted_this_cycle or external.in_flight"

        # Every shipped frontend offers only ``IFETCH`` requests and the
        # engine only ``LOAD``/``STORE`` (``_shipped`` guarantees the
        # classes), so ``acceptance_order`` ranks the two by class
        # alone: the fetch first under instruction-first priority, the
        # data request first under data-first.
        with ctx.block("if f_req is not None:"):
            with ctx.block("if e_head is not None:"):
                ctx.line("mem_stats.acceptance_conflicts += 1")
                if spec.instruction_first:
                    cls._emit_fetch_attempt(ctx, busy, data_after=True)
                else:
                    cls._emit_data_attempt(ctx, busy, fetch_after=True)
            with ctx.block("else:"):
                cls._emit_fetch_attempt(ctx, busy)
        with ctx.block("elif e_head is not None:"):
            cls._emit_data_attempt(ctx, busy)

    @classmethod
    def _emit_fetch_attempt(cls, ctx, busy: str, data_after: bool = False) -> None:
        """Try the frontend's ``f_req``, an instruction fetch, then (with
        ``data_after``) the engine's request if the fetch is refused.

        ``TimedFpu.can_accept`` refuses every fetch, so a fetch into the
        FPU window is refused without asking it; any other goes to the
        external memory when it is free.
        """
        window = f"{FPU_BASE} <= f_req.address < {FPU_BASE + FPU_SIZE}"
        with ctx.block(f"if not ({window} or {busy}):"):
            ctx.line("external_accept(f_req, now)")
            ctx.line("frontend_notify(f_req, now)")
            ctx.line("mem_stats.output_bus_busy_cycles += 1")
            with ctx.block("if f_req.demand:"):
                ctx.line("mem_stats.ifetch_demand_accepted += 1")
            with ctx.block("else:"):
                ctx.line("mem_stats.ifetch_prefetch_accepted += 1")
        if data_after:
            with ctx.block("else:"):
                cls._emit_data_attempt(ctx, busy)

    @classmethod
    def _emit_data_attempt(cls, ctx, busy: str, fetch_after: bool = False) -> None:
        """Try the engine's offered ``e_head``, a load or a store, then
        (with ``fetch_after``) the fetch if the FPU refuses it.

        In the FPU window the request is built first, because
        ``fpu.can_accept`` reads it; outside it, only once the external
        memory is known to be free.  A data request refused because
        that memory is busy needs no fetch attempt after it: a fetch
        goes only to the same memory, so it would be refused too.
        """
        window = f"{FPU_BASE} <= e_head.address < {FPU_BASE + FPU_SIZE}"
        with ctx.block(f"if {window}:"):
            ctx.engine_cls.emit_compiled_request(ctx)
            with ctx.block("if fpu_can_accept(request, now):"):
                ctx.line("fpu_accept(request, now)")
                cls._emit_data_books(ctx, fpu=True)
            if fetch_after:
                with ctx.block("else:"):
                    cls._emit_fetch_attempt(ctx, busy)
        with ctx.block(f"elif not ({busy}):"):
            ctx.engine_cls.emit_compiled_request(ctx)
            ctx.line("external_accept(request, now)")
            cls._emit_data_books(ctx, fpu=False)

    @classmethod
    def _emit_data_books(cls, ctx, fpu: bool) -> None:
        """The engine's notification and the counters after its
        ``request`` was accepted."""
        prefix = "fpu_" if fpu else ""
        ctx.line("engine_notify(request, now)")
        ctx.line("mem_stats.output_bus_busy_cycles += 1")
        with ctx.block("if e_store:"):
            ctx.line(f"mem_stats.{prefix}stores_accepted += 1")
        with ctx.block("else:"):
            ctx.line(f"mem_stats.{prefix}loads_accepted += 1")

    # ------------------------------------------------------------------
    def state_signature(self, now: int, base_seq: int) -> tuple:
        """Combined fingerprint of the external memory and the timed FPU.

        The facade itself holds no timing state; the external memory's
        ``_accepted_this_cycle`` is always rewritten before its next
        read, so it does not participate.
        """
        return (
            self.external.state_signature(now, base_seq),
            self.fpu.state_signature(now, base_seq),
        )

    def replay_shift(self, cycles: int, seqs: int) -> None:
        """Advance all absolute times/seqs by a replayed span's deltas."""
        self.external.replay_shift(cycles, seqs)
        self.fpu.replay_shift(cycles, seqs)

    # ------------------------------------------------------------------
    @property
    def drained(self) -> bool:
        """True when nothing is in flight anywhere in the memory system."""
        return not self.external.in_flight and self.fpu.idle
