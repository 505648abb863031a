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
from .fpu import FPU_BASE, FpuLatencies, is_fpu_address
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
        #: candidate count of the most recent acceptance conflict (the
        #: skip scheduler replays per-idle-cycle conflict events with it)
        self.last_conflict_candidates = 0

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
            self.last_conflict_candidates = len(candidates)
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
        traced = ctx.spec.traced
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
                if traced:
                    ctx.line(
                        'tracer_emit("mem", "deliver", source="fpu", '
                        "seq=request.seq, offset=0, bytes=m_bytes)"
                    )
                ctx.line("fpu_deliver(now)")
                cls._emit_delivery_books(ctx)
            with ctx.block("elif m_best is not None:"):
                ctx.line("m_offset = m_best.delivered_bytes")
                ctx.line("m_bytes = m_best.size - m_offset")
                with ctx.block("if m_bytes > bus_width:"):
                    ctx.line("m_bytes = bus_width")
                ctx.line("m_best.delivered_bytes = m_offset + m_bytes")
                if traced:
                    ctx.line(
                        'tracer_emit("mem", "deliver", source="external", '
                        "seq=m_best.seq, offset=m_offset, bytes=m_bytes)"
                    )
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
    def _emit_acceptance_bookkeeping(cls, ctx) -> None:
        """Post-acceptance counters + trace event, shared by both the
        single-candidate fast path and the conflict loop.  ``fpu_hit``
        holds ``is_fpu_address(request.address)`` (computed once)."""
        traced = ctx.spec.traced
        ctx.line("notify(request, now)")
        ctx.line("mem_stats.output_bus_busy_cycles += 1")
        ctx.line("kind = request.kind")
        with ctx.block("if fpu_hit:"):
            with ctx.block("if kind is K_STORE:"):
                ctx.line("mem_stats.fpu_stores_accepted += 1")
            with ctx.block("else:"):
                ctx.line("mem_stats.fpu_loads_accepted += 1")
        with ctx.block("else:"):
            with ctx.block("if kind is K_LOAD:"):
                ctx.line("mem_stats.loads_accepted += 1")
            with ctx.block("elif kind is K_STORE:"):
                ctx.line("mem_stats.stores_accepted += 1")
            with ctx.block("elif request.demand:"):
                ctx.line("mem_stats.ifetch_demand_accepted += 1")
            with ctx.block("else:"):
                ctx.line("mem_stats.ifetch_prefetch_accepted += 1")
        if traced:
            ctx.line(
                'tracer_emit("mem", "accept", kind=kind.value, '
                "addr=request.address, bytes=request.size, "
                "demand=request.demand, fpu=fpu_hit, seq=request.seq)"
            )

    @classmethod
    def emit_compiled_end_cycle(cls, ctx) -> None:
        """Lower :meth:`end_cycle` with both sources inlined.

        The frontend's poll is guarded by a test under which it provably
        offers nothing and has no side effects (see the comment below);
        the engine's poll (``DataQueueEngine.emit_compiled_poll``) runs
        inline every cycle.  Each source is polled at most once per
        cycle, exactly like the reference.  The single-candidate case
        skips the sort and the conflict bookkeeping; the multi-candidate
        path mirrors the reference's stable sort (candidates are
        assembled in source registration order: frontend, then engine).
        ``external`` acceptance folds the ``pipelined`` literal from the
        spec.  Acceptance itself (``external.accept``,
        ``fpu.can_accept``, ``fpu.accept``, the sources'
        ``notify_accepted``) stays a bound call.
        """
        spec = ctx.spec
        traced = spec.traced
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
            ctx.line("f_reqs = ()")
        ctx.engine_cls.emit_compiled_poll(ctx)
        if spec.memory_pipelined:
            busy = "external._accepted_this_cycle"
        else:
            busy = "external._accepted_this_cycle or external.in_flight"
        with ctx.block("if f_reqs or e_reqs:"):
            ctx.line("n = len(f_reqs) + len(e_reqs)")
            with ctx.block("if n == 1:"):
                with ctx.block("if f_reqs:"):
                    ctx.line("request = f_reqs[0]")
                    ctx.line("notify = frontend_notify")
                with ctx.block("else:"):
                    ctx.line("request = e_reqs[0]")
                    ctx.line("notify = engine_notify")
                ctx.line("fpu_hit = _is_fpu(request.address)")
                ctx.line("accepted = False")
                with ctx.block("if fpu_hit:"):
                    with ctx.block("if fpu_can_accept(request, now):"):
                        ctx.line("fpu_accept(request, now)")
                        ctx.line("accepted = True")
                with ctx.block(f"elif not ({busy}):"):
                    ctx.line("external_accept(request, now)")
                    ctx.line("accepted = True")
                with ctx.block("if accepted:"):
                    cls._emit_acceptance_bookkeeping(ctx)
            with ctx.block("else:"):
                ctx.line("mem_stats.acceptance_conflicts += 1")
                ctx.line("memory.last_conflict_candidates = n")
                if traced:
                    ctx.line('tracer_emit("mem", "conflict", candidates=n)')
                ctx.line(
                    "cands = [(request, frontend_notify) for request in f_reqs]"
                )
                with ctx.block("for request in e_reqs:"):
                    ctx.line("cands.append((request, engine_notify))")
                ctx.line(
                    "cands.sort(key=lambda item: "
                    "_acc_order(item[0], _PRIORITY))"
                )
                with ctx.block("for request, notify in cands:"):
                    ctx.line("fpu_hit = _is_fpu(request.address)")
                    with ctx.block("if fpu_hit:"):
                        with ctx.block(
                            "if not fpu_can_accept(request, now):"
                        ):
                            ctx.line("continue")
                        ctx.line("fpu_accept(request, now)")
                    with ctx.block(f"elif {busy}:"):
                        ctx.line("continue")
                    with ctx.block("else:"):
                        ctx.line("external_accept(request, now)")
                    cls._emit_acceptance_bookkeeping(ctx)
                    ctx.line("break")

    # ------------------------------------------------------------------
    def state_signature(self, now: int, base_seq: int) -> tuple:
        """Combined fingerprint of the external memory and the timed FPU.

        The facade itself holds no timing state; ``_accepted_this_cycle``
        and ``last_conflict_candidates`` are always rewritten before
        their next read, so neither participates.
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
    def next_event_cycle(self, now: int) -> int:
        """Earliest timed event across the external memory and the FPU."""
        nxt = self.external.next_event_cycle(now)
        fpu = self.fpu.next_event_cycle(now)
        return fpu if fpu < nxt else nxt

    # ------------------------------------------------------------------
    @property
    def drained(self) -> bool:
        """True when nothing is in flight anywhere in the memory system."""
        return not self.external.in_flight and self.fpu.idle
