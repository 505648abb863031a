"""Timing model of the external memory (a large, always-hitting cache).

Paper section 5: "Memory is modeled as a large external cache that
services both instruction and data requests. ... The cache is assumed to
be large enough to achieve a 100% hit rate in our simulations."

Parameters (paper simulation parameters 4 and 6):

* ``access_time`` — clock cycles from request acceptance until the first
  datum is available on the memory side of the input bus;
* ``pipelined`` — if true, "the memory system can accept a new request
  each clock cycle"; if false, the memory is busy from acceptance until
  its request has fully completed (all data delivered over the input bus,
  or the write finished for stores).
"""

from __future__ import annotations

from ..core.scheduler import ProgressClock
from .requests import MemoryRequest, RequestKind

__all__ = ["ExternalMemory"]


class ExternalMemory:
    """In-flight request bookkeeping for the external cache."""

    def __init__(
        self,
        access_time: int,
        pipelined: bool,
        clock: ProgressClock | None = None,
    ):
        if access_time < 1:
            raise ValueError(f"access_time must be >= 1, got {access_time}")
        self.access_time = access_time
        self.pipelined = pipelined
        self.in_flight: list[MemoryRequest] = []
        self.total_accepted = 0
        self.busy_cycles = 0
        self._accepted_this_cycle = False
        self._clock = clock if clock is not None else ProgressClock()

    # ------------------------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        self._accepted_this_cycle = False
        if self.in_flight:
            self.busy_cycles += 1

    def can_accept(self, now: int) -> bool:
        """May a new request be accepted this cycle?"""
        if self._accepted_this_cycle:
            return False
        if self.pipelined:
            return True
        return not self.in_flight

    def accept(self, request: MemoryRequest, now: int) -> None:
        if not self.can_accept(now):
            raise RuntimeError("external memory cannot accept a request now")
        request.accepted_at = now
        request.ready_at = now + self.access_time
        self.in_flight.append(request)
        self.total_accepted += 1
        self._accepted_this_cycle = True
        self._clock.ticks += 1

    # ------------------------------------------------------------------
    def ready_requests(self, now: int) -> list[MemoryRequest]:
        """Requests with undelivered data available for the input bus."""
        return [
            request
            for request in self.in_flight
            if request.kind != RequestKind.STORE
            and request.ready_at is not None
            and now >= request.ready_at
            and request.remaining_bytes > 0
        ]

    def retire_finished(self, now: int) -> list[MemoryRequest]:
        """Complete stores whose write finished and fully-delivered
        reads; returns the requests retired, oldest first."""
        still_flying: list[MemoryRequest] = []
        retired: list[MemoryRequest] = []
        for request in self.in_flight:
            if request.kind == RequestKind.STORE:
                done = request.ready_at is not None and now >= request.ready_at
            else:
                done = request.remaining_bytes == 0
            if done:
                request.completed = True
                self._clock.ticks += 1
                retired.append(request)
            else:
                still_flying.append(request)
        self.in_flight = still_flying
        return retired

    # ------------------------------------------------------------------
    def state_signature(self, now: int, base_seq: int) -> tuple:
        """In-flight request shape with times/seqs made anchor-relative.

        Instruction-fetch addresses recur in a steady-state loop and are
        kept verbatim; data addresses stride and are excluded (the replay
        engine rewrites them from the issue stream).  Whether a fetch is
        abandoned is the frontend's state (``_request_discarded``).
        """
        return tuple(
            (
                request.kind.value,
                request.address if request.kind is RequestKind.IFETCH else None,
                request.size,
                request.demand,
                request.seq - base_seq,
                None if request.accepted_at is None else request.accepted_at - now,
                None if request.ready_at is None else request.ready_at - now,
                request.delivered_bytes,
                request.completed,
            )
            for request in self.in_flight
        )

    def replay_shift(self, cycles: int, seqs: int) -> None:
        """Advance every in-flight request by a replayed span's deltas."""
        for request in self.in_flight:
            if request.accepted_at is not None:
                request.accepted_at += cycles
            if request.ready_at is not None:
                request.ready_at += cycles
            request.seq += seqs

    # ------------------------------------------------------------------
    # compiled-kernel lowering (repro.core.compiled)
    # ------------------------------------------------------------------
    @classmethod
    def emit_compiled_accept(cls, ctx, request: str) -> None:
        """Lower :meth:`accept` of the local ``request``.  The kernel
        emits it only where its acceptance phase has found
        :meth:`can_accept` true, so the check is not repeated."""
        ctx.need("external", "clock", "mem_access")
        ctx.line(f"{request}.accepted_at = now")
        ctx.line(f"{request}.ready_at = now + mem_access")
        ctx.line(f"external.in_flight.append({request})")
        ctx.line("external.total_accepted += 1")
        ctx.line("external._accepted_this_cycle = True")
        ctx.line("clock.ticks += 1")

    @classmethod
    def emit_compiled_wake(cls, ctx) -> None:
        """Open the idle-skip wake scan: the earliest ``ready_at`` among
        in-flight requests, else ``IDLE``.

        Once a request turns ready, its deliveries/retirement generate
        ticks every cycle, so ``ready_at`` is the only timed event this
        component owns.  ``in_flight`` is read through the owner every
        time because :meth:`retire_finished` rebinds it each cycle.
        """
        ctx.need("external")
        ctx.line("wake = IDLE")
        with ctx.block("for request in external.in_flight:"):
            ctx.line("ready = request.ready_at")
            with ctx.block("if ready is not None and ready < wake:"):
                ctx.line("wake = ready")
