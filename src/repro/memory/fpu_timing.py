"""Cycle-level timing wrapper for the off-chip FPU.

The semantic work (what the operations compute) is done functionally at
issue time by :class:`repro.memory.fpu.FpuCore` inside the data-queue
engine; this class models only *when* things happen:

* an operand store occupies the output bus for its acceptance cycle and
  latches immediately;
* a trigger store starts the operation; the unit is unpipelined, so an
  operation begins only when the previous one has finished, and completes
  ``latency(kind)`` cycles after it begins;
* a load from the result register completes when its operation's result
  is ready, and the 4-byte result then competes for the input bus at the
  "multiply results" priority tier (below demand loads, above instruction
  prefetches — paper section 5).

Results are picked up strictly in operation order, mirroring the
program-order discipline of the load data queue.
"""

from __future__ import annotations

from collections import deque

from ..core.scheduler import ProgressClock
from .fpu import FPU_OPERAND_A, FPU_RESULT, FpuLatencies
from .requests import MemoryRequest, RequestKind

__all__ = ["TimedFpu"]


class TimedFpu:
    """Timing-only model of the memory-mapped floating-point chip."""

    def __init__(
        self,
        latencies: FpuLatencies,
        trigger_kinds,
        op_queue_capacity: int = 8,
        clock: ProgressClock | None = None,
    ):
        """``trigger_kinds`` maps trigger addresses to operation names
        (taken from :mod:`repro.memory.fpu` so the two models can never
        disagree about the address map)."""
        self.latencies = latencies
        self._trigger_kinds = dict(trigger_kinds)
        self.op_queue_capacity = op_queue_capacity
        #: completion times of operations not yet finished
        self._ops_pending: deque[int] = deque()
        #: results finished but not yet delivered (completion times)
        self._results_ready: deque[int] = deque()
        self._busy_until = 0
        #: outstanding result-load requests, oldest first
        self._result_loads: deque[MemoryRequest] = deque()
        self.operations_started = 0
        self.results_delivered = 0
        self._clock = clock if clock is not None else ProgressClock()

    # ------------------------------------------------------------------
    # Output-bus side
    # ------------------------------------------------------------------
    def can_accept(self, request: MemoryRequest, now: int) -> bool:
        if request.kind == RequestKind.STORE:
            if request.address == FPU_OPERAND_A:
                return True
            if request.address in self._trigger_kinds:
                return len(self._ops_pending) < self.op_queue_capacity
            return True
        if request.kind == RequestKind.LOAD:
            return request.address == FPU_RESULT
        return False

    def accept(self, request: MemoryRequest, now: int) -> None:
        request.accepted_at = now
        self._clock.ticks += 1
        if request.kind == RequestKind.STORE:
            kind = self._trigger_kinds.get(request.address)
            if kind is not None:
                start = max(now, self._busy_until)
                finish = start + self.latencies.latency(kind)
                self._busy_until = finish
                self._ops_pending.append(finish)
                self.operations_started += 1
            # Stores complete at acceptance (no return data).
            request.completed = True
            if request.on_complete is not None:
                request.on_complete(now)
            return
        if request.kind == RequestKind.LOAD:
            self._result_loads.append(request)
            return
        raise ValueError(f"FPU cannot service {request.kind}")

    # ------------------------------------------------------------------
    # Input-bus side
    # ------------------------------------------------------------------
    def begin_cycle(self, now: int) -> None:
        """Move finished operations to the ready-result FIFO."""
        while self._ops_pending and self._ops_pending[0] <= now:
            self._results_ready.append(self._ops_pending.popleft())
            self._clock.ticks += 1

    def deliverable_load(self, now: int) -> MemoryRequest | None:
        """The oldest result load whose result is ready, if any."""
        if self._result_loads and self._results_ready:
            return self._result_loads[0]
        return None

    def deliver(self, now: int) -> MemoryRequest:
        """Transfer one result over the input bus (caller won arbitration)."""
        request = self._result_loads.popleft()
        self._results_ready.popleft()
        request.delivered_bytes = request.size
        request.completed = True
        self.results_delivered += 1
        self._clock.ticks += 1
        if request.on_chunk is not None:
            request.on_chunk(0, request.size, now)
        if request.on_complete is not None:
            request.on_complete(now)
        return request

    # ------------------------------------------------------------------
    def state_signature(self, now: int, base_seq: int) -> tuple:
        """Operation/result pipeline shape with anchor-relative times.

        ``_busy_until`` in the past is normalised to ``None`` — the unit
        only ever compares it against ``now`` via ``max()``, so any stale
        value behaves identically.
        """
        return (
            tuple(finish - now for finish in self._ops_pending),
            len(self._results_ready),
            self._busy_until - now if self._busy_until > now else None,
            tuple(
                (
                    request.seq - base_seq,
                    None
                    if request.accepted_at is None
                    else request.accepted_at - now,
                )
                for request in self._result_loads
            ),
        )

    def replay_shift(self, cycles: int, seqs: int) -> None:
        """Advance all absolute times/seqs by a replayed span's deltas."""
        if self._ops_pending:
            self._ops_pending = deque(t + cycles for t in self._ops_pending)
        if self._results_ready:
            self._results_ready = deque(t + cycles for t in self._results_ready)
        self._busy_until += cycles
        for request in self._result_loads:
            if request.accepted_at is not None:
                request.accepted_at += cycles
            request.seq += seqs

    # ------------------------------------------------------------------
    # compiled-kernel lowering (repro.core.compiled)
    # ------------------------------------------------------------------
    @classmethod
    def emit_compiled_wake(cls, ctx) -> None:
        """Fold the oldest pending operation's completion time into the
        idle-skip wake scan.

        An operation finishing is the FPU's only timed event: it readies
        a result for delivery *and* frees an op-queue slot (which can
        unblock a trigger store waiting at output-bus arbitration).
        Ready results and queued result loads are event-woken — they
        only wait on input-bus arbitration or new acceptances.
        ``_ops_pending`` is read through the owner because
        :meth:`replay_shift` rebinds the deque.
        """
        ctx.need("fpu")
        ctx.line("_ops = fpu._ops_pending")
        with ctx.block("if _ops and _ops[0] < wake:"):
            ctx.line("wake = _ops[0]")

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no operation or result pickup is outstanding."""
        return not self._ops_pending and not self._results_ready and not self._result_loads
