"""The data-queue engine: LAQ/LDQ/SAQ/SDQ and their memory interface.

This is the timing-side owner of PIPE's architectural data queues (paper
section 3.1.2) and the memory system's data request source:

* a **load** instruction pushes its :class:`MemoryRequest` on the LAQ at
  issue; the engine offers the LAQ head to output-bus arbitration (with
  a credit check so outstanding loads can never overflow the LDQ); once
  accepted the request waits in flight until its data has returned over
  the input bus (``completed``), then enters the LDQ *in program order*;
* a **store** pushes its request on the SAQ at issue and leaves the chip
  when both the SAQ head (address) and the SDQ head (data) are present
  and the pair wins arbitration;
* loads and stores are offered oldest-first, so a load can never bypass
  an older store at the memory interface.

Each data access is one request object, from issue to retirement: what
the LAQ or SAQ holds is what the output bus is offered.  The engine
holds no values.  Addresses come from the program's issue stream
(:mod:`repro.cpu.stream`), whose functional pass computed every value
once; the SDQ holds only its entries' sequence numbers.  The engine
decides only *when* the LDQ head becomes poppable.  The paper's
performance effects (queue pressure, bus competition between I-fetch
and D-fetch) are all timing effects, which this engine models in full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..asm.program import WORD_BYTES
from ..core.scheduler import ProgressClock
from ..core.trace import NULL_TRACER, Tracer
from ..memory.fpu import FPU_BASE, FPU_SIZE, is_fpu_address
from ..memory.requests import MemoryRequest, RequestKind
from .queues import ArchitecturalQueue

__all__ = ["DataQueueEngine", "DataEngineStats"]

#: ``is_fpu_address`` of an expression, as kernel source
_FPU_WINDOW = f"{FPU_BASE} <= {{}} < {FPU_BASE + FPU_SIZE}"


@dataclass
class DataEngineStats:
    loads_issued: int = 0
    stores_issued: int = 0
    fpu_loads: int = 0
    fpu_stores: int = 0
    ordering_hazards: int = 0  #: loads overlapping an in-queue store address
    ldq_max_wait_entries: int = field(default=0, repr=False)


class DataQueueEngine:
    """Owns the four architectural queues and talks to the memory system."""

    def __init__(
        self,
        next_seq,
        laq_capacity: int = 8,
        ldq_capacity: int = 8,
        saq_capacity: int = 8,
        sdq_capacity: int = 8,
        tracer: Tracer | None = None,
        clock: ProgressClock | None = None,
    ):
        self._next_seq = next_seq
        self._tracer = tracer if tracer is not None else NULL_TRACER
        tracer = self._tracer
        clock = clock if clock is not None else ProgressClock()
        self._clock = clock
        self.laq: ArchitecturalQueue[MemoryRequest] = ArchitecturalQueue(
            "LAQ", laq_capacity, tracer=tracer, clock=clock
        )
        self.ldq: ArchitecturalQueue[MemoryRequest] = ArchitecturalQueue(
            "LDQ", ldq_capacity, tracer=tracer, clock=clock
        )
        self.saq: ArchitecturalQueue[MemoryRequest] = ArchitecturalQueue(
            "SAQ", saq_capacity, tracer=tracer, clock=clock
        )
        #: store data holds no value: an entry is its sequence number
        self.sdq: ArchitecturalQueue[int] = ArchitecturalQueue(
            "SDQ", sdq_capacity, tracer=tracer, clock=clock
        )
        #: accepted loads, oldest first, until their data is on chip
        self._in_flight_loads: deque[MemoryRequest] = deque()
        self.stats = DataEngineStats()
        #: replay recording: when a list, load and store-address pushes
        #: append ``("laq", hazards)`` / ``("saq",)`` and store
        #: departures append ``("sd",)``, in true temporal order
        self.replay_log: list | None = None

    # ------------------------------------------------------------------
    # Issue-side interface (the back-end's pushes)
    # ------------------------------------------------------------------
    def push_laq(self, address: int) -> None:
        hazards = 0
        for store in self.saq:
            if store.address == address:
                hazards += 1
                self.stats.ordering_hazards += 1
                if self._tracer.enabled:
                    self._tracer.emit("engine", "hazard", addr=address)
        self.laq.push(
            MemoryRequest(RequestKind.LOAD, address, WORD_BYTES, self._next_seq())
        )
        if self.replay_log is not None:
            self.replay_log.append(("laq", hazards))
        self.stats.loads_issued += 1
        if is_fpu_address(address):
            self.stats.fpu_loads += 1

    def push_saq(self, address: int) -> None:
        self.saq.push(
            MemoryRequest(RequestKind.STORE, address, WORD_BYTES, self._next_seq())
        )
        if self.replay_log is not None:
            self.replay_log.append(("saq",))
        self.stats.stores_issued += 1
        if is_fpu_address(address):
            self.stats.fpu_stores += 1

    def push_sdq(self) -> None:
        self.sdq.push(self._next_seq())

    # ------------------------------------------------------------------
    # compiled-kernel lowering of the pushes (repro.core.compiled)
    # ------------------------------------------------------------------
    # The back-end's issue emitter calls these after its capacity
    # checks, so no push can find its queue full.  ``address`` names a
    # kernel local.

    @classmethod
    def _emit_next_seq(cls, ctx) -> None:
        """``e_seq = self._next_seq()`` on the machine's counter."""
        ctx.need("seq")
        ctx.line("e_seq = seq.value")
        ctx.line("seq.value = e_seq + 1")

    @classmethod
    def _emit_replay_event(cls, ctx, event: str) -> None:
        """Append ``event`` to ``replay_log`` while replay records;
        replay rebinds the log, so it is read through the engine."""
        ctx.line("e_log = engine.replay_log")
        with ctx.block("if e_log is not None:"):
            ctx.line(f"e_log.append({event})")

    @classmethod
    def emit_compiled_push_laq(cls, ctx, address: str) -> None:
        """Lower :meth:`push_laq`: count the queued stores at the same
        address, then push the load's request."""
        ctx.need("engine", "engine_stats", "saq_items")
        ctx.line("e_hz = 0")
        with ctx.block("for e_entry in saq_items:"):
            with ctx.block(f"if e_entry.address == {address}:"):
                ctx.line("e_hz += 1")
        with ctx.block("if e_hz:"):
            ctx.line("engine_stats.ordering_hazards += e_hz")
        cls._emit_next_seq(ctx)
        ArchitecturalQueue.emit_compiled_push(
            ctx, "laq", f"MemoryRequest(K_LOAD, {address}, {WORD_BYTES}, e_seq)"
        )
        cls._emit_replay_event(ctx, '("laq", e_hz)')
        ctx.line("engine_stats.loads_issued += 1")
        with ctx.block(f"if {_FPU_WINDOW.format(address)}:"):
            ctx.line("engine_stats.fpu_loads += 1")

    @classmethod
    def emit_compiled_push_saq(cls, ctx, address: str) -> None:
        """Lower :meth:`push_saq`."""
        ctx.need("engine", "engine_stats")
        cls._emit_next_seq(ctx)
        ArchitecturalQueue.emit_compiled_push(
            ctx, "saq", f"MemoryRequest(K_STORE, {address}, {WORD_BYTES}, e_seq)"
        )
        cls._emit_replay_event(ctx, '("saq",)')
        ctx.line("engine_stats.stores_issued += 1")
        with ctx.block(f"if {_FPU_WINDOW.format(address)}:"):
            ctx.line("engine_stats.fpu_stores += 1")

    @classmethod
    def emit_compiled_push_sdq(cls, ctx) -> None:
        """Lower :meth:`push_sdq`."""
        cls._emit_next_seq(ctx)
        ArchitecturalQueue.emit_compiled_push(ctx, "sdq", "e_seq")

    # ------------------------------------------------------------------
    # Per-cycle update: deliver arrived loads into the LDQ, in order
    # ------------------------------------------------------------------
    def update(self, now: int) -> None:
        while (
            self._in_flight_loads
            and self._in_flight_loads[0].completed
            and not self.ldq.is_full
        ):
            self.ldq.push(self._in_flight_loads.popleft())
        self.stats.ldq_max_wait_entries = max(
            self.stats.ldq_max_wait_entries, len(self._in_flight_loads)
        )

    # ------------------------------------------------------------------
    # compiled-kernel lowering (repro.core.compiled)
    # ------------------------------------------------------------------
    @classmethod
    def emit_compiled_update(cls, ctx) -> None:
        """Lower :meth:`update` into the kernel.

        The LDQ-full check folds the capacity literal, so the open-coded
        push (:meth:`ArchitecturalQueue.emit_compiled_push`) never finds
        the queue full.
        """
        spec = ctx.spec
        ctx.need("engine_stats", "in_flight_loads")
        condition = "in_flight_loads and in_flight_loads[0].completed"
        if spec.ldq_capacity is not None:
            condition += f" and len(ldq_items) < {spec.ldq_capacity}"
        with ctx.block(f"while {condition}:"):
            ArchitecturalQueue.emit_compiled_push(
                ctx, "ldq", "in_flight_loads.popleft()"
            )
        with ctx.block(
            "if len(in_flight_loads) > engine_stats.ldq_max_wait_entries:"
        ):
            ctx.line("engine_stats.ldq_max_wait_entries = len(in_flight_loads)")

    # ------------------------------------------------------------------
    # Request source (output-bus arbitration)
    # ------------------------------------------------------------------
    def _load_credit_available(self) -> bool:
        capacity = self.ldq.capacity
        if capacity is None:
            return True
        return len(self._in_flight_loads) + len(self.ldq) < capacity

    def poll_requests(self, now: int) -> list[MemoryRequest]:
        """Offer the oldest ready data transaction (at most one).

        Head-of-line, program order: the LAQ head and the SAQ/SDQ pair
        compete by sequence number, so memory always sees data requests
        in issue order.  The offered request is the queue head itself.
        """
        load = None
        if not self.laq.is_empty and self._load_credit_available():
            load = self.laq.peek()
        if not self.saq.is_empty and not self.sdq.is_empty:
            store = self.saq.peek()
            if load is None or load.seq > store.seq:
                return [store]  # older than any ready load
        return [] if load is None else [load]

    @classmethod
    def emit_compiled_poll(cls, ctx) -> None:
        """Lower :meth:`poll_requests` into the acceptance phase.

        Binds ``e_head``: the LAQ head, when the LDQ credit (folded
        capacity literal) allows it, or the SAQ head when the SAQ/SDQ
        pair is ready and older by ``seq``; ``None`` when neither is
        ready.  ``e_store`` says which; the open-coded
        :meth:`notify_accepted` reads it in place of the request's
        ``kind``.
        """
        spec = ctx.spec
        ctx.need("in_flight_loads", "laq_items", "ldq_items", "saq_items",
                 "sdq_items")
        credit = "laq_items"
        if spec.ldq_capacity is not None:
            credit += (
                " and len(in_flight_loads) + len(ldq_items) "
                f"< {spec.ldq_capacity}"
            )
        ctx.line(f"e_head = laq_items[0] if {credit} else None")
        with ctx.block(
            "if saq_items and sdq_items "
            "and (e_head is None or e_head.seq > saq_items[0].seq):"
        ):
            ctx.line("e_head = saq_items[0]")
            ctx.line("e_store = True")
        with ctx.block("elif e_head is not None:"):
            ctx.line("e_store = False")

    def notify_accepted(self, request: MemoryRequest, now: int) -> None:
        """The offered queue head won arbitration: a store leaves the
        SAQ/SDQ pair, a load moves from the LAQ to the in-flight loads."""
        if request.kind is RequestKind.STORE:
            self.saq.pop()
            self.sdq.pop()
            if self.replay_log is not None:
                self.replay_log.append(("sd",))
            return
        self._in_flight_loads.append(self.laq.pop())

    @classmethod
    def emit_compiled_notify(cls, ctx) -> None:
        """Lower :meth:`notify_accepted` for the accepted ``e_head``: a
        store when ``e_store``, else a load, which moves from the LAQ to
        the in-flight loads."""
        ctx.need("in_flight_loads")
        with ctx.block("if e_store:"):
            ArchitecturalQueue.emit_compiled_pop(ctx, "saq")
            ArchitecturalQueue.emit_compiled_pop(ctx, "sdq")
            cls._emit_replay_event(ctx, '("sd",)')
        with ctx.block("else:"):
            ArchitecturalQueue.emit_compiled_pop(ctx, "laq")
            ctx.line("in_flight_loads.append(e_head)")

    # ------------------------------------------------------------------
    def state_signature(self, now: int, base_seq: int) -> tuple:
        """Queue-pipeline fingerprint with anchor-relative seqs.

        Addresses are data (they stride across iterations, and replay
        rewrites them from the issue stream); what must recur is the
        *shape*: occupancies, the in-flight loads' arrival flags, and
        each entry's age relative to the sequence allocator, which
        drives load-vs-store ordering at output-bus arbitration.
        """
        return (
            self.ldq.state_signature(),
            tuple(load.completed for load in self._in_flight_loads),
            tuple(load.seq - base_seq for load in self.laq),
            tuple(store.seq - base_seq for store in self.saq),
            tuple(seq - base_seq for seq in self.sdq),
        )

    # ------------------------------------------------------------------
    @property
    def drained(self) -> bool:
        """All data activity finished (used for end-of-run detection)."""
        return (
            self.laq.is_empty
            and self.saq.is_empty
            and self.sdq.is_empty
            and not self._in_flight_loads
        )
