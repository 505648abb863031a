"""The data-queue engine: LAQ/LDQ/SAQ/SDQ and their memory interface.

This is the timing-side owner of PIPE's architectural data queues (paper
section 3.1.2) and a request source for the memory system:

* a **load** instruction pushes its effective address on the LAQ at
  issue; the engine offers the LAQ head to output-bus arbitration (with
  a credit check so outstanding loads can never overflow the LDQ); data
  returns over the input bus and enters the LDQ *in program order*;
* a **store** leaves the chip when both the SAQ head (address) and the
  SDQ head (data) are present and the pair wins arbitration;
* loads and stores are offered oldest-first, so a load can never bypass
  an older store at the memory interface (which also keeps the values
  consistent with the functional commit order).

Value semantics follow the functional-first discipline: load values and
store commits are computed *at issue time* against an engine-private
functional memory (plus the semantic FPU core), while the queues, buses
and latencies only decide *when* the LDQ head becomes poppable.  Issue
order equals program order, so the values are exact; the paper's
performance effects (queue pressure, bus competition between I-fetch and
D-fetch) are all timing effects, which this engine models in full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..asm.program import WORD_BYTES, Program
from ..core.scheduler import IDLE, ProgressClock
from ..core.trace import NULL_TRACER, Tracer
from ..memory.fpu import FPU_BASE, FpuCore, is_fpu_address
from ..memory.requests import MemoryRequest, RequestKind
from .queues import ArchitecturalQueue

__all__ = ["DataQueueEngine", "DataEngineStats"]


@dataclass
class _LaqEntry:
    address: int
    value: int  #: functionally-computed load value
    seq: int


@dataclass
class _SaqEntry:
    address: int
    seq: int


@dataclass
class _SdqEntry:
    value: int
    seq: int


@dataclass
class _InFlightLoad:
    value: int
    arrived: bool = False


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
        program: Program,
        next_seq,
        laq_capacity: int = 8,
        ldq_capacity: int = 8,
        saq_capacity: int = 8,
        sdq_capacity: int = 8,
        tracer: Tracer | None = None,
        clock: ProgressClock | None = None,
    ):
        if program.memory_size > FPU_BASE:
            raise ValueError(
                f"program image ({program.memory_size} bytes) overlaps the "
                f"FPU window at {FPU_BASE:#x}"
            )
        self.memory = bytearray(program.image)
        self.fpu_core = FpuCore()
        self._next_seq = next_seq
        self._tracer = tracer if tracer is not None else NULL_TRACER
        tracer = self._tracer
        clock = clock if clock is not None else ProgressClock()
        self._clock = clock
        self.laq: ArchitecturalQueue[_LaqEntry] = ArchitecturalQueue(
            "LAQ", laq_capacity, tracer=tracer, clock=clock
        )
        self.ldq: ArchitecturalQueue[int] = ArchitecturalQueue(
            "LDQ", ldq_capacity, tracer=tracer, clock=clock
        )
        self.saq: ArchitecturalQueue[_SaqEntry] = ArchitecturalQueue(
            "SAQ", saq_capacity, tracer=tracer, clock=clock
        )
        self.sdq: ArchitecturalQueue[_SdqEntry] = ArchitecturalQueue(
            "SDQ", sdq_capacity, tracer=tracer, clock=clock
        )
        self._in_flight_loads: deque[_InFlightLoad] = deque()
        #: store pairs committed functionally but not yet paired in the
        #: timing queues (addresses awaiting their SDQ half)
        self._uncommitted_addresses: deque[int] = deque()
        self._uncommitted_data: deque[int] = deque()
        self.stats = DataEngineStats()
        #: whether the request the last poll offered is a store (read by
        #: :meth:`notify_accepted`)
        self._offered_is_store = False
        #: replay recording: when a list, issue-side pushes append
        #: ``("laq", addr, seq, hazards)`` / ``("saq", addr, seq)`` /
        #: ``("sdq", value, seq)`` and store departures append
        #: ``("sd",)``, in true temporal order
        self.replay_log: list | None = None

    # ------------------------------------------------------------------
    # Functional memory
    # ------------------------------------------------------------------
    def _check_address(self, address: int) -> None:
        if address % WORD_BYTES != 0:
            raise ValueError(f"unaligned data access at {address:#x}")
        if not is_fpu_address(address) and address + WORD_BYTES > len(self.memory):
            raise IndexError(
                f"data access at {address:#x} outside memory of "
                f"{len(self.memory)} bytes"
            )

    def _functional_read(self, address: int) -> int:
        self._check_address(address)
        if is_fpu_address(address):
            return self.fpu_core.read(address)
        return int.from_bytes(self.memory[address : address + WORD_BYTES], "little")

    def _functional_write(self, address: int, value: int) -> None:
        self._check_address(address)
        if is_fpu_address(address):
            before = self.fpu_core.operations_started
            self.fpu_core.write(address, value)
            if self._tracer.enabled and self.fpu_core.operations_started > before:
                self._tracer.emit("engine", "fpu_op", addr=address)
        else:
            self.memory[address : address + WORD_BYTES] = (
                value & 0xFFFFFFFF
            ).to_bytes(WORD_BYTES, "little")

    def _commit_pending_stores(self) -> None:
        while self._uncommitted_addresses and self._uncommitted_data:
            self._functional_write(
                self._uncommitted_addresses.popleft(),
                self._uncommitted_data.popleft(),
            )

    # ------------------------------------------------------------------
    # Issue-side interface (the back-end's execution environment)
    # ------------------------------------------------------------------
    def ldq_has_data(self) -> bool:
        return not self.ldq.is_empty

    def pop_ldq(self) -> int:
        return self.ldq.pop()

    @property
    def laq_full(self) -> bool:
        return self.laq.is_full

    @property
    def saq_full(self) -> bool:
        return self.saq.is_full

    @property
    def sdq_full(self) -> bool:
        return self.sdq.is_full

    def push_laq(self, address: int) -> None:
        for pending in self._uncommitted_addresses:
            if pending == address:
                raise RuntimeError(
                    f"load from {address:#x} while a store to the same address "
                    "awaits its SDQ data — miscompiled program"
                )
        hazards = 0
        for entry in self.saq:
            if entry.address == address:
                hazards += 1
                self.stats.ordering_hazards += 1
                if self._tracer.enabled:
                    self._tracer.emit("engine", "hazard", addr=address)
        value = self._functional_read(address)
        seq = self._next_seq()
        self.laq.push(_LaqEntry(address=address, value=value, seq=seq))
        if self.replay_log is not None:
            self.replay_log.append(("laq", address, seq, hazards))
        self.stats.loads_issued += 1
        if is_fpu_address(address):
            self.stats.fpu_loads += 1

    def push_saq(self, address: int) -> None:
        seq = self._next_seq()
        self.saq.push(_SaqEntry(address=address, seq=seq))
        if self.replay_log is not None:
            self.replay_log.append(("saq", address, seq))
        self._uncommitted_addresses.append(address)
        self._commit_pending_stores()
        self.stats.stores_issued += 1
        if is_fpu_address(address):
            self.stats.fpu_stores += 1

    def push_sdq(self, value: int) -> None:
        seq = self._next_seq()
        self.sdq.push(_SdqEntry(value=value, seq=seq))
        if self.replay_log is not None:
            self.replay_log.append(("sdq", value, seq))
        self._uncommitted_data.append(value)
        self._commit_pending_stores()

    # ------------------------------------------------------------------
    # Per-cycle update: deliver arrived loads into the LDQ, in order
    # ------------------------------------------------------------------
    def update(self, now: int) -> None:
        while (
            self._in_flight_loads
            and self._in_flight_loads[0].arrived
            and not self.ldq.is_full
        ):
            self.ldq.push(self._in_flight_loads.popleft().value)
        self.stats.ldq_max_wait_entries = max(
            self.stats.ldq_max_wait_entries, len(self._in_flight_loads)
        )

    # ------------------------------------------------------------------
    # compiled-kernel lowering (repro.core.compiled)
    # ------------------------------------------------------------------
    @classmethod
    def emit_compiled_update(cls, ctx) -> None:
        """Lower :meth:`update` into the kernel.

        The LDQ-full check folds the capacity literal; the push still
        goes through the queue's bound ``push`` (hoisted in the
        prologue) so occupancy stats, progress ticks, and trace events
        stay exactly the reference's.  ``_in_flight_loads`` is read
        through the engine because replay's commit may replace flight
        entries in place while the deque object itself persists.
        """
        spec = ctx.spec
        ctx.need("engine", "engine_stats", "ldq_items", "ldq_push")
        ctx.line("ifl = engine._in_flight_loads")
        condition = "ifl and ifl[0].arrived"
        if spec.ldq_capacity is not None:
            condition += f" and len(ldq_items) < {spec.ldq_capacity}"
        with ctx.block(f"while {condition}:"):
            ctx.line("ldq_push(ifl.popleft().value)")
        with ctx.block("if len(ifl) > engine_stats.ldq_max_wait_entries:"):
            ctx.line("engine_stats.ldq_max_wait_entries = len(ifl)")

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
        in issue order.
        """
        load_entry = None
        if not self.laq.is_empty and self._load_credit_available():
            load_entry = self.laq.peek()
        store_ready = not self.saq.is_empty and not self.sdq.is_empty
        if load_entry is not None and store_ready:
            if load_entry.seq > self.saq.peek().seq:
                load_entry = None  # the store is older
        elif load_entry is None and not store_ready:
            return []
        if load_entry is not None:
            request = MemoryRequest(
                kind=RequestKind.LOAD,
                address=load_entry.address,
                size=WORD_BYTES,
                seq=load_entry.seq,
                demand=True,
            )
            self._offered_is_store = False
        else:
            saq_head = self.saq.peek()
            sdq_head = self.sdq.peek()
            request = MemoryRequest(
                kind=RequestKind.STORE,
                address=saq_head.address,
                size=WORD_BYTES,
                seq=saq_head.seq,
                demand=True,
                store_value=sdq_head.value,
            )
            self._offered_is_store = True
        return [request]

    @classmethod
    def emit_compiled_poll(cls, ctx) -> None:
        """Lower :meth:`poll_requests` into the acceptance phase.

        Binds ``e_reqs``: the LAQ head, when the LDQ credit (folded
        capacity literal) allows it, or the SAQ/SDQ pair, whichever is
        older by ``seq``; ``()`` when neither is ready.  A request object
        is built only for an actual candidate, and only
        ``_offered_is_store`` (read by :meth:`notify_accepted`) is
        written, exactly as the reference writes it.
        """
        spec = ctx.spec
        ctx.need("engine", "laq_items", "ldq_items", "saq_items", "sdq_items")
        credit = "laq_items"
        if spec.ldq_capacity is not None:
            credit += (
                " and len(engine._in_flight_loads) + len(ldq_items) "
                f"< {spec.ldq_capacity}"
            )
        ctx.line(f"e_load = laq_items[0] if {credit} else None")
        with ctx.block(
            "if saq_items and sdq_items "
            "and (e_load is None or e_load.seq > saq_items[0].seq):"
        ):
            ctx.line("e_head = saq_items[0]")
            ctx.line(
                "e_reqs = (MemoryRequest(kind=K_STORE, "
                f"address=e_head.address, size={WORD_BYTES}, "
                "seq=e_head.seq, demand=True, "
                "store_value=sdq_items[0].value),)"
            )
            ctx.line("engine._offered_is_store = True")
        with ctx.block("elif e_load is not None:"):
            ctx.line(
                "e_reqs = (MemoryRequest(kind=K_LOAD, "
                f"address=e_load.address, size={WORD_BYTES}, "
                "seq=e_load.seq, demand=True),)"
            )
            ctx.line("engine._offered_is_store = False")
        with ctx.block("else:"):
            ctx.line("e_reqs = ()")

    def notify_accepted(self, request: MemoryRequest, now: int) -> None:
        if self._offered_is_store:
            self.saq.pop()
            self.sdq.pop()
            if self.replay_log is not None:
                self.replay_log.append(("sd",))
            return
        entry = self.laq.pop()
        flight = _InFlightLoad(value=entry.value)

        def on_complete(_now: int, flight=flight) -> None:
            flight.arrived = True

        request.on_complete = on_complete
        self._in_flight_loads.append(flight)

    # ------------------------------------------------------------------
    def next_event_cycle(self, now: int) -> int:
        """Always ``IDLE``: the data engine is purely event-woken.

        Arrived loads enter the LDQ at the ``update`` following their
        delivery (an input-bus tick); a load blocked on a full LDQ waits
        for an issue-side pop (an issue tick); queue heads waiting at
        output-bus arbitration wait for acceptance (an acceptance tick).
        The engine never schedules an event on its own clock.
        """
        return IDLE

    # ------------------------------------------------------------------
    def state_signature(self, now: int, base_seq: int) -> tuple:
        """Queue-pipeline fingerprint with anchor-relative seqs.

        Addresses and values are data (they stride across iterations and
        are re-derived by functional re-execution); what must recur is
        the *shape*: occupancies, arrival flags, and each entry's age
        relative to the sequence allocator, which drives load-vs-store
        ordering at output-bus arbitration.
        """
        return (
            self.ldq.state_signature(),
            tuple(flight.arrived for flight in self._in_flight_loads),
            tuple(entry.seq - base_seq for entry in self.laq),
            tuple(entry.seq - base_seq for entry in self.saq),
            tuple(entry.seq - base_seq for entry in self.sdq),
            len(self._uncommitted_addresses),
            len(self._uncommitted_data),
            self.fpu_core.results_pending,
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
