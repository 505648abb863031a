"""A Target Instruction Buffer (TIB) frontend — the cacheless alternative.

Paper section 2.1: "A TIB can be used in place of or in addition to an
instruction cache, and contains the n sequential instructions stored at
a branch target address. ... When a branch is taken, the n instructions
are taken out of the TIB while the I-Fetch control logic issues requests
for the instructions sequential to the ones in the TIB.  If there are
more instructions in the TIB than the number of clock cycles it takes to
access external memory, the instruction stream will have no gaps in it.
The AMD29000 uses such a TIB instead of an instruction cache. ... the
use of a TIB implies large amounts of off-chip accessing, which again
can be a problem in SCP design."

This unit lets the reproduction *measure* that trade-off against the
paper's two strategies:

* sequential instructions stream straight from external memory into a
  small on-chip stream buffer (there is **no** instruction cache, so the
  off-chip request rate is high by construction);
* a fully-associative, LRU-replaced buffer of branch-target entries
  captures the first ``entry_bytes`` of each taken-branch target; a
  later taken branch to the same target drains the TIB entry while the
  fetch engine asks memory for the instructions after it.

An entry is allocated on a taken branch that misses the TIB and fills
from the demand stream that follows, so every target hits from its
second visit (capacity permitting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.scheduler import ProgressClock
from ..core.trace import NULL_TRACER, Tracer
from ..isa.encoding import DecodeError, InstructionFormat
from ..isa.instruction import Instruction
from ..isa.predecode import PredecodedImage
from ..memory.requests import MemoryRequest, RequestKind
from .base import FetchStats, FetchUnit

__all__ = ["TibFetchUnit", "TibStats"]


@dataclass
class TibStats(FetchStats):
    """Fetch statistics plus TIB-specific hit accounting."""

    tib_hits: int = 0
    tib_misses: int = 0
    tib_bytes_supplied: int = 0

    @property
    def tib_hit_rate(self) -> float:
        total = self.tib_hits + self.tib_misses
        return self.tib_hits / total if total else 0.0


@dataclass
class _TibEntry:
    target: int = -1
    valid_bytes: int = 0
    stamp: int = 0
    filling: bool = field(default=False, repr=False)


class TibFetchUnit(FetchUnit):
    """Stream buffer + branch-target buffer, no instruction cache."""

    def __init__(
        self,
        image: bytes | bytearray,
        fmt: InstructionFormat,
        input_bus_width: int,
        entry_point: int,
        next_seq,
        tib_entries: int = 4,
        tib_entry_bytes: int = 16,
        stream_buffer_bytes: int = 32,
        predecode: PredecodedImage | None = None,
        tracer: Tracer | None = None,
        clock: ProgressClock | None = None,
    ):
        if tib_entries < 1 or tib_entry_bytes < 4:
            raise ValueError("TIB needs at least one entry of one instruction")
        if stream_buffer_bytes < 2 * input_bus_width:
            raise ValueError("stream buffer must hold two bus transfers")
        self._install_decoder(image, fmt, predecode)
        self.block_size = input_bus_width
        self.entry_bytes = tib_entry_bytes
        self.stream_capacity = stream_buffer_bytes
        self._next_seq = next_seq
        self.stats = TibStats()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._progress = clock if clock is not None else ProgressClock()

        #: next instruction to issue / contiguous bytes on chip past it
        self._pc = entry_point
        self._valid_end = entry_point
        self._request: MemoryRequest | None = None
        self._request_accepted = False

        self._entries = [_TibEntry() for _ in range(tib_entries)]
        self._clock = 0
        #: entry currently capturing the post-redirect demand stream
        self._fill_entry: _TibEntry | None = None

    # ------------------------------------------------------------------
    # Cycle phases
    # ------------------------------------------------------------------
    def update(self, now: int) -> None:
        self._promote_if_starving()
        self._maybe_request(now)

    def post_issue(self, now: int) -> None:
        self._maybe_request(now)

    def _promote_if_starving(self) -> None:
        request = self._request
        if request is not None and not request.demand and not self._has_instruction():
            request.promote_to_demand()
            self._progress.ticks += 1
            self.stats.prefetch_promotions += 1
            if self._tracer.enabled:
                self._tracer.emit("fetch", "promote", seq=request.seq)

    def _buffered_bytes(self) -> int:
        return self._valid_end - self._pc

    # ------------------------------------------------------------------
    # compiled-kernel lowering (repro.core.compiled)
    # ------------------------------------------------------------------
    # The lowered phases fold ``_maybe_request``'s cheap early-outs —
    # the stream-buffer room test with ``stream_capacity``/``block_size``
    # as literals — and call the bound helpers only when they can act
    # (each re-checks its own guards).  ``next_instruction`` reads the
    # shared predecode table directly: the common case (entry already
    # decoded, fully arrived) is three comparisons and a dict lookup.

    @classmethod
    def _emit_request_guard(cls, ctx) -> None:
        cap = ctx.spec.tib_stream_capacity
        block = ctx.spec.tib_block_size
        with ctx.block(
            "if not frontend._halted and "
            f"{cap} - (frontend._valid_end - frontend._pc) >= {block}:"
        ):
            ctx.line("frontend_maybe_request(now)")

    @classmethod
    def emit_compiled_update(cls, ctx) -> None:
        ctx.need(
            "frontend", "frontend_promote_starving", "frontend_maybe_request"
        )
        ctx.line("f_req = frontend._request")
        with ctx.block("if f_req is not None:"):
            with ctx.block("if not f_req.demand:"):
                ctx.line("frontend_promote_starving()")
        with ctx.block("else:"):
            cls._emit_request_guard(ctx)

    @classmethod
    def emit_compiled_post_issue(cls, ctx) -> None:
        ctx.need("frontend", "frontend_maybe_request")
        with ctx.block("if frontend._request is None:"):
            cls._emit_request_guard(ctx)

    @classmethod
    def emit_compiled_next_instruction(cls, ctx) -> None:
        """Inline :meth:`next_instruction` over the predecode table.

        ``False`` is the not-yet-decoded sentinel (``dict.get`` default);
        ``None`` marks bytes that do not decode, which the bound method
        also reports as nothing-to-issue.
        """
        ctx.need("frontend", "pd_table", "frontend_next_instruction")
        ctx.line("f_pc = frontend._pc")
        ctx.line("f_end = frontend._valid_end")
        with ctx.block("if f_pc + 2 > f_end:"):
            ctx.line("fetched = None")
        with ctx.block("else:"):
            ctx.line("entry = pd_table.get(f_pc, False)")
            with ctx.block("if entry is False:"):
                ctx.line("fetched = frontend_next_instruction()")
            with ctx.block("elif entry is None:"):
                ctx.line("fetched = None")
            with ctx.block("elif f_pc + entry[1] <= f_end:"):
                ctx.line("fetched = (f_pc, entry[0], entry[1])")
            with ctx.block("else:"):
                ctx.line("fetched = None")

    @classmethod
    def emit_compiled_consume(cls, ctx) -> None:
        """Inline :meth:`consume`; ``pc``/``size`` are in scope."""
        ctx.need("frontend", "fe_stats")
        ctx.line("frontend._pc = pc + size")
        ctx.line("fe_stats.instructions_supplied += 1")

    def _maybe_request(self, now: int) -> None:
        if self._halted or self._request is not None:
            return
        outstanding_room = self.stream_capacity - self._buffered_bytes()
        if outstanding_room < self.block_size:
            return  # buffer full enough; no further stream-ahead
        # Fetch the bus-width block containing the stream's frontier; a
        # misaligned frontier (e.g. after a TIB hit) refetches the few
        # bytes before it — the price of alignment on a real bus.
        block = self._valid_end - (self._valid_end % self.block_size)
        if block + 2 > len(self.image):
            return  # stream ran past the code image
        demand = not self._has_instruction()
        request = MemoryRequest(
            kind=RequestKind.IFETCH,
            address=block,
            size=self.block_size,
            seq=self._next_seq(),
            demand=demand,
        )
        self._progress.ticks += 1
        request.on_chunk = self._make_chunk_handler(request)
        request.on_complete = self._make_complete_handler(request)
        if demand:
            self.stats.demand_requests += 1
        else:
            self.stats.prefetch_requests += 1
        if self._tracer.enabled:
            self._tracer.emit(
                "fetch",
                "request",
                addr=block,
                bytes=self.block_size,
                demand=demand,
                seq=request.seq,
            )
        self._request = request
        self._request_accepted = False

    def _make_chunk_handler(self, request: MemoryRequest):
        def handler(offset: int, nbytes: int, now: int) -> None:
            if self._request is not request:
                return  # stale wrong-path stream data
            arrived_end = request.address + offset + nbytes
            if arrived_end > self._valid_end:
                self._valid_end = arrived_end
            self._feed_fill_entry()

        return handler

    def _make_complete_handler(self, request: MemoryRequest):
        def handler(now: int) -> None:
            if self._tracer.enabled:
                self._tracer.emit("fetch", "complete", seq=request.seq)
            if self._request is request:
                self._request = None

        return handler

    # ------------------------------------------------------------------
    # TIB management
    # ------------------------------------------------------------------
    def _find_entry(self, target: int) -> _TibEntry | None:
        for entry in self._entries:
            if entry.target == target and entry.valid_bytes >= 4:
                return entry
        return None

    def _allocate_entry(self, target: int) -> _TibEntry:
        victim = min(self._entries, key=lambda entry: entry.stamp)
        victim.target = target
        victim.valid_bytes = 0
        victim.filling = True
        self._clock += 1
        victim.stamp = self._clock
        return victim

    def _feed_fill_entry(self) -> None:
        """Copy freshly-arrived demand-stream bytes into the filling entry."""
        entry = self._fill_entry
        if entry is None:
            return
        fill_front = entry.target + entry.valid_bytes
        if self._valid_end > fill_front:
            entry.valid_bytes = min(
                self.entry_bytes, self._valid_end - entry.target
            )
        if entry.valid_bytes >= self.entry_bytes:
            entry.filling = False
            self._fill_entry = None

    # ------------------------------------------------------------------
    # Memory request plumbing
    # ------------------------------------------------------------------
    def poll_requests(self, now: int) -> list[MemoryRequest]:
        if self._halted and self._request is not None and not self._request_accepted:
            if self._tracer.enabled:
                self._tracer.emit(
                    "fetch", "cancel", seq=self._request.seq, reason="halt"
                )
            self._request = None  # withdraw the unaccepted request
        if self._request is not None and not self._request_accepted:
            return [self._request]
        return []

    def notify_accepted(self, request: MemoryRequest, now: int) -> None:
        self._request_accepted = True

    # ------------------------------------------------------------------
    # Decoder interface
    # ------------------------------------------------------------------
    def _has_instruction(self) -> bool:
        if self._pc + 2 > self._valid_end:
            return False
        try:
            _instruction, size = self.predecode.at(self._pc)
        except DecodeError:
            return False
        return self._pc + size <= self._valid_end

    def next_instruction(self) -> tuple[int, Instruction, int] | None:
        if not self._has_instruction():
            return None
        instruction, size = self.predecode.at(self._pc)
        return (self._pc, instruction, size)

    def consume(self, now: int) -> None:
        _instruction, size = self.predecode.at(self._pc)
        self._pc += size
        self.stats.instructions_supplied += 1

    # ------------------------------------------------------------------
    # Branch protocol
    # ------------------------------------------------------------------
    def note_branch(self, pbr_pc: int, next_pc: int, delay: int, target: int) -> None:
        pass  # targets are served at redirect time, from the TIB

    def progress_signature(self) -> tuple:
        return super().progress_signature() + (self._pc, self._valid_end)

    def describe_state(self) -> str:
        return (
            f"{super().describe_state()} pc={self._pc:#x} "
            f"stream_end={self._valid_end:#x} "
            f"tib_hits={self.stats.tib_hits}/{self.stats.tib_hits + self.stats.tib_misses}"
        )

    def state_signature(self, now: int, base_seq: int) -> tuple:
        """Stream window, outstanding request, and TIB entries in
        LRU-rank order (the monotonic allocation clock never recurs, so
        absolute stamps are normalised to their rank)."""
        ranked = sorted(self._entries, key=lambda entry: entry.stamp)
        return (
            self._halted,
            self._pc,
            self._valid_end,
            self._request_signature(base_seq),
            tuple(
                (entry.target, entry.valid_bytes, entry.filling) for entry in ranked
            ),
            None if self._fill_entry is None else ranked.index(self._fill_entry),
        )

    def branch_resolved(self, taken: bool) -> None:
        pass

    def redirect(self, target: int, now: int) -> None:
        self.stats.redirects += 1
        if self._tracer.enabled:
            self._tracer.emit("fetch", "redirect", target=target, squashed=0)
        self._fill_entry = None
        entry = self._find_entry(target)
        if entry is not None:
            # The target's first instructions come straight out of the TIB
            # while memory is asked for their sequential successors.
            self.stats.tib_hits += 1
            self.stats.tib_bytes_supplied += entry.valid_bytes
            self._clock += 1
            entry.stamp = self._clock
            self._pc = target
            self._valid_end = target + entry.valid_bytes
            if self._tracer.enabled:
                self._tracer.emit("tib", "hit", target=target, bytes=entry.valid_bytes)
        else:
            self.stats.tib_misses += 1
            self._pc = target
            self._valid_end = target
            self._fill_entry = self._allocate_entry(target)
            if self._tracer.enabled:
                self._tracer.emit("tib", "miss", target=target)
                self._tracer.emit("tib", "alloc", target=target)
        # The in-flight sequential request (if any) belongs to the old
        # path; its data must not extend the new stream.
        if self._request is not None and not self._request_accepted:
            if self._tracer.enabled:
                self._tracer.emit(
                    "fetch", "cancel", seq=self._request.seq, reason="redirect"
                )
            self._request = None  # withdraw before acceptance
        elif self._request is not None:
            if self._tracer.enabled:
                self._tracer.emit(
                    "fetch", "cancel", seq=self._request.seq, reason="redirect"
                )
            self._request.on_chunk = None
            request = self._request

            def forget(now: int, request=request) -> None:
                if self._request is request:
                    self._request = None

            self._request.on_complete = forget
