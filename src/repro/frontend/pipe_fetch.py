"""The PIPE instruction-fetch strategy: I-cache + IQ + IQB.

Paper section 4.2.  Two queues sit between the instruction cache and the
instruction register:

* the **IQ** (instruction queue) — "if not empty, is guaranteed to always
  contain at least one instruction to be executed";
* the **IQB** (instruction queue buffer) — holds the next line of the
  stream, with no execution guarantee.

Operation:

* when the IQ becomes empty it refills from the IQB;
* when the IQB becomes empty, the next sequential line past the one in
  the IQ is prefetched from the on-chip cache; a cache miss turns into an
  off-chip request (a *prefetch* if the IQ still has instructions, a
  *demand* fetch otherwise — and an in-flight prefetch is promoted to
  demand the moment the IQ drains);
* the control logic scans the IQ for PBR instructions (a single opcode
  bit); with the paper's original policy an off-chip request is only made
  when some part of the line is guaranteed to execute, while the
  presented results allow **true prefetch** past unresolved branches
  (``true_prefetch=True``, our default, matching section 6);
* once a PBR resolves taken and all its delay-slot instructions have
  passed into the IQ, the IQB is redirected to the branch-target line, so
  a target that hits in the cache (or returns from memory early enough)
  causes no interruption in the supply of instructions.

Timing conventions: on-chip work (cache lookup, IQB→IQ transfer) is free
within a cycle; all waiting comes from the memory system.  The unit is
driven by :meth:`update` (pre-issue) and :meth:`post_issue`, and offers
off-chip requests through the :class:`repro.memory.system.RequestSource`
protocol.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.scheduler import ProgressClock
from ..core.trace import NULL_TRACER, Tracer
from ..isa.encoding import DecodeError, InstructionFormat
from ..isa.instruction import Instruction
from ..isa.predecode import PredecodedImage
from ..memory.requests import MemoryRequest, RequestKind
from .base import FetchStats, FetchUnit
from .icache import InstructionCache

__all__ = ["PipeFetchUnit"]

_FAR_FUTURE = 1 << 62


@dataclass
class _PendingBranch:
    """Frontend-side view of an issued PBR."""

    target: int
    delay_end_pc: int  #: first byte past the guaranteed delay-slot region
    resolved: bool = False
    taken: bool = False


class PipeFetchUnit(FetchUnit):
    """Cache + IQ + IQB frontend (the paper's contribution)."""

    def __init__(
        self,
        image: bytes | bytearray,
        fmt: InstructionFormat,
        cache: InstructionCache,
        iq_size: int,
        iqb_size: int,
        entry_point: int,
        next_seq,
        true_prefetch: bool = True,
        predecode: PredecodedImage | None = None,
        tracer: Tracer | None = None,
        clock: ProgressClock | None = None,
    ):
        line_size = cache.line_size
        if iqb_size < line_size:
            raise ValueError(
                f"IQB ({iqb_size} bytes) must hold a full cache line ({line_size})"
            )
        if iq_size < 4:
            raise ValueError("IQ must hold at least one instruction (4 bytes)")
        self._install_decoder(image, fmt, predecode)
        self.cache = cache
        self.iq_size = iq_size
        self.iqb_size = iqb_size
        self.line_size = line_size
        self.true_prefetch = true_prefetch
        self._next_seq = next_seq
        self.stats = FetchStats()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock if clock is not None else ProgressClock()

        # Instruction queue: decoded (pc, instruction, size) entries.
        self._iq: deque[tuple[int, Instruction, int]] = deque()
        self._iq_bytes = 0
        self._iq_next_pc = entry_point

        # Instruction queue buffer: one line's worth of stream bytes.
        self._iqb_loaded = False
        self._iqb_base = 0  #: line-aligned base address
        self._iqb_read_pc = 0  #: next byte to hand to the IQ
        self._iqb_valid_end = 0  #: bytes [base, valid_end) have arrived

        # Off-chip fetch in progress (created at miss, offered until
        # accepted, delivering in chunks until complete).
        self._request: MemoryRequest | None = None
        self._request_accepted = False
        self._request_discarded = False  #: chunks still fill the cache only

        # A two-parcel instruction whose head parcel sat at the end of
        # the previous line (parcel format only).  The hardware keeps the
        # head parcel in a latch; the instruction enters the IQ once the
        # next line's leading bytes arrive.
        self._span_pc: int | None = None

        self._branch: _PendingBranch | None = None

    # ------------------------------------------------------------------
    # Cycle phases
    # ------------------------------------------------------------------
    def update(self, now: int) -> None:
        self._promote_if_starving()
        self._advance(now)

    def post_issue(self, now: int) -> None:
        self._advance(now)

    def _advance(self, now: int) -> None:
        self._transfer_to_iq()
        if not self._halted:
            self._choose_fill(now)
        self._transfer_to_iq()

    def _promote_if_starving(self) -> None:
        request = self._request
        if (
            request is not None
            and not self._request_discarded
            and not request.demand
            and not self._iq
        ):
            request.promote_to_demand()
            self._clock.ticks += 1
            self.stats.prefetch_promotions += 1
            if self._tracer.enabled:
                self._tracer.emit("fetch", "promote", seq=request.seq)

    # ------------------------------------------------------------------
    # compiled-kernel lowering (repro.core.compiled)
    # ------------------------------------------------------------------
    # The lowered phases open-code :meth:`_transfer_to_iq` and the
    # :meth:`_choose_fill` decision with ``line_size``/``iq_size`` as
    # literals.  The cache-resident arm of :meth:`_start_fill` is also
    # inlined, memoizing positive :meth:`InstructionCache.probe` answers
    # per residency epoch (every ``fill``/``invalidate_all`` bumps the
    # cache's ``_epoch``, so probe answers are constant while it is
    # unchanged, and ``probe`` itself is side-effect free, so a memo miss
    # simply re-probes).  Off-chip fills
    # drop to the bound :meth:`_start_fill`, which re-checks everything.

    @classmethod
    def _emit_predecode_lookup(cls, ctx, pc: str) -> None:
        """``t_entry = (instruction, size) | None`` for ``pc``.

        Mirrors ``self.predecode.at(pc)``: the table answers directly,
        an unseen pc decodes (and caches) through the bound method, and
        invalid bytes — ``None`` in the table, :class:`DecodeError` from
        the method — normalize to ``t_entry = None``.
        """
        ctx.line(f"t_entry = pd_table.get({pc}, False)")
        with ctx.block("if t_entry is False:"):
            with ctx.block("try:"):
                ctx.line(f"t_entry = frontend_predecode_at({pc})")
            with ctx.block("except DecodeError:"):
                ctx.line("t_entry = None")

    @classmethod
    def _emit_transfer_guard(cls, ctx) -> None:
        """Inline :meth:`_transfer_to_iq` behind its folded early-outs."""
        line = ctx.spec.line_size
        iq_cap = ctx.spec.pipe_iq_size
        with ctx.block(
            "if not pipe_iq and frontend._iqb_loaded "
            f"and frontend._iqb_read_pc < frontend._iqb_base + {line}:"
        ):
            ctx.line("t_moved = 0")
            ctx.line(f"t_line_end = frontend._iqb_base + {line}")
            ctx.line("t_span = frontend._span_pc")
            ctx.line("t_ok = True")
            with ctx.block("if t_span is not None:"):
                # the latched head parcel completes only once the IQB
                # holds the successor line and the tail bytes arrived
                with ctx.block(
                    "if frontend._iqb_base != "
                    f"(t_span + 2) - ((t_span + 2) % {line}):"
                ):
                    ctx.line("t_ok = False")
                with ctx.block("else:"):
                    cls._emit_predecode_lookup(ctx, "t_span")
                    with ctx.block(
                        "if t_entry is None "
                        "or frontend._iqb_valid_end < t_span + t_entry[1]:"
                    ):
                        ctx.line("t_ok = False")
                    with ctx.block("else:"):
                        ctx.line("t_size = t_entry[1]")
                        ctx.line("pipe_iq.append((t_span, t_entry[0], t_size))")
                        ctx.line("pipe_clock.ticks += 1")
                        ctx.line("t_moved = t_size")
                        ctx.line("frontend._iq_next_pc = t_span + t_size")
                        ctx.line("frontend._iqb_read_pc = t_span + t_size")
                        ctx.line("frontend._span_pc = None")
                        if ctx.spec.traced:
                            ctx.line(
                                'tracer_emit("iq", "push", pc=t_span, '
                                "depth=len(pipe_iq), bytes=t_moved)"
                            )
            with ctx.block("elif frontend._iqb_read_pc != frontend._iq_next_pc:"):
                ctx.line("t_ok = False")
            with ctx.block("if t_ok:"):
                with ctx.block("while True:"):
                    ctx.line("t_pc = frontend._iq_next_pc")
                    with ctx.block(
                        "if t_pc >= t_line_end "
                        "or t_pc >= frontend._iqb_valid_end:"
                    ):
                        ctx.line("break")
                    cls._emit_predecode_lookup(ctx, "t_pc")
                    with ctx.block("if t_entry is None:"):
                        ctx.line("break")
                    ctx.line("t_size = t_entry[1]")
                    with ctx.block("if t_pc + t_size > t_line_end:"):
                        with ctx.block(
                            "if t_moved == 0 "
                            "and frontend._iqb_valid_end >= t_line_end:"
                        ):
                            ctx.line("frontend._span_pc = t_pc")
                            ctx.line("frontend._iqb_read_pc = t_line_end")
                            ctx.line("pipe_clock.ticks += 1")
                        ctx.line("break")
                    with ctx.block(
                        "if t_pc + t_size > frontend._iqb_valid_end:"
                    ):
                        ctx.line("break")
                    with ctx.block(f"if t_moved + t_size > {iq_cap}:"):
                        ctx.line("break")
                    ctx.line("pipe_iq.append((t_pc, t_entry[0], t_size))")
                    ctx.line("pipe_clock.ticks += 1")
                    ctx.line("t_moved += t_size")
                    ctx.line("frontend._iq_next_pc = t_pc + t_size")
                    ctx.line("frontend._iqb_read_pc = t_pc + t_size")
                    if ctx.spec.traced:
                        ctx.line(
                            'tracer_emit("iq", "push", pc=t_pc, '
                            "depth=len(pipe_iq), bytes=t_moved)"
                        )
                # the IQ was empty on entry, so the byte recount is the
                # bytes moved (reference: sum over the IQ entries)
                ctx.line("frontend._iq_bytes = t_moved")

    @classmethod
    def _emit_start_fill(cls, ctx, start: str) -> None:
        """Inline :meth:`_start_fill`'s cache-resident arm for ``start``.

        Positive probe answers memoize per residency epoch; anything
        off-chip (or epoch-stale) falls back to the bound method, whose
        own probe is side-effect free.
        """
        line = ctx.spec.line_size
        ctx.line(f"t_start = {start}")
        ctx.line(f"t_line = t_start - (t_start % {line})")
        with ctx.block(
            "if probe_memo.get(t_line) == icache_unit._epoch "
            f"or cache_probe(t_line, {line}):"
        ):
            ctx.line("probe_memo[t_line] = icache_unit._epoch")
            ctx.line("icache_stats.hits += 1")
            if ctx.spec.traced:
                ctx.line('tracer_emit("icache", "hit", addr=t_line)')
            ctx.line("pipe_clock.ticks += 1")
            ctx.line("frontend._iqb_loaded = True")
            ctx.line("frontend._iqb_base = t_line")
            ctx.line("frontend._iqb_read_pc = t_start")
            ctx.line(f"frontend._iqb_valid_end = t_line + {line}")
            if ctx.spec.traced:
                ctx.line(
                    'tracer_emit("iqb", "assign", base=t_line, source="cache")'
                )
        with ctx.block("else:"):
            ctx.line("frontend_start_fill(t_start, now)")

    @classmethod
    def _emit_advance(cls, ctx) -> None:
        line = ctx.spec.line_size
        ctx.need(
            "frontend",
            "pipe_iq",
            "pipe_clock",
            "pd_table",
            "probe_memo",
            "icache_unit",
            "icache_stats",
            "cache_probe",
            "frontend_predecode_at",
            "frontend_start_fill",
        )
        cls._emit_transfer_guard(ctx)
        with ctx.block("if not frontend._halted:"):
            with ctx.block(
                "if frontend._request is None or frontend._request_discarded:"
            ):
                ctx.line("branch = frontend._branch")
                with ctx.block(
                    "if branch is not None and branch.resolved and branch.taken "
                    "and frontend._iq_next_pc >= branch.delay_end_pc:"
                ):
                    # redirect the IQB to the target line unless it
                    # already covers the stream there
                    ctx.line("t_target = branch.target")
                    with ctx.block(
                        "if not (frontend._iqb_loaded and frontend._iqb_base "
                        f"== t_target - (t_target % {line}) "
                        "and frontend._iqb_read_pc <= t_target):"
                    ):
                        cls._emit_start_fill(ctx, "t_target")
                with ctx.block(
                    "elif not frontend._iqb_loaded "
                    f"or frontend._iqb_read_pc >= frontend._iqb_base + {line}:"
                ):
                    ctx.line("t_span = frontend._span_pc")
                    with ctx.block("if t_span is not None:"):
                        # fetch the successor line holding the latched
                        # instruction's tail parcel
                        ctx.line(
                            f"t_next = t_span - (t_span % {line}) + {line}"
                        )
                        with ctx.block(
                            "if frontend._iqb_base != t_next "
                            "or not frontend._iqb_loaded:"
                        ):
                            cls._emit_start_fill(ctx, "t_next")
                    with ctx.block("else:"):
                        cls._emit_start_fill(ctx, "frontend._iq_next_pc")
        cls._emit_transfer_guard(ctx)

    @classmethod
    def emit_compiled_update(cls, ctx) -> None:
        ctx.need("frontend", "pipe_iq", "frontend_promote_starving")
        ctx.line("f_req = frontend._request")
        with ctx.block(
            "if f_req is not None and not frontend._request_discarded "
            "and not f_req.demand and not pipe_iq:"
        ):
            ctx.line("frontend_promote_starving()")
        cls._emit_advance(ctx)

    @classmethod
    def emit_compiled_post_issue(cls, ctx) -> None:
        cls._emit_advance(ctx)

    @classmethod
    def emit_compiled_next_instruction(cls, ctx) -> None:
        ctx.need("pipe_iq")
        ctx.line("fetched = pipe_iq[0] if pipe_iq else None")

    @classmethod
    def emit_compiled_consume(cls, ctx) -> None:
        """Inline :meth:`consume`; ``pc``/``size`` are in scope (the
        popped entry is exactly the issued ``fetched`` tuple)."""
        ctx.need("frontend", "pipe_iq", "fe_stats")
        ctx.line("pipe_iq.popleft()")
        ctx.line("frontend._iq_bytes -= size")
        ctx.line("fe_stats.instructions_supplied += 1")
        if ctx.spec.traced:
            ctx.line(
                'tracer_emit("iq", "pop", pc=pc, depth=len(pipe_iq), '
                "bytes=frontend._iq_bytes)"
            )

    # ------------------------------------------------------------------
    # IQB -> IQ transfer
    # ------------------------------------------------------------------
    @property
    def _iqb_exhausted(self) -> bool:
        """All of the IQB's line has been consumed (or nothing loaded)."""
        return not self._iqb_loaded or (
            self._iqb_read_pc >= self._iqb_base + self.line_size
        )

    def _transfer_to_iq(self) -> None:
        """Refill an *empty* IQ with whole instructions from the IQB."""
        if self._iq or self._iqb_exhausted:
            return
        moved = 0
        line_end = self._iqb_base + self.line_size
        if self._span_pc is not None:
            # The latched head parcel completes once the new line's first
            # bytes arrive: the IQB must now hold the successor line.
            pc = self._span_pc
            if self._iqb_base != self.cache.line_address(pc + 2):
                return
            try:
                instruction, size = self.predecode.at(pc)
            except DecodeError:
                return
            if self._iqb_valid_end < pc + size:
                return  # tail parcel has not arrived yet
            self._iq.append((pc, instruction, size))
            self._clock.ticks += 1
            moved = size
            self._iq_next_pc = pc + size
            self._iqb_read_pc = pc + size
            self._span_pc = None
            if self._tracer.enabled:
                self._tracer.emit("iq", "push", pc=pc, depth=len(self._iq), bytes=moved)
        elif self._iqb_read_pc != self._iq_next_pc:
            return  # IQB holds a different part of the stream (redirect soon)
        while True:
            pc = self._iq_next_pc
            if pc >= line_end or pc >= self._iqb_valid_end:
                break
            try:
                instruction, size = self.predecode.at(pc)
            except DecodeError:
                # Speculative bytes past the code (e.g. prefetch ran into
                # the data segment).  They can never issue; stop staging.
                break
            if pc + size > line_end:
                # The head parcel is on chip; latch it and consume the
                # line so the fill logic fetches the successor.
                if moved == 0 and self._iqb_valid_end >= line_end:
                    self._span_pc = pc
                    self._iqb_read_pc = line_end
                    self._clock.ticks += 1
                break
            if pc + size > self._iqb_valid_end:
                break  # tail parcel has not arrived yet
            if moved + size > self.iq_size:
                break
            self._iq.append((pc, instruction, size))
            self._clock.ticks += 1
            moved += size
            self._iq_next_pc = pc + size
            self._iqb_read_pc = pc + size
            if self._tracer.enabled:
                self._tracer.emit("iq", "push", pc=pc, depth=len(self._iq), bytes=moved)
        self._iq_bytes = sum(entry[2] for entry in self._iq)

    # ------------------------------------------------------------------
    # Fill selection
    # ------------------------------------------------------------------
    @property
    def _fill_in_progress(self) -> bool:
        """An off-chip fill is still feeding the IQB."""
        return self._request is not None and not self._request_discarded

    def _choose_fill(self, now: int) -> None:
        if self._fill_in_progress:
            return  # a fill is already on its way to the IQB
        branch = self._branch
        if (
            branch is not None
            and branch.resolved
            and branch.taken
            and self._iq_next_pc >= branch.delay_end_pc
        ):
            # All guaranteed instructions have passed into the IQ and the
            # PBR has resolved taken: redirect the IQB to the target line.
            if not self._iqb_covers_stream_at(branch.target):
                self._start_fill(branch.target, now)
            return
        if self._iqb_exhausted:
            if self._span_pc is not None:
                # Fetch the successor line holding the latched
                # instruction's tail parcel.
                next_line = self.cache.line_address(self._span_pc) + self.line_size
                if self._iqb_base != next_line or not self._iqb_loaded:
                    self._start_fill(next_line, now)
                return
            self._start_fill(self._iq_next_pc, now)

    def _iqb_covers_stream_at(self, pc: int) -> bool:
        """Is the IQB (possibly still filling) assigned to ``pc``'s line
        with its read pointer at or before ``pc``?"""
        return (
            self._iqb_loaded
            and self._iqb_base == self.cache.line_address(pc)
            and self._iqb_read_pc <= pc
        )

    def _start_fill(self, start_pc: int, now: int) -> None:
        line_addr = self.cache.line_address(start_pc)
        if self.cache.probe(line_addr, self.line_size):
            self.cache.record_hit(line_addr)
            self._clock.ticks += 1
            self._iqb_loaded = True
            self._iqb_base = line_addr
            self._iqb_read_pc = start_pc
            self._iqb_valid_end = line_addr + self.line_size
            if self._tracer.enabled:
                self._tracer.emit("iqb", "assign", base=line_addr, source="cache")
            return
        # Off-chip.  Under the original PIPE policy the request may only
        # be made if the line is guaranteed to contain an instruction that
        # will execute; the presented results use true prefetch.
        if not self.true_prefetch and line_addr >= self._guaranteed_end():
            return  # retry next cycle; no statistics, nothing committed
        demand = not self._iq
        request = MemoryRequest(
            kind=RequestKind.IFETCH,
            address=line_addr,
            size=self.line_size,
            seq=self._next_seq(),
            demand=demand,
        )
        self._clock.ticks += 1
        self.cache.record_miss(line_addr, seq=request.seq)
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
                addr=line_addr,
                bytes=self.line_size,
                demand=demand,
                seq=request.seq,
            )
            self._tracer.emit("iqb", "assign", base=line_addr, source="memory")
        self._request = request
        self._request_accepted = False
        self._request_discarded = False
        self._iqb_loaded = True
        self._iqb_base = line_addr
        self._iqb_read_pc = start_pc
        self._iqb_valid_end = line_addr  # grows as chunks arrive

    def _guaranteed_end(self) -> int:
        """First byte address past the guaranteed sequential stream.

        With a PBR pending (issued but unresolved, or resolved taken),
        only its delay slots are guaranteed.  Otherwise the control logic
        scans the IQ (one opcode bit per entry) for the first PBR; if none
        is present the sequential stream is unbounded as far as the logic
        can see.
        """
        if self._branch is not None:
            return self._branch.delay_end_pc
        for pc, instruction, size in self._iq:
            if instruction.is_branch:
                return self.predecode.delay_region_end(pc + size, instruction.delay)
        return _FAR_FUTURE

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

    def _make_chunk_handler(self, request: MemoryRequest):
        def handler(offset: int, nbytes: int, now: int) -> None:
            # Arriving bytes always fill the cache; they extend the IQB
            # only if this request is still the one feeding it.
            self.cache.fill(request.address + offset, nbytes)
            if self._request is request and not self._request_discarded:
                self._iqb_valid_end = request.address + offset + nbytes

        return handler

    def _make_complete_handler(self, request: MemoryRequest):
        def handler(now: int) -> None:
            # A redirect-discarded request already traced its "cancel";
            # the line still drains into the cache, but the request's
            # terminal event must stay unique.
            discarded = self._request is request and self._request_discarded
            if self._tracer.enabled and not discarded:
                self._tracer.emit("fetch", "complete", seq=request.seq)
            if self._request is request:
                self._request = None
                self._request_discarded = False

        return handler

    # ------------------------------------------------------------------
    # Decoder interface
    # ------------------------------------------------------------------
    def next_instruction(self) -> tuple[int, Instruction, int] | None:
        if self._iq:
            return self._iq[0]
        return None

    def consume(self, now: int) -> None:
        pc, _instruction, size = self._iq.popleft()
        self._iq_bytes -= size
        self.stats.instructions_supplied += 1
        if self._tracer.enabled:
            self._tracer.emit(
                "iq", "pop", pc=pc, depth=len(self._iq), bytes=self._iq_bytes
            )

    # ------------------------------------------------------------------
    # Branch protocol
    # ------------------------------------------------------------------
    def note_branch(self, pbr_pc: int, next_pc: int, delay: int, target: int) -> None:
        delay_end = self.predecode.delay_region_end(next_pc, delay)
        self._branch = _PendingBranch(target=target, delay_end_pc=delay_end)

    def branch_resolved(self, taken: bool) -> None:
        if self._branch is None:
            return
        if taken:
            self._branch.resolved = True
            self._branch.taken = True
        else:
            self._branch = None  # sequential flow simply continues

    def redirect(self, target: int, now: int) -> None:
        self.stats.redirects += 1
        self.stats.squashed_instructions += len(self._iq)
        if self._tracer.enabled:
            self._tracer.emit("fetch", "redirect", target=target, squashed=len(self._iq))
        self._iq.clear()
        self._iq_bytes = 0
        self._iq_next_pc = target
        self._branch = None
        self._span_pc = None  # a latched wrong-path parcel is squashed too
        if self._iqb_loaded and self._iqb_base == self.cache.line_address(target):
            # The IQB already holds (or is receiving) the target line —
            # point the read pointer at the target instruction.
            self._iqb_read_pc = target
        else:
            self._iqb_loaded = False
            if self._request is not None:
                # Let the in-flight line finish into the cache, but the
                # IQB no longer wants it.
                self._request_discarded = True
                if self._tracer.enabled:
                    self._tracer.emit(
                        "fetch", "cancel", seq=self._request.seq, reason="redirect"
                    )
        # Give the decoder a chance to issue from the target this cycle.
        self._advance(now)

    # ------------------------------------------------------------------
    # Progress reporting
    # ------------------------------------------------------------------
    def progress_signature(self) -> tuple:
        return super().progress_signature() + (
            len(self._iq),
            self._iq_next_pc,
            self._iqb_read_pc,
            self._iqb_valid_end,
        )

    def state_signature(self, now: int, base_seq: int) -> tuple:
        """Full fetch-pipeline fingerprint: IQ contents, IQB window,
        outstanding request, latched span parcel, and pending PBR.

        IQ entries reduce to ``(pc, size)`` — the image is immutable, so
        the pc determines the instruction."""
        branch = self._branch
        base = self._request_signature(base_seq)
        return (
            self._halted,
            tuple((pc, size) for pc, _instruction, size in self._iq),
            self._iq_bytes,
            self._iq_next_pc,
            self._iqb_loaded,
            self._iqb_base,
            self._iqb_read_pc,
            self._iqb_valid_end,
            None if base is None else base + (self._request_discarded,),
            self._span_pc,
            None
            if branch is None
            else (branch.target, branch.delay_end_pc, branch.resolved, branch.taken),
        )

    def describe_state(self) -> str:
        return (
            f"{super().describe_state()} IQ={len(self._iq)} entries "
            f"next_pc={self._iq_next_pc:#x} IQB=[{self._iqb_base:#x},"
            f"{self._iqb_valid_end:#x}) loaded={self._iqb_loaded}"
        )

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    @property
    def iq_occupancy_bytes(self) -> int:
        return self._iq_bytes

    @property
    def iqb_available_bytes(self) -> int:
        if not self._iqb_loaded:
            return 0
        return max(0, self._iqb_valid_end - self._iqb_read_pc)
