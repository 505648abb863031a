"""The conventional cache with Hill's *always-prefetch* strategy.

Paper section 4.1: "a cache line is composed of a number of sub-blocks,
each block with its own individual valid bit.  A PC is presented to the
cache at the beginning of each clock cycle and a tag lookup and cache
array lookup of that PC can both be completed before the end of that
cycle.  The always-prefetch strategy prefetches an instruction from the
next sequential location on each instruction reference, even if this
address maps into the next cache line.  Memory requests are made for only
one instruction at a time, and a new one cannot begin until the previous
one finishes.  Data fetches have priority over both instruction fetches
and prefetches, while instruction fetches have priority over prefetches."

Modelling choices:

* one instruction = 4 bytes in the fixed-32 format the presented results
  use; a request transfers one input-bus-width block aligned to the bus
  width, so an 8-byte bus fills two sub-blocks per request — this is what
  makes the conventional cache's performance sensitive to bus width;
* exactly one outstanding request (demand or prefetch) at a time;
* a prefetch in flight is promoted to demand if the PC catches up to it;
* there is no instruction buffer: the decoder reads the cache array
  directly, so issue requires the PC's bytes to be resident.
"""

from __future__ import annotations

import enum

from ..core.scheduler import ProgressClock
from ..core.trace import NULL_TRACER, Tracer
from ..isa.encoding import InstructionFormat
from ..isa.instruction import Instruction
from ..isa.predecode import PredecodedImage
from ..memory.requests import MemoryRequest, RequestKind
from .base import FetchStats, FetchUnit
from .icache import InstructionCache

__all__ = ["ConventionalFetchUnit", "PrefetchPolicy"]


class PrefetchPolicy(enum.Enum):
    """The prefetch strategies of Hill's study (paper section 4.1).

    The paper adopts ``ALWAYS`` as the conventional baseline because it
    "consistently provided the best performance" in Hill's comparison;
    the other members let us re-verify that finding (see the Hill-policy
    experiment):

    * ``ALWAYS`` — prefetch the next sequential location on *every*
      instruction reference, even across cache lines;
    * ``TAGGED`` — prefetch the next block the first time a block is
      referenced after being fetched (Smith's tagged prefetch: one tag
      bit per block, cleared on fill);
    * ``ON_MISS`` — a demand miss also schedules a prefetch of the next
      sequential block;
    * ``NONE`` — demand fetching only.
    """

    ALWAYS = "always"
    TAGGED = "tagged"
    ON_MISS = "on_miss"
    NONE = "none"


class ConventionalFetchUnit(FetchUnit):
    """Direct-mapped sub-blocked cache with a selectable prefetch policy."""

    def __init__(
        self,
        image: bytes | bytearray,
        fmt: InstructionFormat,
        cache: InstructionCache,
        input_bus_width: int,
        entry_point: int,
        next_seq,
        prefetch_policy: PrefetchPolicy = PrefetchPolicy.ALWAYS,
        predecode: PredecodedImage | None = None,
        tracer: Tracer | None = None,
        clock: ProgressClock | None = None,
    ):
        self._install_decoder(image, fmt, predecode)
        self.cache = cache
        self.block_size = input_bus_width  #: bytes returned per request
        self.prefetch_policy = prefetch_policy
        self._next_seq = next_seq
        self.stats = FetchStats()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock if clock is not None else ProgressClock()

        self._pc = entry_point
        self._request: MemoryRequest | None = None
        self._request_accepted = False
        self._request_is_demand = False
        #: ON_MISS: block address to prefetch once the demand completes
        self._miss_prefetch_block: int | None = None
        #: TAGGED: blocks already referenced since their last fill
        self._tagged_blocks: set[int] = set()

    # ------------------------------------------------------------------
    # Cycle phases
    # ------------------------------------------------------------------
    def update(self, now: int) -> None:
        self._maybe_promote()
        self._maybe_request(now)

    def post_issue(self, now: int) -> None:
        self._maybe_promote()
        self._maybe_request(now)

    def _block_address(self, address: int) -> int:
        return address - (address % self.block_size)

    # ------------------------------------------------------------------
    # compiled-kernel lowering (repro.core.compiled)
    # ------------------------------------------------------------------
    # Both per-cycle phases are ``_maybe_promote(); _maybe_request(now)``.
    # The lowered form folds the helpers' early-out guards and memoizes
    # the *no-op* outcome of ``_maybe_request`` per ``(pc, cache epoch)``:
    # when the call at a given pc issued no request, every later call at
    # the same pc is a provable no-op until the cache mutates (every
    # mutation bumps ``InstructionCache._epoch``, so residency answers
    # are constant per epoch; TAGGED's tag-add is idempotent, ON_MISS's
    # deferred block can only change via a request whose completion bumps
    # the epoch).  ``next_instruction`` is pure in the same pair and is
    # memoized the same way.

    @classmethod
    def _emit_phase(cls, ctx) -> None:
        ctx.need(
            "frontend", "icache_unit", "fe_memo", "frontend_maybe_promote",
            "frontend_maybe_request",
        )
        ctx.line("f_req = frontend._request")
        with ctx.block("if f_req is None:"):
            with ctx.block("if not frontend._halted:"):
                ctx.line("f_pc = frontend._pc")
                with ctx.block("if fe_memo.get(f_pc) != icache_unit._epoch:"):
                    ctx.line("frontend_maybe_request(now)")
                    with ctx.block("if frontend._request is None:"):
                        ctx.line("fe_memo[f_pc] = icache_unit._epoch")
        with ctx.block("elif not f_req.demand:"):
            ctx.line("frontend_maybe_promote()")

    @classmethod
    def emit_compiled_update(cls, ctx) -> None:
        cls._emit_phase(ctx)

    @classmethod
    def emit_compiled_post_issue(cls, ctx) -> None:
        cls._emit_phase(ctx)

    @classmethod
    def emit_compiled_next_instruction(cls, ctx) -> None:
        """``fetched = <next_instruction()>`` memoized per (pc, epoch)."""
        ctx.need("frontend", "icache_unit", "res_memo", "frontend_next_instruction")
        ctx.line("f_pc = frontend._pc")
        ctx.line("entry = res_memo.get(f_pc)")
        with ctx.block("if entry is not None and entry[0] == icache_unit._epoch:"):
            ctx.line("fetched = entry[1]")
        with ctx.block("else:"):
            ctx.line("fetched = frontend_next_instruction()")
            ctx.line("res_memo[f_pc] = (icache_unit._epoch, fetched)")

    @classmethod
    def emit_compiled_consume(cls, ctx) -> None:
        """Inline :meth:`consume`; ``pc``/``size`` are in scope from the
        issued instruction, so the predecode lookup is already done."""
        ctx.need("frontend", "fe_stats", "icache_stats")
        ctx.line("icache_stats.hits += 1")
        ctx.line("frontend._pc = pc + size")
        ctx.line("fe_stats.instructions_supplied += 1")

    def _current_instruction_resident(self) -> bool:
        if not self.cache.probe(self._pc, 2):
            return False
        _instruction, size = self.predecode.at(self._pc)
        return self.cache.probe(self._pc, size)

    def _maybe_promote(self) -> None:
        """Promote an in-flight prefetch the demand PC has caught up to."""
        request = self._request
        if request is None or request.demand:
            return
        block = self._block_address(self._pc)
        if request.address == block and not self._current_instruction_resident():
            request.promote_to_demand()
            self._clock.ticks += 1
            self._request_is_demand = True
            self.stats.prefetch_promotions += 1
            if self._tracer.enabled:
                self._tracer.emit("fetch", "promote", seq=request.seq)

    def _maybe_request(self, now: int) -> None:
        if self._halted or self._request is not None:
            return  # at most one outstanding request (paper section 4.1)
        # Demand fetch of the current PC's block if it misses.
        if not self._current_instruction_resident():
            # The miss may be on the instruction's tail parcel.
            probe_addr = self._pc
            if self.cache.probe(self._pc, 2):
                _instr, size = self.predecode.at(self._pc)
                position = self._pc
                while position < self._pc + size and self.cache.probe(position, 2):
                    position += 2
                probe_addr = position
            block = self._block_address(probe_addr)
            if self.prefetch_policy is PrefetchPolicy.ON_MISS:
                self._miss_prefetch_block = block + self.block_size
            self._issue_request(block, demand=True, now=now, miss_addr=probe_addr)
            return
        prefetch_block = self._choose_prefetch()
        if prefetch_block is not None:
            self._issue_request(prefetch_block, demand=False, now=now)

    def _prefetchable(self, block: int) -> bool:
        """Worth fetching: in range and not already (partially) resident."""
        if block + 2 > len(self.image):
            return False
        probe_len = min(self.block_size, len(self.image) - block)
        probe_len -= probe_len % 2
        return probe_len >= 2 and not self.cache.probe(block, probe_len)

    def _choose_prefetch(self) -> int | None:
        """Pick this cycle's prefetch target per the configured policy.

        Called only when the current instruction hits in the cache.
        """
        policy = self.prefetch_policy
        if policy is PrefetchPolicy.NONE:
            return None
        if policy is PrefetchPolicy.ON_MISS:
            block = self._miss_prefetch_block
            if block is not None and self._prefetchable(block):
                self._miss_prefetch_block = None
                return block
            return None
        if policy is PrefetchPolicy.TAGGED:
            # First reference to a block prefetches its successor block.
            current = self._block_address(self._pc)
            if current in self._tagged_blocks:
                return None
            self._tagged_blocks.add(current)
            candidate = current + self.block_size
        else:  # ALWAYS: the next sequential location, even across lines
            _instruction, size = self.predecode.at(self._pc)
            candidate = self._block_address(self._pc + size)
        if self._prefetchable(candidate):
            return candidate
        return None

    def _issue_request(
        self,
        block_address: int,
        demand: bool,
        now: int,
        miss_addr: int | None = None,
    ) -> None:
        request = MemoryRequest(
            kind=RequestKind.IFETCH,
            address=block_address,
            size=self.block_size,
            seq=self._next_seq(),
            demand=demand,
        )
        self._clock.ticks += 1
        if miss_addr is not None:
            self.cache.record_miss(miss_addr, seq=request.seq)
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
                addr=block_address,
                bytes=self.block_size,
                demand=demand,
                seq=request.seq,
            )
        self._request = request
        self._request_accepted = False
        self._request_is_demand = demand

    def _make_chunk_handler(self, request: MemoryRequest):
        def handler(offset: int, nbytes: int, now: int) -> None:
            self.cache.fill(request.address + offset, nbytes)
            # A freshly-filled block is unreferenced again (tagged prefetch).
            self._tagged_blocks.discard(self._block_address(request.address + offset))

        return handler

    def _make_complete_handler(self, request: MemoryRequest):
        def handler(now: int) -> None:
            if self._tracer.enabled:
                self._tracer.emit("fetch", "complete", seq=request.seq)
            if self._request is request:
                self._request = None

        return handler

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
    def next_instruction(self) -> tuple[int, Instruction, int] | None:
        if not self._current_instruction_resident():
            return None
        instruction, size = self.predecode.at(self._pc)
        return (self._pc, instruction, size)

    def consume(self, now: int) -> None:
        _instruction, size = self.predecode.at(self._pc)
        self.cache.record_hit(self._pc)  # each issued instruction came from the array
        self._pc += size
        self.stats.instructions_supplied += 1

    # ------------------------------------------------------------------
    # Branch protocol — the conventional frontend has no lookahead; it
    # simply follows the PC, which the back-end changes at the redirect.
    # ------------------------------------------------------------------
    def note_branch(self, pbr_pc: int, next_pc: int, delay: int, target: int) -> None:
        pass

    def branch_resolved(self, taken: bool) -> None:
        pass

    def redirect(self, target: int, now: int) -> None:
        self.stats.redirects += 1
        if self._tracer.enabled:
            self._tracer.emit("fetch", "redirect", target=target, squashed=0)
        self._pc = target

    # ------------------------------------------------------------------
    # Replay fingerprint and diagnostics
    # ------------------------------------------------------------------
    def state_signature(self, now: int, base_seq: int) -> tuple:
        """PC, outstanding request, and prefetch-policy bookkeeping."""
        return (
            self._halted,
            self._pc,
            self._request_signature(base_seq),
            self._request_is_demand,
            self._miss_prefetch_block,
            frozenset(self._tagged_blocks),
        )

    def describe_state(self) -> str:
        return (
            f"{super().describe_state()} pc={self._pc:#x} "
            f"outstanding={'yes' if self._request is not None else 'no'}"
        )
