"""The fetch-unit interface both strategies implement.

The cycle-level simulator drives a fetch unit through this protocol each
cycle, in this order:

1. :meth:`FetchUnit.update` — *pre-issue*: react to data that arrived on
   the input bus this cycle (promote starving prefetches to demand,
   move arrived bytes toward the decoder) so the back-end can issue in
   the same cycle the data lands;
2. the back-end calls :meth:`next_instruction` / :meth:`consume` (and
   possibly :meth:`note_branch` / :meth:`branch_resolved` /
   :meth:`redirect`);
3. :meth:`post_issue` — start new cache refills and queue transfers so
   the next cycle's instruction is staged;
4. the memory system polls :meth:`poll_requests` during output-bus
   arbitration.

Fetch units also expose per-strategy statistics via :attr:`FetchStats`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from ..core.scheduler import IDLE
from ..isa.encoding import InstructionFormat, decode_instruction
from ..isa.instruction import Instruction
from ..isa.predecode import PredecodedImage
from ..memory.requests import MemoryRequest

__all__ = ["FetchStats", "FetchUnit", "decode_at", "delay_region_end"]


@dataclass
class FetchStats:
    """Frontend-side statistics common to both strategies."""

    instructions_supplied: int = 0
    demand_requests: int = 0
    prefetch_requests: int = 0
    prefetch_promotions: int = 0  #: prefetches promoted to demand in flight
    redirects: int = 0
    squashed_instructions: int = 0  #: IQ entries dropped at redirects


def decode_at(image: bytes | bytearray, fmt: InstructionFormat, pc: int):
    """Decode the instruction at ``pc`` → ``(instruction, size)``."""
    return decode_instruction(image, pc, fmt)


def delay_region_end(
    image: bytes | bytearray, fmt: InstructionFormat, next_pc: int, delay: int
) -> int:
    """Byte address just past the ``delay`` instructions following a PBR.

    ``next_pc`` is the address of the first delay-slot instruction.  The
    fetch control logic uses this to know how far the *guaranteed*
    sequential stream extends (paper section 4.2).
    """
    pc = next_pc
    for _ in range(delay):
        _instruction, size = decode_instruction(image, pc, fmt)
        pc += size
    return pc


class FetchUnit(abc.ABC):
    """Abstract instruction-fetch frontend."""

    stats: FetchStats
    #: set by :meth:`halt`; no new fetch work may start afterwards
    _halted: bool = False
    #: the outstanding off-chip fetch, if any (subclasses rebind these)
    _request: MemoryRequest | None = None
    _request_accepted: bool = False

    @classmethod
    def emit_compiled_poll(cls, ctx) -> None:
        """Emit the ``poll_requests`` body into a compiled kernel.

        All three shipped frontends share this poll machine verbatim:
        withdraw the outstanding request after HALT, otherwise offer it.
        The kernel only reaches this code when an unaccepted request is
        outstanding (``_request is not None and not _request_accepted``);
        otherwise ``poll_requests`` returns ``[]`` with no side effects,
        and the kernel skips it.
        """
        with ctx.block("if frontend._halted:"):
            if ctx.spec.traced:
                ctx.line(
                    'tracer_emit("fetch", "cancel", '
                    "seq=frontend._request.seq, reason=\"halt\")"
                )
            ctx.line("frontend._request = None")
            ctx.line("f_reqs = ()")
        with ctx.block("else:"):
            ctx.line("f_reqs = (frontend._request,)")

    def _install_decoder(
        self,
        image: bytes | bytearray,
        fmt: InstructionFormat,
        predecode: PredecodedImage | None = None,
    ) -> None:
        """Adopt the program's shared decode table (or build a private one).

        Called from subclass constructors; sets :attr:`image`,
        :attr:`fmt`, and :attr:`predecode`.
        """
        self.image = image
        self.fmt = fmt
        self.predecode = (
            predecode if predecode is not None else PredecodedImage(image, fmt)
        )

    def halt(self) -> None:
        """The back-end issued HALT: stop generating fetch work.

        Requests already accepted by the memory complete naturally; any
        request still waiting for the output bus is withdrawn.
        """
        self._halted = True

    # -- replay protocol ---------------------------------------------------
    def _request_signature(self, base_seq: int) -> tuple | None:
        """Anchor-relative fingerprint of the outstanding fetch request.

        The request's address is included: fetch addresses recur in
        steady-state loops (unlike data addresses, which stride).
        """
        request = self._request
        if request is None:
            return None
        return (
            request.address,
            request.size,
            request.demand,
            request.seq - base_seq,
            self._request_accepted,
            request.delivered_bytes,
        )

    def replay_shift(self, cycles: int, seqs: int) -> None:
        """Advance the unaccepted request's seq after a replayed span.

        An *accepted* request lives in the external memory's in-flight
        set and is shifted there; shifting it here too would double-count.
        """
        request = self._request
        if request is not None and not self._request_accepted:
            request.seq += seqs

    # -- quiescence protocol ----------------------------------------------
    def next_event_cycle(self, now: int) -> int:
        """Earliest future cycle this frontend can make progress on its own.

        Frontends are purely event-woken: every state change is a
        reaction to input-bus data (a delivery tick), an issue/consume,
        a branch resolution, or a redirect — all of which bump the
        shared :class:`~repro.core.scheduler.ProgressClock` at their
        origin.  ``IDLE`` is therefore always a safe (and exact) hint.
        """
        return IDLE

    # -- progress reporting ------------------------------------------------
    def progress_signature(self) -> tuple:
        """Counters that change whenever the frontend makes real progress.

        The simulator folds this into its deadlock-detection signature so
        a frontend-only livelock (nothing issuing, no bus traffic, but
        the frontend still churning) is distinguished from forward
        progress, and so the resulting :class:`DeadlockError` can say
        what the frontend was doing.  Subclasses may extend the tuple
        with strategy-specific state.
        """
        s = self.stats
        return (
            s.instructions_supplied,
            s.demand_requests,
            s.prefetch_requests,
            s.prefetch_promotions,
            s.redirects,
        )

    def describe_state(self) -> str:
        """One-line state summary for deadlock/timeout diagnostics."""
        s = self.stats
        return (
            f"supplied={s.instructions_supplied} demand={s.demand_requests} "
            f"prefetch={s.prefetch_requests} redirects={s.redirects}"
        )

    # -- per-cycle phases ------------------------------------------------
    @abc.abstractmethod
    def update(self, now: int) -> None:
        """Pre-issue phase (after input-bus deliveries)."""

    @abc.abstractmethod
    def post_issue(self, now: int) -> None:
        """Post-issue phase (stage work for the next cycle)."""

    # -- decoder interface -------------------------------------------------
    @abc.abstractmethod
    def next_instruction(self) -> tuple[int, Instruction, int] | None:
        """The instruction ready to issue: ``(pc, instruction, size)``.

        ``None`` means the frontend cannot supply one this cycle.
        """

    @abc.abstractmethod
    def consume(self, now: int) -> None:
        """The back-end issued the instruction from :meth:`next_instruction`."""

    # -- branch protocol ---------------------------------------------------
    @abc.abstractmethod
    def note_branch(self, pbr_pc: int, next_pc: int, delay: int, target: int) -> None:
        """A PBR issued: ``delay`` slots follow; target already known."""

    @abc.abstractmethod
    def branch_resolved(self, taken: bool) -> None:
        """The pending PBR's condition was evaluated."""

    @abc.abstractmethod
    def redirect(self, target: int, now: int) -> None:
        """Issue reached the delay boundary of a taken branch."""

    # -- memory request source ----------------------------------------------
    @abc.abstractmethod
    def poll_requests(self, now: int) -> list[MemoryRequest]:
        """Offer at most one fetch request for output-bus arbitration.

        Returns ``[]`` with no side effects when no unaccepted request
        is outstanding: the compiled kernels skip the call then.
        """

    @abc.abstractmethod
    def notify_accepted(self, request: MemoryRequest, now: int) -> None:
        """A polled request won arbitration this cycle."""
