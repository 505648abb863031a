"""The cycle-level issue engine (pipeline back-end).

The PIPE processor issues at most one instruction per cycle (paper
section 6: "the underlying architecture can issue one instruction per
cycle").  With full forwarding between its two ALU stages, register
dependences never stall a single-issue in-order pipeline, so all stalls
come from the memory side — exactly the effects the paper studies:

* the frontend has no instruction ready (I-fetch starvation);
* a source names r7 and the LDQ head has not arrived (load latency);
* a destination queue (LAQ/SAQ/SDQ) is full (store/load back-pressure);
* a prepare-to-branch has exhausted its delay slots but its condition has
  not resolved yet (branch latency not covered by delay slots);
* a second PBR reaches issue while one is still pending.

PBR timing: the branch register (target) is read at issue; the condition
resolves ``branch_resolution_latency`` cycles later (end of ALU1).  The
``delay`` instructions after the PBR issue unconditionally; when they are
exhausted, issue either continues sequentially (not taken) or redirects
the frontend to the target (taken).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.scheduler import IDLE, ProgressClock
from ..core.trace import NULL_TRACER, Tracer
from ..frontend.base import FetchUnit
from .data_engine import DataQueueEngine
from .executor import execute, queue_effects
from .state import ArchState

__all__ = ["Backend", "StallReason"]


class StallReason:
    """Names for the issue-stall counters."""

    FRONTEND = "frontend_empty"
    LDQ_EMPTY = "ldq_empty"
    LAQ_FULL = "laq_full"
    SAQ_FULL = "saq_full"
    SDQ_FULL = "sdq_full"
    BRANCH_UNRESOLVED = "branch_unresolved"
    BRANCH_OVERLAP = "branch_overlap"

    ALL = (
        FRONTEND,
        LDQ_EMPTY,
        LAQ_FULL,
        SAQ_FULL,
        SDQ_FULL,
        BRANCH_UNRESOLVED,
        BRANCH_OVERLAP,
    )


@dataclass
class _PendingBranch:
    target: int
    taken: bool
    resolve_at: int
    slots_remaining: int
    notified: bool = False


class _BackendEnv:
    """Execution environment wiring the executor to the data engine."""

    def __init__(self, engine: DataQueueEngine):
        self._engine = engine

    def pop_ldq(self) -> int:
        return self._engine.pop_ldq()

    def push_sdq(self, value: int) -> None:
        self._engine.push_sdq(value)

    def push_laq(self, address: int) -> None:
        self._engine.push_laq(address)

    def push_saq(self, address: int) -> None:
        self._engine.push_saq(address)


class Backend:
    """Single-issue, in-order instruction issue with PBR handling."""

    def __init__(
        self,
        frontend: FetchUnit,
        engine: DataQueueEngine,
        branch_resolution_latency: int = 2,
        tracer: Tracer | None = None,
        clock: ProgressClock | None = None,
    ):
        self.frontend = frontend
        self.engine = engine
        self.branch_resolution_latency = branch_resolution_latency
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock if clock is not None else ProgressClock()
        self.state = ArchState()
        self.halted = False
        self.instructions = 0
        self.branches = 0
        self.branches_taken = 0
        #: pc of the most recently issued instruction (cycle attribution)
        self.last_pc: int | None = None
        #: reason of the most recent stall (the skip scheduler charges
        #: every cycle of a quiescent span to this counter)
        self.last_stall_reason: str | None = None
        self.stalls: dict[str, int] = {reason: 0 for reason in StallReason.ALL}
        self._pending: _PendingBranch | None = None
        self._env = _BackendEnv(engine)
        #: replay recording: when a list, every issue appends
        #: ``("i", pc, instruction, outcome)``
        self.issue_log: list | None = None
        #: target of a backward redirect taken this cycle (a loop
        #: backedge); the replay run loop reads and clears it
        self.replay_backedge: int | None = None

    # ------------------------------------------------------------------
    def _stall(self, reason: str) -> None:
        self.stalls[reason] += 1
        self.last_stall_reason = reason
        if self._tracer.enabled:
            self._tracer.emit("backend", "stall", reason=reason)

    def _handle_branch_bookkeeping(self, now: int) -> bool:
        """Resolve/redirect pending branches.  Returns False on a stall."""
        pending = self._pending
        if pending is None:
            return True
        if not pending.notified and now >= pending.resolve_at:
            pending.notified = True
            self._clock.ticks += 1
            self.frontend.branch_resolved(pending.taken)
            if not pending.taken:
                # Sequential flow simply continues; nothing left to do.
                self._pending = None
                return True
        if pending.slots_remaining == 0:
            if now < pending.resolve_at:
                self._stall(StallReason.BRANCH_UNRESOLVED)
                return False
            # Taken (not-taken branches were cleared at notification).
            self._clock.ticks += 1
            target = pending.target
            self.frontend.redirect(target, now)
            self._pending = None
            if self.last_pc is not None and target < self.last_pc:
                self.replay_backedge = target
        return True

    def step(self, now: int) -> bool:
        """Attempt to issue one instruction.  Returns True if one issued."""
        if self.halted:
            return False
        if not self._handle_branch_bookkeeping(now):
            return False
        fetched = self.frontend.next_instruction()
        if fetched is None:
            self._stall(StallReason.FRONTEND)
            return False
        pc, instruction, size = fetched
        if instruction.op.is_branch and self._pending is not None:
            self._stall(StallReason.BRANCH_OVERLAP)
            return False
        effects = queue_effects(instruction)
        if effects.pops_ldq and not self.engine.ldq_has_data():
            self._stall(StallReason.LDQ_EMPTY)
            return False
        if effects.pushes_laq and self.engine.laq_full:
            self._stall(StallReason.LAQ_FULL)
            return False
        if effects.pushes_saq and self.engine.saq_full:
            self._stall(StallReason.SAQ_FULL)
            return False
        if effects.pushes_sdq and self.engine.sdq_full:
            self._stall(StallReason.SDQ_FULL)
            return False

        outcome = execute(instruction, self.state, self._env)
        if self.issue_log is not None:
            self.issue_log.append(("i", pc, instruction, outcome))
        self._clock.ticks += 1
        self.frontend.consume(now)
        self.instructions += 1
        self.last_pc = pc
        if self._tracer.enabled:
            self._tracer.emit("backend", "issue", pc=pc)
        if outcome.halted:
            self.halted = True
            return True
        if outcome.is_branch:
            self.branches += 1
            if outcome.branch_taken:
                self.branches_taken += 1
            if self._tracer.enabled:
                self._tracer.emit(
                    "backend",
                    "branch",
                    pc=pc,
                    taken=outcome.branch_taken,
                    target=outcome.branch_target,
                    delay=outcome.branch_delay,
                )
            self._pending = _PendingBranch(
                target=outcome.branch_target,
                taken=outcome.branch_taken,
                resolve_at=now + self.branch_resolution_latency,
                slots_remaining=outcome.branch_delay,
            )
            self.frontend.note_branch(
                pc, pc + size, outcome.branch_delay, outcome.branch_target
            )
        elif self._pending is not None:
            self._pending.slots_remaining -= 1
        return True

    # ------------------------------------------------------------------
    # compiled-kernel lowering (repro.core.compiled)
    # ------------------------------------------------------------------
    @classmethod
    def emit_compiled_step(cls, ctx) -> None:
        """Lower :meth:`step` into straight-line kernel code.

        Must mirror :meth:`step` (and the ``_handle_branch_bookkeeping``
        /``_stall`` helpers it calls) statement for statement: same
        counter updates, same trace events, same ordering.  The only
        licensed deviations are pure-code motion: ``queue_effects`` and
        the instruction's shared dispatch handler (which stands in
        for ``execute``) are memoized per instruction object (both are
        pure functions of the instruction) and computed before the
        branch-overlap check, and queue-full checks fold the capacity
        literals from the spec.
        The differential matrix pins byte-identical behavior.
        """
        spec = ctx.spec
        traced = spec.traced
        frontend_cls = ctx.frontend_cls
        ctx.need(
            "backend",
            "clock",
            "backend_stalls",
            "backend_state",
            "backend_env",
            "effects_memo",
            "frontend_note_branch",
            "frontend_branch_resolved",
            "frontend_redirect",
            "ldq_items",
            "laq_items",
            "saq_items",
            "sdq_items",
            "dispatch_get",
        )

        def stall(reason: str) -> None:
            ctx.line(f"backend_stalls[{reason!r}] += 1")
            ctx.line(f"backend.last_stall_reason = {reason!r}")
            if traced:
                ctx.line(f'tracer_emit("backend", "stall", reason={reason!r})')

        with ctx.block("if not backend.halted:"):
            ctx.line("ok = True")
            ctx.line("pending = backend._pending")
            with ctx.block("if pending is not None:"):
                with ctx.block(
                    "if not pending.notified and now >= pending.resolve_at:"
                ):
                    ctx.line("pending.notified = True")
                    ctx.line("clock.ticks += 1")
                    ctx.line("frontend_branch_resolved(pending.taken)")
                    with ctx.block("if not pending.taken:"):
                        ctx.line("backend._pending = None")
                        ctx.line("pending = None")
                with ctx.block(
                    "if pending is not None and pending.slots_remaining == 0:"
                ):
                    with ctx.block("if now < pending.resolve_at:"):
                        stall(StallReason.BRANCH_UNRESOLVED)
                        ctx.line("ok = False")
                    with ctx.block("else:"):
                        ctx.line("clock.ticks += 1")
                        ctx.line("target = pending.target")
                        ctx.line("frontend_redirect(target, now)")
                        ctx.line("backend._pending = None")
                        ctx.line("pending = None")
                        ctx.line("last_pc = backend.last_pc")
                        with ctx.block(
                            "if last_pc is not None and target < last_pc:"
                        ):
                            ctx.line("backend.replay_backedge = target")
            with ctx.block("if ok:"):
                frontend_cls.emit_compiled_next_instruction(ctx)
                with ctx.block("if fetched is None:"):
                    stall(StallReason.FRONTEND)
                with ctx.block("else:"):
                    ctx.line("pc, instruction, size = fetched")
                    ctx.line("entry = effects_memo.get(id(instruction))")
                    with ctx.block("if entry is None:"):
                        ctx.line("_fx = queue_effects(instruction)")
                        ctx.line(
                            "entry = (instruction, _fx.pops_ldq, "
                            "_fx.pushes_laq, _fx.pushes_saq, "
                            "_fx.pushes_sdq, instruction.op.is_branch, "
                            "dispatch_get(instruction))"
                        )
                        ctx.line("effects_memo[id(instruction)] = entry")
                    with ctx.block("if entry[5] and pending is not None:"):
                        stall(StallReason.BRANCH_OVERLAP)
                    with ctx.block("elif entry[1] and not ldq_items:"):
                        stall(StallReason.LDQ_EMPTY)
                    if spec.laq_capacity is not None:
                        with ctx.block(
                            f"elif entry[2] and len(laq_items) >= "
                            f"{spec.laq_capacity}:"
                        ):
                            stall(StallReason.LAQ_FULL)
                    if spec.saq_capacity is not None:
                        with ctx.block(
                            f"elif entry[3] and len(saq_items) >= "
                            f"{spec.saq_capacity}:"
                        ):
                            stall(StallReason.SAQ_FULL)
                    if spec.sdq_capacity is not None:
                        with ctx.block(
                            f"elif entry[4] and len(sdq_items) >= "
                            f"{spec.sdq_capacity}:"
                        ):
                            stall(StallReason.SDQ_FULL)
                    with ctx.block("else:"):
                        ctx.line("outcome = entry[6](backend_state, backend_env)")
                        with ctx.block("if backend.issue_log is not None:"):
                            ctx.line(
                                "backend.issue_log.append("
                                '("i", pc, instruction, outcome))'
                            )
                        ctx.line("clock.ticks += 1")
                        frontend_cls.emit_compiled_consume(ctx)
                        ctx.line("backend.instructions += 1")
                        ctx.line("backend.last_pc = pc")
                        if traced:
                            ctx.line('tracer_emit("backend", "issue", pc=pc)')
                        with ctx.block("if outcome.halted:"):
                            ctx.line("backend.halted = True")
                        with ctx.block("elif outcome.is_branch:"):
                            ctx.line("backend.branches += 1")
                            with ctx.block("if outcome.branch_taken:"):
                                ctx.line("backend.branches_taken += 1")
                            if traced:
                                ctx.line(
                                    'tracer_emit("backend", "branch", pc=pc, '
                                    "taken=outcome.branch_taken, "
                                    "target=outcome.branch_target, "
                                    "delay=outcome.branch_delay)"
                                )
                            ctx.line(
                                "backend._pending = _PendingBranch("
                                "target=outcome.branch_target, "
                                "taken=outcome.branch_taken, "
                                f"resolve_at=now + "
                                f"{spec.branch_resolution_latency}, "
                                "slots_remaining=outcome.branch_delay)"
                            )
                            ctx.line(
                                "frontend_note_branch(pc, pc + size, "
                                "outcome.branch_delay, outcome.branch_target)"
                            )
                        with ctx.block("elif pending is not None:"):
                            ctx.line("pending.slots_remaining -= 1")

    @classmethod
    def emit_compiled_wake(cls, ctx) -> None:
        """Fold :meth:`next_event_cycle` into the idle-skip wake scan."""
        ctx.need("backend")
        ctx.line("bpending = backend._pending")
        with ctx.block(
            "if bpending is not None and not bpending.notified "
            "and bpending.resolve_at < wake:"
        ):
            ctx.line("wake = bpending.resolve_at")

    # ------------------------------------------------------------------
    def next_event_cycle(self, now: int) -> int:
        """Resolution time of an unresolved pending branch, else ``IDLE``.

        ``resolve_at`` is the backend's only self-scheduled event: at
        that cycle the condition resolves (waking the frontend through
        ``branch_resolved``/``redirect``).  Everything else the backend
        does is a reaction to frontend- or memory-side progress.
        """
        pending = self._pending
        if pending is not None and not pending.notified:
            return pending.resolve_at
        return IDLE

    # ------------------------------------------------------------------
    def state_signature(self, now: int, base_seq: int) -> tuple:
        """Issue-side fingerprint: pending branch, halt/stall posture,
        and the branch registers (PBR targets recur; data registers are
        excluded — functional re-execution advances them)."""
        pending = self._pending
        return (
            self.halted,
            self.last_pc,
            self.last_stall_reason,
            None
            if pending is None
            else (
                pending.target,
                pending.taken,
                pending.resolve_at - now,
                pending.slots_remaining,
                pending.notified,
            ),
            self.state.branch_signature(),
        )

    def replay_shift(self, cycles: int, seqs: int) -> None:
        """Advance the pending branch's resolution time after a replay."""
        if self._pending is not None:
            self._pending.resolve_at += cycles

    # ------------------------------------------------------------------
    @property
    def total_stalls(self) -> int:
        return sum(self.stalls.values())
