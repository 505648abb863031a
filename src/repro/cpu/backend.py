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

The back-end executes nothing and holds no registers.  Each program's
functional pass (:mod:`repro.cpu.stream`) computed its values once; at
issue the back-end takes the PBR's outcome and target, or the data
access's address, from the recorded issue stream, and makes the queue
pops and pushes ``execute`` would make, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.scheduler import ProgressClock
from ..core.trace import NULL_TRACER, Tracer
from ..frontend.base import FetchUnit
from ..isa.opcodes import Opcode
from .data_engine import DataQueueEngine
from .executor import queue_effects
from .queues import ArchitecturalQueue
from .stream import IssueStream

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


@dataclass(slots=True)
class _PendingBranch:
    target: int
    taken: bool
    resolve_at: int
    slots_remaining: int
    notified: bool = False


class Backend:
    """Single-issue, in-order instruction issue with PBR handling."""

    def __init__(
        self,
        frontend: FetchUnit,
        engine: DataQueueEngine,
        stream: IssueStream,
        branch_resolution_latency: int = 2,
        tracer: Tracer | None = None,
        clock: ProgressClock | None = None,
    ):
        self.frontend = frontend
        self.engine = engine
        self.branch_resolution_latency = branch_resolution_latency
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock if clock is not None else ProgressClock()
        #: the program's issue stream, and where this machine reads it:
        #: the flat offset of the next branch (three words each) and the
        #: index of the next load and store address
        self.stream = stream
        self.next_branch = 0
        self.next_load = 0
        self.next_store = 0
        self.halted = False
        self.instructions = 0
        self.branches = 0
        self.branches_taken = 0
        #: pc of the most recently issued instruction (cycle attribution)
        self.last_pc: int | None = None
        #: reason of the most recent stall (the compiled kernel's idle
        #: skip charges every cycle of a quiescent span to this counter)
        self.last_stall_reason: str | None = None
        self.stalls: dict[str, int] = {reason: 0 for reason in StallReason.ALL}
        self._pending: _PendingBranch | None = None
        #: target of a backward redirect the compiled kernel took this
        #: cycle (a loop backedge); the kernel hands it to the replay
        #: controller and clears it
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
            self.frontend.redirect(pending.target, now)
            self._pending = None
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
        engine = self.engine
        if effects.pops_ldq and engine.ldq.is_empty:
            self._stall(StallReason.LDQ_EMPTY)
            return False
        if effects.pushes_laq and engine.laq.is_full:
            self._stall(StallReason.LAQ_FULL)
            return False
        if effects.pushes_saq and engine.saq.is_full:
            self._stall(StallReason.SAQ_FULL)
            return False
        if effects.pushes_sdq and engine.sdq.is_full:
            self._stall(StallReason.SDQ_FULL)
            return False

        stream = self.stream
        index = self.instructions
        stream.reach(index)
        if effects.pops_ldq:
            engine.ldq.pop()
        if effects.pushes_laq:
            engine.push_laq(stream.loads[self.next_load])
            self.next_load += 1
        elif effects.pushes_saq:
            engine.push_saq(stream.stores[self.next_store])
            self.next_store += 1
        elif effects.pushes_sdq:
            engine.push_sdq()
        tracer = self._tracer
        if tracer.enabled and (effects.pushes_saq or effects.pushes_sdq):
            # the store pair this push completes starts an FPU operation
            fpu_op = stream.fpu_op_at(index)
            if fpu_op is not None:
                tracer.emit("engine", "fpu_op", addr=fpu_op)
        self._clock.ticks += 1
        self.frontend.consume(now)
        self.instructions = index + 1
        self.last_pc = pc
        if tracer.enabled:
            tracer.emit("backend", "issue", pc=pc)
        if instruction.op is Opcode.HALT:
            self.halted = True
            return True
        if instruction.op.is_branch:
            offset = self.next_branch
            if offset >= len(stream.branches) or stream.branches[offset] != pc:
                raise stream.desync(pc, offset)
            taken, target = stream.branches[offset + 1 : offset + 3]
            self.next_branch = offset + 3
            taken = taken == 1
            delay = instruction.delay
            self.branches += 1
            if taken:
                self.branches_taken += 1
            if tracer.enabled:
                tracer.emit("backend", "branch", pc=pc, taken=taken,
                            target=target, delay=delay)
            self._pending = _PendingBranch(
                target, taken, now + self.branch_resolution_latency, delay
            )
            self.frontend.note_branch(pc, pc + size, delay, target)
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
        counter updates, same ordering, and none of its trace events (a
        traced run never runs a kernel).  The kernel
        adds the replay hook :meth:`step` lacks: a taken redirect to a
        target below the last issued pc (a loop backedge) sets
        ``replay_backedge``.  The only other licensed deviations are
        pure-code motion: the instruction's issue entry
        (:func:`repro.cpu.dispatch.issue_entry`: the ``queue_effects``
        flags, ``op.is_branch`` and the halt flag, all pure functions of
        the instruction value) is built once per process, looked up once
        per run and instruction object, and read before the
        branch-overlap check; ``stream.reach`` is called only when the
        issue index passes the recorded length last seen (``horizon``);
        and queue-full checks fold the capacity literals from the spec.
        The differential matrix pins byte-identical behavior.
        """
        spec = ctx.spec
        frontend_cls = ctx.frontend_cls
        ctx.need(
            "backend", "clock", "backend_stalls", "effects_memo",
            "frontend_note_branch", "frontend_branch_resolved",
            "frontend_redirect", "ldq_items", "laq_items", "saq_items",
            "sdq_items", "stream", "stream_loads", "stream_stores",
            "stream_branches", "horizon", "entry_for",
        )
        engine_cls = ctx.engine_cls

        def stall(reason: str) -> None:
            ctx.line(f"backend_stalls[{reason!r}] += 1")
            ctx.line(f"backend.last_stall_reason = {reason!r}")

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
                        # keyed by ``id``, so the entry keeps the
                        # instruction alive for the run
                        ctx.line("entry = (instruction,) + entry_for(instruction)")
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
                        ctx.line("index = backend.instructions")
                        with ctx.block("if index >= horizon:"):
                            ctx.line("horizon = stream.reach(index)")
                        with ctx.block("if entry[1]:"):
                            ArchitecturalQueue.emit_compiled_pop(ctx, "ldq")
                        with ctx.block("if entry[2]:"):
                            ctx.line("s_at = backend.next_load")
                            ctx.line("s_address = stream_loads[s_at]")
                            engine_cls.emit_compiled_push_laq(ctx, "s_address")
                            ctx.line("backend.next_load = s_at + 1")
                        with ctx.block("elif entry[3]:"):
                            ctx.line("s_at = backend.next_store")
                            ctx.line("s_address = stream_stores[s_at]")
                            engine_cls.emit_compiled_push_saq(ctx, "s_address")
                            ctx.line("backend.next_store = s_at + 1")
                        with ctx.block("elif entry[4]:"):
                            engine_cls.emit_compiled_push_sdq(ctx)
                        ctx.line("clock.ticks += 1")
                        frontend_cls.emit_compiled_consume(ctx)
                        ctx.line("backend.instructions = index + 1")
                        ctx.line("backend.last_pc = pc")
                        with ctx.block("if entry[6]:"):
                            ctx.line("backend.halted = True")
                        with ctx.block("elif entry[5]:"):
                            ctx.line("s_at = backend.next_branch")
                            with ctx.block(
                                "if s_at >= len(stream_branches) "
                                "or stream_branches[s_at] != pc:"
                            ):
                                ctx.line("raise stream.desync(pc, s_at)")
                            ctx.line("backend.next_branch = s_at + 3")
                            ctx.line("taken = stream_branches[s_at + 1] == 1")
                            ctx.line("target = stream_branches[s_at + 2]")
                            ctx.line("delay = instruction.delay")
                            ctx.line("backend.branches += 1")
                            with ctx.block("if taken:"):
                                ctx.line("backend.branches_taken += 1")
                            ctx.line(
                                "backend._pending = _PendingBranch("
                                "target, taken, "
                                f"now + {spec.branch_resolution_latency}, "
                                "delay)"
                            )
                            ctx.line(
                                "frontend_note_branch(pc, pc + size, delay, target)"
                            )
                        with ctx.block("elif pending is not None:"):
                            ctx.line("pending.slots_remaining -= 1")

    @classmethod
    def emit_compiled_wake(cls, ctx) -> None:
        """Fold the pending branch into the idle-skip wake scan.

        ``resolve_at`` of an unresolved pending branch is the backend's
        only self-scheduled event: at that cycle the condition resolves
        (waking the frontend through ``branch_resolved``/``redirect``).
        Everything else the backend does is a reaction to frontend- or
        memory-side progress.
        """
        ctx.need("backend")
        ctx.line("bpending = backend._pending")
        with ctx.block(
            "if bpending is not None and not bpending.notified "
            "and bpending.resolve_at < wake:"
        ):
            ctx.line("wake = bpending.resolve_at")

    # ------------------------------------------------------------------
    def state_signature(self, now: int, base_seq: int) -> tuple:
        """Issue-side fingerprint: the pending branch and the halt/stall
        posture (where the issue stream is read is not timing state:
        replay compares each iteration's slice of the stream instead)."""
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
        )

    def replay_shift(self, cycles: int, seqs: int) -> None:
        """Advance the pending branch's resolution time after a replay."""
        if self._pending is not None:
            self._pending.resolve_at += cycles

    # ------------------------------------------------------------------
    @property
    def total_stalls(self) -> int:
        return sum(self.stalls.values())
