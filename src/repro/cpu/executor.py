"""Instruction semantics: the functional simulator's, and the reference
the issue stream's dispatch handlers are checked against.

:func:`execute` applies one decoded instruction to architectural state
plus an *environment* that provides the queue operations (the
functional simulator's queues are serviced instantly; the issue
stream's pass, :mod:`repro.cpu.stream`, keeps a load-value chain).
The timing machine executes nothing: it reads :func:`queue_effects`
to decide whether an instruction can issue, and the recorded stream
for its outcome.

Queue-register semantics (paper section 3.1.2):

* each instruction that names r7 as a **source** pops exactly one value
  from the LDQ, even if r7 appears in both source fields (the single
  popped value feeds both operands);
* naming r7 as the **destination** pushes the result onto the SDQ.

The executor computes *values*; it never advances time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..isa.instruction import Instruction
from ..isa.opcodes import OpClass, Opcode
from ..isa.registers import QUEUE_REGISTER
from .alu import alu_operate, to_signed, to_unsigned
from .state import ArchState

__all__ = [
    "ExecutionEnv",
    "ExecutionOutcome",
    "QueueEffects",
    "execute",
    "queue_effects",
]


class ExecutionEnv(Protocol):
    """Queue operations an executor environment must provide."""

    def pop_ldq(self) -> int: ...

    def push_sdq(self, value: int) -> None: ...

    def push_laq(self, address: int) -> None: ...

    def push_saq(self, address: int) -> None: ...


@dataclass(frozen=True)
class QueueEffects:
    """Which architectural queues one instruction touches.

    The issue logic uses this to decide whether the instruction can issue
    this cycle (LDQ head available?  room in LAQ/SAQ/SDQ?).
    """

    pops_ldq: bool = False
    pushes_sdq: bool = False
    pushes_laq: bool = False
    pushes_saq: bool = False


@dataclass(frozen=True)
class ExecutionOutcome:
    """Everything that happened when an instruction executed.

    ``branch`` is filled only for the PBR family: ``branch_taken`` tells
    whether the branch will redirect the instruction stream once its
    ``delay`` slots have been issued, and ``branch_target`` is the target
    byte address read from the branch register.
    """

    halted: bool = False
    is_branch: bool = False
    branch_taken: bool = False
    branch_target: int = 0
    branch_delay: int = 0


def queue_effects(instruction: Instruction) -> QueueEffects:
    """Statically determine the queue interactions of ``instruction``."""
    op = instruction.op
    pops_ldq = False
    pushes_sdq = False
    if op.reads_rs1 and instruction.rs1 == QUEUE_REGISTER:
        pops_ldq = True
    if op.reads_rs2 and instruction.rs2 == QUEUE_REGISTER:
        pops_ldq = True
    if op == Opcode.PBRA:
        pops_ldq = False  # PBRA ignores its condition field
    if op.writes_rd and instruction.rd == QUEUE_REGISTER:
        pushes_sdq = True
    return QueueEffects(
        pops_ldq=pops_ldq,
        pushes_sdq=pushes_sdq,
        pushes_laq=op.op_class == OpClass.LOAD,
        pushes_saq=op.op_class == OpClass.STORE,
    )


class _OperandReader:
    """Reads source operands, popping the LDQ at most once."""

    def __init__(self, state: ArchState, env: ExecutionEnv):
        self._state = state
        self._env = env
        self._queue_value: int | None = None

    def read(self, register: int) -> int:
        if register == QUEUE_REGISTER:
            if self._queue_value is None:
                self._queue_value = to_unsigned(self._env.pop_ldq())
            return self._queue_value
        return self._state.read(register)


def _write_destination(
    state: ArchState, env: ExecutionEnv, register: int, value: int
) -> None:
    if register == QUEUE_REGISTER:
        env.push_sdq(to_unsigned(value))
    else:
        state.write(register, value)


def execute(
    instruction: Instruction, state: ArchState, env: ExecutionEnv
) -> ExecutionOutcome:
    """Execute one instruction against ``state`` and ``env``.

    The caller must already have verified (via :func:`queue_effects` and
    its own queue occupancy knowledge) that the instruction can proceed;
    the environment's queue operations are expected not to block.
    """
    op = instruction.op
    cls = op.op_class
    reader = _OperandReader(state, env)

    if cls == OpClass.SYSTEM:
        if op == Opcode.HALT:
            return ExecutionOutcome(halted=True)
        if op == Opcode.EXCH:
            state.exchange_banks()
        return ExecutionOutcome()

    if cls == OpClass.ALU_RR:
        lhs = reader.read(instruction.rs1)
        rhs = reader.read(instruction.rs2)
        _write_destination(state, env, instruction.rd, alu_operate(op, lhs, rhs))
        return ExecutionOutcome()

    if cls == OpClass.ALU_RI:
        if op == Opcode.LI:
            _write_destination(
                state, env, instruction.rd, to_unsigned(instruction.imm_signed)
            )
            return ExecutionOutcome()
        if op == Opcode.LIH:
            # LIH merges into the destination's current low half.  For the
            # queue register there is no readable current value; define the
            # low half as zero in that case (the assembler never emits it).
            if instruction.rd == QUEUE_REGISTER:
                low = 0
            else:
                low = state.read(instruction.rd) & 0xFFFF
            _write_destination(
                state, env, instruction.rd, low | (instruction.imm << 16)
            )
            return ExecutionOutcome()
        lhs = reader.read(instruction.rs1)
        imm = (
            instruction.imm
            if op in (Opcode.ANDI, Opcode.ORI, Opcode.XORI)
            else instruction.imm_signed
        )
        _write_destination(state, env, instruction.rd, alu_operate(op, lhs, imm))
        return ExecutionOutcome()

    if cls == OpClass.LOAD:
        if op == Opcode.LD:
            address = to_unsigned(reader.read(instruction.rs1) + instruction.imm_signed)
        else:  # LDX
            address = to_unsigned(
                reader.read(instruction.rs1) + reader.read(instruction.rs2)
            )
        env.push_laq(address)
        return ExecutionOutcome()

    if cls == OpClass.STORE:
        if op == Opcode.ST:
            address = to_unsigned(reader.read(instruction.rs1) + instruction.imm_signed)
        else:  # STX
            address = to_unsigned(
                reader.read(instruction.rs1) + reader.read(instruction.rs2)
            )
        env.push_saq(address)
        return ExecutionOutcome()

    if cls == OpClass.LBR:
        if op == Opcode.LBR:
            state.write_branch(instruction.breg, instruction.imm)
        else:  # LBRR
            state.write_branch(instruction.breg, reader.read(instruction.rs1))
        return ExecutionOutcome()

    if cls == OpClass.BRANCH:
        target = state.read_branch(instruction.breg)
        if op == Opcode.PBRA:
            taken = True
        else:
            condition = to_signed(reader.read(instruction.rs1))
            if op == Opcode.PBREQ:
                taken = condition == 0
            elif op == Opcode.PBRNE:
                taken = condition != 0
            elif op == Opcode.PBRLT:
                taken = condition < 0
            elif op == Opcode.PBRGE:
                taken = condition >= 0
            else:  # pragma: no cover
                raise AssertionError(f"unhandled branch {op!r}")
        return ExecutionOutcome(
            is_branch=True,
            branch_taken=taken,
            branch_target=target,
            branch_delay=instruction.delay,
        )

    raise AssertionError(f"unhandled opcode {op!r}")  # pragma: no cover
