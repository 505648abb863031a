"""Handler-vs-executor equivalence for instruction-specialized dispatch.

Every opcode runs through ``handler_for(ins)`` and through the generic
:func:`repro.cpu.executor.execute`, on copies of one architectural
state, with r7 (the queue register) as rs1, as rs2, as both and as rd,
plus plain registers.  The two runs must leave the
same registers, branch registers and active bank, make the same queue
operations in the same order, and return equal
:class:`~repro.cpu.executor.ExecutionOutcome` values.
"""

import copy

import pytest

from repro.cpu.dispatch import handler_for
from repro.cpu.executor import execute
from repro.cpu.state import ArchState
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import QUEUE_REGISTER as R7

#: Immediates: zero, small, shift amounts up to and past 31, the largest
#: positive, and negatives down to the sign boundary.
IMMEDIATES = (0, 5, 31, 33, 0x7FFF, -1, -5, -0x8000)

#: ``(foreground r0-r6, LDQ head)`` per scenario.  Values at or above
#: 2**31 are negative to SRA, SLT, SLE and the branch conditions, and
#: r2 = 33 exercises the shift-amount mask; across the scenarios r1 and
#: the LDQ head are negative, positive and zero, so every comparison and
#: branch condition goes each way.
SCENARIOS = {
    "negative": ([0, 0x80000001, 33, 0xFFFFFFF0, 7, 0x7FFFFFFF, 1], 0xFFFFFFFF),
    "positive": ([9, 5, 0xFFFFFFF0, 5, 0, 0x80000000, 2], 5),
    "zero": ([0, 0, 0, 0x80000000, 31, 1, 0xFFFF0000], 0),
}


def _shapes(op: Opcode) -> list[Instruction]:
    """Every operand shape worth checking for one opcode."""
    cls = op.op_class
    if cls == OpClass.SYSTEM:
        return [Instruction(op)]
    if cls == OpClass.ALU_RR:
        fields = ((3, 1, 2), (1, 1, 2), (3, R7, 2), (3, 1, R7), (3, R7, R7),
                  (R7, 1, 2), (R7, R7, R7))
        return [Instruction(op, a=rd, b=rs1, c=rs2) for rd, rs1, rs2 in fields]
    if cls == OpClass.ALU_RI:
        if op in (Opcode.LI, Opcode.LIH):
            fields = ((3, 0), (R7, 0))
        else:
            fields = ((3, 1), (1, 1), (3, R7), (R7, 1), (R7, R7))
        return [
            Instruction(op, a=rd, b=rs1, imm=imm)
            for rd, rs1 in fields
            for imm in IMMEDIATES
        ]
    if op in (Opcode.LD, Opcode.ST):
        return [Instruction(op, b=base, imm=imm) for base in (1, R7) for imm in IMMEDIATES]
    if op in (Opcode.LDX, Opcode.STX):
        fields = ((1, 2), (R7, 2), (1, R7), (R7, R7))
        return [Instruction(op, b=base, c=index) for base, index in fields]
    if op == Opcode.LBR:
        return [Instruction(op, a=5, imm=imm) for imm in (0, 0x1234, 0xFFFE)]
    if op == Opcode.LBRR:
        return [Instruction(op, a=5, b=rs1) for rs1 in (1, R7)]
    assert cls == OpClass.BRANCH
    return [
        Instruction(op, a=2, b=cond, c=delay) for cond in (1, R7) for delay in (0, 3)
    ]


class RecordingEnv:
    """Queue environment logging every operation in order.

    The LDQ holds a second value so that a double pop shows up in the
    log instead of failing on an empty queue.
    """

    def __init__(self, ldq_head: int):
        self._ldq = [ldq_head, 0xDEADBEEF]
        self.log: list[tuple[str, int]] = []

    def pop_ldq(self) -> int:
        value = self._ldq.pop(0)
        self.log.append(("pop_ldq", value))
        return value

    def push_sdq(self, value: int) -> None:
        self.log.append(("push_sdq", value))

    def push_laq(self, address: int) -> None:
        self.log.append(("push_laq", address))

    def push_saq(self, address: int) -> None:
        self.log.append(("push_saq", address))


def _state(registers: list[int]) -> ArchState:
    state = ArchState()
    state.exchange_banks()
    for index in range(len(registers)):
        state.write(index, 100 + index)  # a background bank EXCH exposes
    state.exchange_banks()
    for index, value in enumerate(registers):
        state.write(index, value)
    for index in range(8):
        state.write_branch(index, 0x1000 + 4 * index)
    return state


def _run(step, state: ArchState, ldq_head: int):
    """Run ``step(state, env)``; return everything it observably did."""
    foreground = state._foreground
    env = RecordingEnv(ldq_head)
    outcome = step(state, env)
    return {
        "registers": state.snapshot(),
        "active bank swapped": state._foreground is not foreground,
        "queue log": env.log,
        "outcome": outcome,
    }


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.mnemonic)
def test_handler_matches_executor(op):
    for instruction in _shapes(op):
        handler = handler_for(instruction)
        for scenario, (registers, ldq_head) in SCENARIOS.items():
            state = _state(registers)
            specialized = _run(handler, copy.deepcopy(state), ldq_head)
            generic = _run(
                lambda s, env: execute(instruction, s, env), state, ldq_head
            )
            assert specialized == generic, (
                f"{instruction.disassemble()} ({scenario} scenario)"
            )
