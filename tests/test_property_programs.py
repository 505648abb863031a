"""Property test: random integer programs against a register model.

Hypothesis generates random straight-line ALU programs over r0-r5.
Each is assembled, run on the functional simulator *and* the cycle-level
machine, and both final register files must match an independent Python
model of the ISA semantics.  This exercises the assembler, encoder,
decoder, executor, and both simulators together on inputs no hand-written
test would cover.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.core.config import MachineConfig
from repro.core.simulator import Simulator
from repro.cpu.alu import to_signed, to_unsigned
from repro.cpu.functional import FunctionalSimulator

REGS = (0, 1, 2, 3, 4, 5)

_RR_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 31),
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: to_signed(a) >> (b & 31),
    "seq": lambda a, b: int(a == b),
    "sne": lambda a, b: int(a != b),
    "slt": lambda a, b: int(to_signed(a) < to_signed(b)),
    "sle": lambda a, b: int(to_signed(a) <= to_signed(b)),
}

_RI_OPS = {
    "addi": lambda a, imm: a + _sext(imm),
    "subi": lambda a, imm: a - _sext(imm),
    "andi": lambda a, imm: a & imm,
    "ori": lambda a, imm: a | imm,
    "xori": lambda a, imm: a ^ imm,
    "slli": lambda a, imm: a << (imm & 31),
    "srli": lambda a, imm: a >> (imm & 31),
}


def _sext(imm16: int) -> int:
    return imm16 - 0x10000 if imm16 & 0x8000 else imm16


reg = st.sampled_from(REGS)
imm16 = st.integers(min_value=0, max_value=0xFFFF)

rr_instr = st.tuples(st.sampled_from(sorted(_RR_OPS)), reg, reg, reg)
ri_instr = st.tuples(st.sampled_from(sorted(_RI_OPS)), reg, reg, imm16)
li_instr = st.tuples(st.just("li"), reg, imm16)

program_body = st.lists(st.one_of(rr_instr, ri_instr, li_instr), max_size=40)


def render(statement) -> str:
    if statement[0] == "li":
        _op, rd, imm = statement
        return f"li r{rd}, {imm}"
    op, rd, rs1, third = statement
    if op in _RR_OPS:
        return f"{op} r{rd}, r{rs1}, r{third}"
    return f"{op} r{rd}, r{rs1}, {third}"


def model(statements) -> list[int]:
    registers = [0] * 8
    for statement in statements:
        if statement[0] == "li":
            _op, rd, imm = statement
            registers[rd] = to_unsigned(_sext(imm))
            continue
        op, rd, rs1, third = statement
        if op in _RR_OPS:
            value = _RR_OPS[op](registers[rs1], registers[third])
        else:
            value = _RI_OPS[op](registers[rs1], third)
        registers[rd] = to_unsigned(value)
    return registers


@settings(max_examples=60, deadline=None)
@given(program_body)
def test_random_alu_programs_match_model(statements):
    source = "\n".join(render(s) for s in statements) + "\nhalt"
    program = assemble(source)
    expected = model(statements)

    functional = FunctionalSimulator(program)
    functional.run()
    for index in REGS:
        assert functional.state.read(index) == expected[index], (index, statements)

    timing = Simulator(MachineConfig.pipe("8-8", 32, memory_access_time=3), program)
    timing.run()
    for index in REGS:
        assert timing.backend.stream.state.read(index) == expected[index]
