"""Instruction-specialized dispatch for compiled step kernels.

The generic :func:`repro.cpu.executor.execute` pays per-issue overhead
that is constant for a given instruction *value*: the opcode-class
ladder, the ``_OperandReader`` allocation, the queue-register tests on
every operand, and the ``alu_operate`` opcode ladder.  An
:class:`~repro.isa.instruction.Instruction` is a frozen value object,
so all of those decisions can be taken once per distinct instruction
and burned into a tiny ``exec``-compiled handler::

    def __handler(state, env):
        f = state._foreground
        f[3] = (f[1] + f[2]) & 4294967295
        return OUT_PLAIN

:func:`handler_for` compiles one handler per distinct instruction
value on first use and keeps it in one process-wide memo.  A handler
depends on the instruction value alone, never on the program or the
machine configuration, so every compiled kernel binds
:func:`handler_for` itself as its ``dispatch_get`` and two programs
that share an instruction share its handler.

The same handlers also serve the compiled engine's replay shadow pass:
when a loop engages, :class:`~repro.core.replay.ReplayController`
binds each recorded instruction to its handler once, through
:func:`handler_for`, and re-runs the bound handlers for every replayed
iteration.  The interpreted engines compile nothing; they call
``execute`` both live and in the shadow pass.

**Byte-identity contract.**  ``handler(state, env)`` must be
observationally identical to ``execute(instruction, state, env)``:
the same queue pops/pushes in the same order (r7 named in both source
fields pops exactly once), the same register writes, and an
:class:`~repro.cpu.executor.ExecutionOutcome` equal by value — replay
verification (and anything else) compares outcomes by equality, with
identity only as a fast path, so the shared ``OUT_PLAIN``/``OUT_HALT``
singletons are safe.  ``tests/test_cpu_dispatch.py`` pins
handler-vs-executor equivalence across the opcode space; the
interpreted engines, which call ``execute`` directly, are the
differential matrix's other side.
"""

from __future__ import annotations

import time

from ..isa.instruction import Instruction
from ..isa.opcodes import OpClass, Opcode
from ..isa.registers import QUEUE_REGISTER
from .alu import to_signed
from .executor import ExecutionOutcome

__all__ = [
    "clear_dispatch_cache",
    "dispatch_codegen_stats",
    "generate_handler_source",
    "handler_for",
]

_MASK = "4294967295"  #: 32-bit wrap mask, folded into handler source

#: Value-equal to what ``execute`` returns for non-branch instructions;
#: shared because every consumer compares outcomes by value.
OUT_PLAIN = ExecutionOutcome()
OUT_HALT = ExecutionOutcome(halted=True)

#: Folded ALU expressions; ``{l}``/``{r}`` are parenthesised operands.
#: Each mirrors one :func:`repro.cpu.alu.alu_operate` arm exactly
#: (inputs are already 32-bit unsigned: registers store masked values
#: and queue pops are masked at the pop site).
_ALU_EXPR: dict[Opcode, str] = {}
for _ops, _expr in (
    ((Opcode.ADD, Opcode.ADDI), "({l} + {r}) & " + _MASK),
    ((Opcode.SUB, Opcode.SUBI), "({l} - {r}) & " + _MASK),
    ((Opcode.AND, Opcode.ANDI), "{l} & {r}"),
    ((Opcode.OR, Opcode.ORI), "{l} | {r}"),
    ((Opcode.XOR, Opcode.XORI), "{l} ^ {r}"),
    ((Opcode.SLL, Opcode.SLLI), "({l} << ({r} & 31)) & " + _MASK),
    ((Opcode.SRL, Opcode.SRLI), "{l} >> ({r} & 31)"),
    ((Opcode.SRA, Opcode.SRAI), "(to_signed({l}) >> ({r} & 31)) & " + _MASK),
    ((Opcode.SEQ, Opcode.SEQI), "int({l} == {r})"),
    ((Opcode.SNE, Opcode.SNEI), "int({l} != {r})"),
    ((Opcode.SLT, Opcode.SLTI), "int(to_signed({l}) < to_signed({r}))"),
    ((Opcode.SLE, Opcode.SLEI), "int(to_signed({l}) <= to_signed({r}))"),
):
    for _op in _ops:
        _ALU_EXPR[_op] = _expr
del _ops, _expr, _op

_BRANCH_TAKEN: dict[Opcode, str] = {
    Opcode.PBREQ: "condition == 0",
    Opcode.PBRNE: "condition != 0",
    Opcode.PBRLT: "condition < 0",
    Opcode.PBRGE: "condition >= 0",
}


class _Reads:
    """Operand-read emitter honoring the pop-at-most-once r7 rule."""

    def __init__(self, lines: list[str]):
        self._lines = lines
        self._popped = False
        self._bank_bound = False

    def bank(self) -> str:
        """Bind ``f = state._foreground`` once (read fresh per call:
        EXCH rebinds the attribute, so it must never be cached across
        handler invocations)."""
        if not self._bank_bound:
            self._lines.append("    f = state._foreground")
            self._bank_bound = True
        return "f"

    def read(self, register: int) -> str:
        if register == QUEUE_REGISTER:
            if not self._popped:
                self._lines.append(f"    q = env.pop_ldq() & {_MASK}")
                self._popped = True
            return "q"
        return f"{self.bank()}[{register}]"


def _write_destination(lines: list[str], reads: _Reads, register: int, expr: str) -> None:
    """Emit the masked destination write (register file or SDQ push).

    Every ``expr`` this generator produces is already 32-bit unsigned
    (each folded ALU arm masks exactly where ``alu_operate`` does), so
    the reference's ``to_unsigned`` on the write path is a no-op.
    """
    if register == QUEUE_REGISTER:
        lines.append(f"    env.push_sdq({expr})")
    else:
        lines.append(f"    {reads.bank()}[{register}] = {expr}")


def _signed_imm(instruction: Instruction) -> int:
    return instruction.imm_signed


def generate_handler_source(instruction: Instruction) -> str:
    """Render the specialized handler for one instruction value.

    Pure: equal instructions render byte-identical source.
    """
    op = instruction.op
    cls = op.op_class
    lines = [f"def __handler(state, env):  # {instruction.disassemble()}"]
    reads = _Reads(lines)

    if cls == OpClass.SYSTEM:
        if op == Opcode.HALT:
            lines.append("    return OUT_HALT")
        else:
            if op == Opcode.EXCH:
                lines.append("    state.exchange_banks()")
            lines.append("    return OUT_PLAIN")

    elif cls == OpClass.ALU_RR:
        lhs = reads.read(instruction.rs1)
        rhs = reads.read(instruction.rs2)
        expr = _ALU_EXPR[op].format(l=f"({lhs})", r=f"({rhs})")
        _write_destination(lines, reads, instruction.rd, expr)
        lines.append("    return OUT_PLAIN")

    elif cls == OpClass.ALU_RI:
        if op == Opcode.LI:
            _write_destination(
                lines, reads, instruction.rd, str(_signed_imm(instruction) & 0xFFFFFFFF)
            )
        elif op == Opcode.LIH:
            high = instruction.imm << 16
            if instruction.rd == QUEUE_REGISTER:
                _write_destination(lines, reads, instruction.rd, str(high))
            else:
                bank = reads.bank()
                lines.append(
                    f"    {bank}[{instruction.rd}] = "
                    f"({bank}[{instruction.rd}] & 65535) | {high}"
                )
        else:
            imm = (
                instruction.imm
                if op in (Opcode.ANDI, Opcode.ORI, Opcode.XORI)
                else _signed_imm(instruction)
            )
            lhs = reads.read(instruction.rs1)
            # Comparison immediates fold their to_unsigned/to_signed
            # conversion into the literal (a negative imm_signed must
            # compare as its 32-bit unsigned image for SEQ/SNE).
            if op in (Opcode.SEQI, Opcode.SNEI):
                relation = "==" if op == Opcode.SEQI else "!="
                expr = f"int(({lhs}) {relation} {imm & 0xFFFFFFFF})"
            elif op in (Opcode.SLTI, Opcode.SLEI):
                relation = "<" if op == Opcode.SLTI else "<="
                expr = f"int(to_signed(({lhs})) {relation} {imm})"
            else:
                expr = _ALU_EXPR[op].format(l=f"({lhs})", r=f"({imm})")
            _write_destination(lines, reads, instruction.rd, expr)
        lines.append("    return OUT_PLAIN")

    elif cls == OpClass.LOAD or cls == OpClass.STORE:
        lhs = reads.read(instruction.rs1)
        if op in (Opcode.LD, Opcode.ST):
            addr = f"(({lhs}) + ({_signed_imm(instruction)})) & {_MASK}"
        else:  # LDX / STX
            rhs = reads.read(instruction.rs2)
            addr = f"(({lhs}) + ({rhs})) & {_MASK}"
        push = "push_laq" if cls == OpClass.LOAD else "push_saq"
        lines.append(f"    env.{push}({addr})")
        lines.append("    return OUT_PLAIN")

    elif cls == OpClass.LBR:
        if op == Opcode.LBR:
            lines.append(
                f"    state._branch[{instruction.breg}] = "
                f"{instruction.imm & 0xFFFFFFFF}"
            )
        else:  # LBRR
            lhs = reads.read(instruction.rs1)
            lines.append(f"    state._branch[{instruction.breg}] = {lhs}")
        lines.append("    return OUT_PLAIN")

    elif cls == OpClass.BRANCH:
        lines.append(f"    target = state._branch[{instruction.breg}]")
        if op == Opcode.PBRA:
            taken = "True"
        else:
            lhs = reads.read(instruction.rs1)
            lines.append(f"    condition = to_signed({lhs})")
            taken = _BRANCH_TAKEN[op]
        lines.append(
            "    return ExecutionOutcome(is_branch=True, "
            f"branch_taken={taken}, branch_target=target, "
            f"branch_delay={instruction.delay})"
        )

    else:  # pragma: no cover - opcode space is closed
        raise AssertionError(f"unhandled opcode {op!r}")

    return "\n".join(lines) + "\n"


_HANDLER_COMPILES = 0
_CODEGEN_SECONDS = 0.0

#: Process-wide handler memo, keyed by instruction value (the module
#: docstring's byte-identity contract mentions neither the program nor
#: the config).
_HANDLERS: dict[Instruction, object] = {}


def _handler_namespace() -> dict:
    return {
        "to_signed": to_signed,
        "OUT_PLAIN": OUT_PLAIN,
        "OUT_HALT": OUT_HALT,
        "ExecutionOutcome": ExecutionOutcome,
    }


def _compile_handler(instruction: Instruction):
    global _HANDLER_COMPILES, _CODEGEN_SECONDS
    started = time.perf_counter()
    source = generate_handler_source(instruction)
    namespace = _handler_namespace()
    code = compile(source, f"<repro-dispatch-{instruction.op.mnemonic}>", "exec")
    exec(code, namespace)  # noqa: S102 — the source is our own codegen
    _HANDLER_COMPILES += 1
    _CODEGEN_SECONDS += time.perf_counter() - started
    handler = namespace["__handler"]
    _HANDLERS[instruction] = handler
    return handler


def handler_for(instruction: Instruction):
    """The process-wide handler for ``instruction`` (compiling on first use).

    Compiled kernels call it on the first issue of each instruction in
    a run (their per-run ``effects_memo`` answers the rest).  Replay's
    shadow pass binds recorded instructions through it too: the kernel
    has already issued every recorded instruction, so that lookup
    compiles nothing and moves no :func:`dispatch_codegen_stats`
    counter.
    """
    handler = _HANDLERS.get(instruction)
    if handler is None:
        handler = _compile_handler(instruction)
    return handler


def dispatch_codegen_stats() -> dict:
    """The memo's size and cumulative compile accounting (merged by
    ``repro.core.compiled.compile_stats``)."""
    return {
        "handlers": len(_HANDLERS),
        "handler_compiles": _HANDLER_COMPILES,
        "codegen_seconds": _CODEGEN_SECONDS,
    }


def clear_dispatch_cache() -> None:
    """Drop the handler memo.

    Counters stay cumulative (tests assert on deltas); the compiled
    engine's ``clear_compile_cache`` calls this so both codegen caches
    clear together.
    """
    _HANDLERS.clear()
