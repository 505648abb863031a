"""A functional (timing-free) simulator.

Runs a :class:`~repro.asm.program.Program` to completion, applying full
instruction semantics — architectural queues, the memory-mapped FPU,
prepare-to-branch delay slots — but charging no time.  It serves three
purposes:

* validating the kernel compiler (computed array results are compared
  against NumPy references in the test suite);
* providing the dynamic instruction counts that calibrate the benchmark
  suite against the paper's 150,575 executed instructions;
* acting as the decode-and-``execute`` oracle for the values the
  cycle-level simulator times: each program's functional pass
  (:mod:`repro.cpu.stream`, which records the issue stream every
  machine reads) must end with this simulator's memory and registers.

Memory-ordering discipline
--------------------------
Loads are serviced instantly at execution, and store address/data pairs
commit as soon as both halves are present.  A load whose address matches
a store address still waiting for its data would read a stale value on
real decoupled hardware; the simulator raises
:class:`MemoryOrderingError` instead so miscompiled programs are caught
loudly (the kernel compiler always emits the SDQ push immediately after
the store address).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asm.program import WORD_BYTES, Program
from ..isa.encoding import decode_instruction
from ..isa.instruction import Instruction
from ..isa.opcodes import OpClass
from ..memory.fpu import FPU_BASE, FpuCore, is_fpu_address
from .executor import execute
from .queues import ArchitecturalQueue
from .state import ArchState

__all__ = [
    "FunctionalResult",
    "FunctionalSimulator",
    "MemoryOrderingError",
    "SimulationLimitExceeded",
    "run_functional",
]


class MemoryOrderingError(RuntimeError):
    """A load overtook a store to the same address that lacked its data."""


class SimulationLimitExceeded(RuntimeError):
    """The program exceeded ``max_steps`` without halting."""


@dataclass
class FunctionalResult:
    """Outcome of a functional run."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    fpu_operations: int = 0
    branches: int = 0
    branches_taken: int = 0
    halted: bool = False
    #: dynamic instruction count per named region (see ``regions`` argument)
    by_region: dict[str, int] = field(default_factory=dict)


class _FunctionalEnv:
    """Execution environment with instantly-serviced queues."""

    def __init__(self, simulator: "FunctionalSimulator"):
        self._sim = simulator

    def pop_ldq(self) -> int:
        if self._sim.ldq.is_empty:
            raise RuntimeError(
                "r7 read with empty LDQ: the program consumed more load data "
                "than it requested"
            )
        return self._sim.ldq.pop()

    def push_sdq(self, value: int) -> None:
        self._sim.sdq.push(value)
        self._sim._commit_stores()

    def push_laq(self, address: int) -> None:
        self._sim._service_load(address)

    def push_saq(self, address: int) -> None:
        self._sim.saq.push(address)
        self._sim._commit_stores()


class FunctionalSimulator:
    """Executes a program with full semantics and zero timing."""

    def __init__(
        self,
        program: Program,
        max_steps: int = 50_000_000,
        regions: list[tuple[str, int, int]] | None = None,
    ):
        if program.memory_size > FPU_BASE:
            raise ValueError(
                f"program image ({program.memory_size} bytes) overlaps the "
                f"FPU window at {FPU_BASE:#x}"
            )
        self.program = program
        self.memory = bytearray(program.image)
        self.max_steps = max_steps
        self.regions = list(regions or [])
        self.state = ArchState()
        self.fpu = FpuCore()
        self.ldq: ArchitecturalQueue[int] = ArchitecturalQueue("LDQ")
        self.saq: ArchitecturalQueue[int] = ArchitecturalQueue("SAQ")
        self.sdq: ArchitecturalQueue[int] = ArchitecturalQueue("SDQ")
        self.result = FunctionalResult(
            by_region={name: 0 for name, _b, _e in self.regions}
        )
        self._env = _FunctionalEnv(self)

    # ------------------------------------------------------------------
    # Data memory
    # ------------------------------------------------------------------
    def _check_data_address(self, address: int) -> None:
        if address % WORD_BYTES != 0:
            raise ValueError(f"unaligned data access at {address:#x}")
        if not is_fpu_address(address) and address + WORD_BYTES > len(self.memory):
            raise IndexError(
                f"data access at {address:#x} outside memory of "
                f"{len(self.memory)} bytes"
            )

    def read_word(self, address: int) -> int:
        self._check_data_address(address)
        if is_fpu_address(address):
            return self.fpu.read(address)
        return int.from_bytes(self.memory[address : address + WORD_BYTES], "little")

    def write_word(self, address: int, value: int) -> None:
        self._check_data_address(address)
        if is_fpu_address(address):
            self.fpu.write(address, value)
            self.result.fpu_operations = self.fpu.operations_started
        else:
            self.memory[address : address + WORD_BYTES] = (value & 0xFFFFFFFF).to_bytes(
                WORD_BYTES, "little"
            )

    def _service_load(self, address: int) -> None:
        for pending in self.saq:
            if pending == address:
                raise MemoryOrderingError(
                    f"load from {address:#x} while a store to the same address "
                    "awaits its data (SDQ push missing?)"
                )
        self.ldq.push(self.read_word(address))
        self.result.loads += 1

    def _commit_stores(self) -> None:
        while not self.saq.is_empty and not self.sdq.is_empty:
            address = self.saq.pop()
            value = self.sdq.pop()
            self.write_word(address, value)
            self.result.stores += 1

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------
    def _count_region(self, pc: int) -> None:
        for name, begin, end in self.regions:
            if begin <= pc < end:
                self.result.by_region[name] += 1

    def step_stream(self):
        """Yield ``(pc, instruction)`` pairs as the program executes.

        The generator drives execution: each yielded pair has already been
        executed.  Used by tests that want to trace the dynamic stream.
        """
        pc = self.program.entry_point
        pending: list[int | bool] | None = None  # [remaining, taken, target]
        steps = 0
        while True:
            if steps >= self.max_steps:
                raise SimulationLimitExceeded(
                    f"no HALT after {self.max_steps} instructions"
                )
            instruction, size = decode_instruction(self.memory, pc, self.program.fmt)
            outcome = execute(instruction, self.state, self._env)
            steps += 1
            self.result.instructions += 1
            if self.regions:
                self._count_region(pc)
            if instruction.op.op_class == OpClass.BRANCH:
                self.result.branches += 1
                if outcome.branch_taken:
                    self.result.branches_taken += 1
            yield pc, instruction
            if outcome.halted:
                self.result.halted = True
                if not self.saq.is_empty or not self.sdq.is_empty:
                    raise RuntimeError(
                        "program halted with unpaired store address/data "
                        f"(SAQ={len(self.saq)}, SDQ={len(self.sdq)})"
                    )
                return
            next_pc = pc + size
            if outcome.is_branch:
                if pending is not None:
                    raise RuntimeError(
                        f"PBR at {pc:#x} while another branch is pending"
                    )
                pending = [outcome.branch_delay, outcome.branch_taken,
                           outcome.branch_target]
            elif pending is not None:
                pending[0] = int(pending[0]) - 1
            if pending is not None and int(pending[0]) <= 0:
                if pending[1]:
                    next_pc = int(pending[2])
                pending = None
            pc = next_pc

    def run(self) -> FunctionalResult:
        """Run to HALT and return the result statistics."""
        for _pc, _instruction in self.step_stream():
            pass
        return self.result


def run_functional(
    program: Program,
    max_steps: int = 50_000_000,
    regions: list[tuple[str, int, int]] | None = None,
) -> FunctionalResult:
    """Convenience wrapper: run ``program`` functionally and return stats."""
    return FunctionalSimulator(program, max_steps=max_steps, regions=regions).run()
