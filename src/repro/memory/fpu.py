"""The off-chip floating-point unit, addressed as memory locations.

The paper (section 5): "The processor does not have an on-chip multiply
unit, making an external floating point chip necessary.  The floating
point unit is addressed as a memory location, so that a pair of data
stores to the appropriate locations will cause a multiply to occur.  The
number of clocks necessary to perform a floating point multiply is kept a
constant, and is set to 4 clock cycles."  Results share the return bus
with memory data, arbitrated below loads/stores and above instruction
prefetches.

Address map (all addresses are byte addresses on the output bus)::

    FPU_BASE + 0x00   OPERAND_A   write: latch operand A (float32 bits)
    FPU_BASE + 0x04   TRIGGER_ADD write: operand B; start A + B
    FPU_BASE + 0x08   TRIGGER_SUB write: operand B; start A - B
    FPU_BASE + 0x0C   TRIGGER_MUL write: operand B; start A * B
    FPU_BASE + 0x10   TRIGGER_DIV write: operand B; start A / B
    FPU_BASE + 0x20   RESULT      read: pop the oldest completed result

Results are delivered strictly in operation order (a FIFO), matching the
discipline of the architectural load data queue the program pops them
into.

This module holds the *semantic* core (:class:`FpuCore`): what the
operations compute and the address decoding.  The cycle-level timing
wrapper lives in :mod:`repro.memory.system`.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass

__all__ = [
    "FPU_BASE",
    "FPU_OPERAND_A",
    "FPU_TRIGGER_ADD",
    "FPU_TRIGGER_SUB",
    "FPU_TRIGGER_MUL",
    "FPU_TRIGGER_DIV",
    "FPU_RESULT",
    "FPU_SIZE",
    "FpuCore",
    "FpuLatencies",
    "bits_to_float",
    "float_to_bits",
    "float32_op",
    "is_fpu_address",
]

#: Base byte address of the FPU's register window.  It sits above every
#: program image (images are capped below this address).
FPU_BASE = 0x0000F000

FPU_OPERAND_A = FPU_BASE + 0x00
FPU_TRIGGER_ADD = FPU_BASE + 0x04
FPU_TRIGGER_SUB = FPU_BASE + 0x08
FPU_TRIGGER_MUL = FPU_BASE + 0x0C
FPU_TRIGGER_DIV = FPU_BASE + 0x10
FPU_RESULT = FPU_BASE + 0x20

#: Size of the FPU's address window in bytes.
FPU_SIZE = 0x40

TRIGGER_OPERATIONS = {
    FPU_TRIGGER_ADD: "add",
    FPU_TRIGGER_SUB: "sub",
    FPU_TRIGGER_MUL: "mul",
    FPU_TRIGGER_DIV: "div",
}


def is_fpu_address(address: int) -> bool:
    """True if ``address`` falls in the FPU's register window."""
    return FPU_BASE <= address < FPU_BASE + FPU_SIZE


def bits_to_float(bits: int) -> float:
    """Reinterpret a 32-bit pattern as an IEEE-754 single."""
    return struct.unpack("<f", (bits & 0xFFFFFFFF).to_bytes(4, "little"))[0]


def float_to_bits(value: float) -> int:
    """Round a Python float to IEEE-754 single and return its bit pattern.

    Values too large for float32 become signed infinities, as IEEE
    round-to-nearest would produce.
    """
    try:
        packed = struct.pack("<f", value)
    except OverflowError:
        packed = struct.pack("<f", math.copysign(math.inf, value))
    return int.from_bytes(packed, "little")


def float32_op(kind: str, a_bits: int, b_bits: int) -> int:
    """Compute one FPU operation on float32 bit patterns.

    Division follows IEEE-754: x/0 is a signed infinity, 0/0 is NaN.
    The result is rounded to float32.
    """
    a = bits_to_float(a_bits)
    b = bits_to_float(b_bits)
    if kind == "add":
        result = a + b
    elif kind == "sub":
        result = a - b
    elif kind == "mul":
        result = a * b
    elif kind == "div":
        if b == 0.0:
            if a == 0.0 or math.isnan(a):
                result = math.nan
            else:
                sign = math.copysign(1.0, a) * math.copysign(1.0, b)
                result = math.copysign(math.inf, sign)
        else:
            result = a / b
    else:
        raise ValueError(f"unknown FPU operation {kind!r}")
    return float_to_bits(result)


@dataclass(frozen=True)
class FpuLatencies:
    """Operation latencies in processor clock cycles.

    The paper fixes multiply at 4 cycles; the other operations are not
    specified, so we default them to the same 4 cycles (divide longer,
    as on every real FPU of the era).
    """

    add: int = 4
    sub: int = 4
    mul: int = 4
    div: int = 12

    def latency(self, kind: str) -> int:
        return getattr(self, kind)


class FpuCore:
    """Semantic (untimed) model of the FPU's register window.

    Writes latch operand A or trigger an operation; triggered operations
    append their results to a FIFO; reading :data:`FPU_RESULT` pops the
    oldest result.  The cycle-level wrapper adds the latency and bus
    behaviour; the functional simulator uses this class directly.
    """

    def __init__(self) -> None:
        self._operand_a = 0
        self._results: deque[int] = deque()
        self.operations_started = 0
        self.last_operation: str | None = None

    def write(self, address: int, value: int) -> None:
        """Handle a store into the FPU window."""
        if address == FPU_OPERAND_A:
            self._operand_a = value & 0xFFFFFFFF
            return
        kind = TRIGGER_OPERATIONS.get(address)
        if kind is not None:
            self._results.append(float32_op(kind, self._operand_a, value))
            self.operations_started += 1
            self.last_operation = kind
            return
        raise ValueError(f"store to unmapped FPU address {address:#x}")

    def read_result(self) -> int:
        """Handle a load from the result register (pops the FIFO head)."""
        if not self._results:
            raise RuntimeError(
                "FPU result read with no completed operation pending"
            )
        return self._results.popleft()

    def read(self, address: int) -> int:
        """Handle a load from the FPU window."""
        if address == FPU_RESULT:
            return self.read_result()
        raise ValueError(f"load from unmapped FPU address {address:#x}")
