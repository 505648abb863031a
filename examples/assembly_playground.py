#!/usr/bin/env python3
"""Hand-written PIPE assembly: the architectural queues up close.

Writes a dot-product in raw PIPE assembly, exercising everything the
ISA gives you: loads through the Load Address/Data Queues, stores
through the Store Address/Data Queues, the memory-mapped FPU, the
queue register r7, and a prepare-to-branch with delay slots.

Then runs it at several memory speeds and prints where the cycles go —
watch the ``ldq_empty`` stalls grow as memory slows down, exactly the
effect the architectural queues are designed to tolerate.

Run with::

    python examples/assembly_playground.py
"""

import struct

from repro.asm import assemble
from repro.core import MachineConfig, Simulator
from repro.memory.fpu import FPU_BASE

N = 32

SOURCE = f"""
; dot = sum(x[i] * y[i]) on the PIPE-like machine
        .equ N, {N}
        .entry start
start:
        li   r6, {FPU_BASE & 0xFFFF}      ; r6 -> FPU window
        lih  r6, {FPU_BASE >> 16}
        li   r0, 0            ; byte index 4*i
        li   r1, N            ; trip counter
        li   r2, 0            ; dot product bits (0.0f)
        lbr  b0, loop
loop:
        st   r6, 0            ; FPU operand A  = x[i]
        ld   r0, x
        qtoq
        st   r6, 12           ; trigger multiply, operand B = y[i]
        ld   r0, y
        qtoq
        ld   r6, 32           ; request the product
        st   r6, 0            ; FPU operand A  = dot
        pushq r2
        st   r6, 4            ; trigger add, operand B = product
        qtoq
        ld   r6, 32           ; request the running sum
        subi r1, r1, 1
        pbrne b0, r1, 2       ; two delay slots keep the pipe full
        popq r2               ;   dot = new sum
        addi r0, r0, 4        ;   next element
        li   r3, 0
        st   r3, result
        pushq r2
        halt

        .align 4
x:      .float {", ".join(repr(0.1 + 0.05 * i) for i in range(N))}
y:      .float {", ".join(repr(1.0 - 0.01 * i) for i in range(N))}
result: .word 0
"""


def main() -> None:
    program = assemble(SOURCE, source_name="dot.s")
    expected = 0.0
    xs = [0.1 + 0.05 * i for i in range(N)]
    ys = [1.0 - 0.01 * i for i in range(N)]

    print(f"{'memory':<24}{'cycles':>8}{'IPC':>7}  stalls")
    for access_time, pipelined in ((1, False), (3, False), (6, False), (6, True)):
        config = MachineConfig.pipe(
            "16-16",
            128,
            memory_access_time=access_time,
            memory_pipelined=pipelined,
        )
        simulator = Simulator(config, program)
        result = simulator.run()
        address = program.symbols["result"]
        bits = bytes(simulator.backend.stream.memory[address : address + 4])
        dot = struct.unpack("<f", bits)[0]
        stalls = ", ".join(
            f"{name}={count}" for name, count in result.stalls.items() if count
        )
        label = f"T={access_time}{' pipelined' if pipelined else ''}"
        print(f"{label:<24}{result.cycles:>8}{result.ipc:>7.3f}  {stalls}")
        expected = dot

    # float32 reference
    import numpy as np

    reference = np.float32(0.0)
    for x, y in zip(xs, ys):
        product = np.float32(np.float32(x) * np.float32(y))
        reference = np.float32(reference + product)
    print(f"\ndot product = {expected} (float32 reference {float(reference)})")
    assert expected == float(reference)


if __name__ == "__main__":
    main()
