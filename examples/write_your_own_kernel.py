#!/usr/bin/env python3
"""Compile your own kernel with the mini PIPE compiler.

Defines SAXPY (``y[i] = a*x[i] + y[i]``) in the kernel DSL, compiles it
to PIPE assembly, shows the generated code (note the FPU store pairs,
the queue-register traffic, and the prepare-to-branch with its filled
delay slots), validates the run bit-exactly against the reference
interpreter, and times it on the cycle-level machine.

Run with::

    python examples/write_your_own_kernel.py
"""

import struct

from repro.asm import assemble
from repro.core import MachineConfig, Simulator
from repro.cpu.functional import FunctionalSimulator
from repro.kernels import (
    Affine,
    ArrayDecl,
    ConstRef,
    Kernel,
    Load,
    Store,
    add,
    compile_kernel,
    f32,
    mul,
    run_kernel_reference,
)
from repro.memory.fpu import FPU_BASE

N = 64


def build_saxpy() -> Kernel:
    return Kernel(
        number=1,
        name="saxpy",
        iterations=N,
        consts={"a": 1.75},
        statements=(
            Store(
                "y",
                Affine(),
                add(mul(ConstRef("a"), Load("x", Affine())), Load("y", Affine())),
            ),
        ),
    )


def main() -> None:
    kernel = build_saxpy()
    compiled = compile_kernel(kernel)

    print("=== generated inner loop " + "=" * 34)
    for line in compiled.loop_body:
        print(f"    {line}")
    print(f"({compiled.body_instruction_count} instructions per iteration)\n")

    # Assemble a complete program around the kernel.
    x_init = [f32(0.25 + 0.01 * i) for i in range(N)]
    y_init = [f32(1.0 - 0.005 * i) for i in range(N)]
    lines = [
        "        .entry start",
        "start:",
        f"        li r6, {FPU_BASE & 0xFFFF}",
        f"        lih r6, {FPU_BASE >> 16}",
    ]
    lines += compiled.text_lines
    lines.append("        halt")
    lines += compiled.data
    for name, values in (("x", x_init), ("y", y_init)):
        lines.append("        .align 4")
        lines.append(f"{name}:")
        lines.append("        .float " + ", ".join(repr(v) for v in values))
    program = assemble("\n".join(lines) + "\n")

    # Reference semantics (bit-exact float32).
    reference = {"x": list(x_init), "y": list(y_init)}
    run_kernel_reference(kernel, reference)

    # Functional run.
    functional = FunctionalSimulator(program)
    functional.run()
    base = program.symbols["y"]
    got = [
        struct.unpack("<f", bytes(functional.memory[base + 4 * i: base + 4 * i + 4]))[0]
        for i in range(N)
    ]
    assert got == reference["y"], "functional result mismatch!"
    print("functional simulation matches the reference bit-for-bit")

    # Cycle-level run on two machines.
    for label, config in (
        ("PIPE 16-16, 64B cache, T=6", MachineConfig.pipe("16-16", 64)),
        ("conventional, 64B cache, T=6", MachineConfig.conventional(64)),
    ):
        simulator = Simulator(config, program)
        result = simulator.run()
        assert bytes(simulator.backend.stream.memory) == bytes(functional.memory)
        print(
            f"{label:<32} {result.cycles:>6} cycles, IPC {result.ipc:.3f}, "
            f"{result.fpu_operations} FPU ops"
        )

    print("\ny[0:4] =", [round(v, 5) for v in got[:4]])


if __name__ == "__main__":
    main()
