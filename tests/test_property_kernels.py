"""Property test: random DSL kernels run identically everywhere.

Hypothesis generates small random kernels (random expression trees over
random arrays, scalars, and constants); each is compiled, assembled, and
run on the functional simulator *and* the cycle-level simulator, and
both must produce bit-identical memory against the reference
interpreter.  This hammers the compiler's operand scheduling (LDQ FIFO
discipline, scratch allocation, store pairing) far beyond the 14 fixed
loops.
"""

import math
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.core.config import MachineConfig
from repro.core.simulator import Simulator
from repro.cpu.functional import FunctionalSimulator
from repro.kernels.codegen import CompileError, compile_kernel
from repro.kernels.dsl import (
    Affine,
    ArrayDecl,
    BinOp,
    ConstRef,
    Kernel,
    Load,
    ScalarRef,
    ScalarUpdate,
    Store,
)
from repro.kernels.reference import f32, run_kernel_reference
from repro.memory.fpu import FPU_BASE

ARRAYS = ("a", "b", "c")
ITERATIONS = 5
# Must cover the worst generated access: mult 2, offset 2 at i=4 -> 10.
ARRAY_LENGTH = 2 * (ITERATIONS - 1) + 2 + 2

# Values chosen to avoid overflow/NaN explosions over a few iterations.
safe_floats = st.floats(min_value=0.05, max_value=2.0, allow_nan=False)

affine = st.builds(
    Affine,
    mult=st.sampled_from((1, 1, 1, 2)),
    offset=st.integers(min_value=0, max_value=2),
)

loads = st.builds(Load, array=st.sampled_from(ARRAYS), index=affine)
consts = st.builds(ConstRef, name=st.sampled_from(("k0", "k1")))
scalars = st.builds(ScalarRef, name=st.just("s0"))
leaves = st.one_of(loads, loads, consts, scalars)


def binops(children):
    return st.builds(
        BinOp, op=st.sampled_from("+-*+-*/"), lhs=children, rhs=children
    )


expressions = st.recursive(leaves, binops, max_leaves=6)

statements = st.one_of(
    st.builds(
        Store, array=st.sampled_from(ARRAYS), index=affine, expr=expressions
    ),
    st.builds(ScalarUpdate, name=st.just("s0"), expr=expressions),
)


@st.composite
def kernels(draw):
    body = tuple(draw(st.lists(statements, min_size=1, max_size=3)))
    return Kernel(
        number=1,
        name="random",
        iterations=ITERATIONS,
        statements=body,
        consts={"k0": draw(safe_floats), "k1": draw(safe_floats)},
        scalars={"s0": draw(safe_floats)},
    )


def build_program(kernel, initial):
    compiled = compile_kernel(kernel)
    lines = [
        "        .entry start",
        "start:",
        f"        li r6, {FPU_BASE & 0xFFFF}",
        f"        lih r6, {FPU_BASE >> 16}",
    ]
    lines += compiled.text_lines
    lines.append("        halt")
    lines += compiled.data
    for name in ARRAYS:
        rendered = ", ".join(repr(v) for v in initial[name])
        lines.append("        .align 4")
        lines.append(f"{name}:")
        lines.append(f"        .float {rendered}")
    return assemble("\n".join(lines) + "\n")


def extract(memory, program, name):
    base = program.symbols[name]
    return [
        struct.unpack("<f", bytes(memory[base + 4 * j : base + 4 * j + 4]))[0]
        for j in range(ARRAY_LENGTH)
    ]


def same(left, right):
    return all(
        x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(left, right)
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(kernels(), st.lists(safe_floats, min_size=3, max_size=3))
def test_random_kernel_equivalence(kernel, seeds):
    # The DSL allows deeper trees than the register pool; skip those.
    # Every kernel that *compiles* must run correctly everywhere.
    try:
        build_program(kernel, {name: [0.5] * ARRAY_LENGTH for name in ARRAYS})
    except CompileError:
        return

    initial = {
        name: [f32(seed + 0.1 * j) for j in range(ARRAY_LENGTH)]
        for name, seed in zip(ARRAYS, seeds)
    }
    program = build_program(kernel, initial)

    reference = {name: list(values) for name, values in initial.items()}
    run_kernel_reference(kernel, reference)

    functional = FunctionalSimulator(program)
    functional.run()
    for name in ARRAYS:
        assert same(extract(functional.memory, program, name), reference[name])

    timing = Simulator(
        MachineConfig.pipe("16-16", 32, memory_access_time=6, input_bus_width=4),
        program,
    )
    timing.run()
    for name in ARRAYS:
        assert same(extract(timing.backend.stream.memory, program, name), reference[name])
