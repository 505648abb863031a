"""End-to-end equivalence: timing simulator vs functional vs reference.

The cycle-level machine must retire exactly the same instruction stream
and leave exactly the same memory image as the functional simulator, on
the real benchmark, for both fetch strategies and several memory design
points.  Timing must never change semantics.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.simulator import Simulator
from repro.cpu.functional import FunctionalSimulator

CONFIGS = {
    "pipe-16-16-fast": MachineConfig.pipe("16-16", 128, memory_access_time=1),
    "pipe-8-8-slow-narrow": MachineConfig.pipe(
        "8-8", 32, memory_access_time=6, input_bus_width=4
    ),
    "pipe-32-32-pipelined": MachineConfig.pipe(
        "32-32", 64, memory_access_time=6, memory_pipelined=True
    ),
    "pipe-guaranteed-fetch": MachineConfig.pipe(
        "16-16", 64, memory_access_time=3, true_prefetch=False
    ),
    "conventional-slow": MachineConfig.conventional(64, memory_access_time=6),
    "conventional-narrow": MachineConfig.conventional(
        32, memory_access_time=2, input_bus_width=4
    ),
    "pipe-tiny-queues": MachineConfig.pipe(
        "16-16",
        128,
        memory_access_time=6,
        laq_capacity=2,
        ldq_capacity=4,
        saq_capacity=2,
        sdq_capacity=2,
    ),
}


@pytest.fixture(scope="module")
def functional_baseline(tiny_program):
    simulator = FunctionalSimulator(tiny_program)
    result = simulator.run()
    return simulator, result


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_timing_preserves_semantics(name, tiny_program, functional_baseline):
    functional, functional_result = functional_baseline
    simulator = Simulator(CONFIGS[name], tiny_program)
    result = simulator.run()

    assert result.halted
    assert result.instructions == functional_result.instructions
    assert result.loads == functional_result.loads
    assert result.stores == functional_result.stores
    assert result.fpu_operations == functional_result.fpu_operations
    assert result.branches == functional_result.branches
    assert result.branches_taken == functional_result.branches_taken
    assert bytes(simulator.backend.stream.memory) == bytes(functional.memory)


def test_cycle_counts_ordered_by_memory_speed(tiny_program):
    """Slower memory can never make the same machine faster."""
    cycles = []
    for access_time in (1, 2, 3, 6):
        config = MachineConfig.pipe("16-16", 128, memory_access_time=access_time)
        cycles.append(Simulator(config, tiny_program).run().cycles)
    assert cycles == sorted(cycles)


def test_pipelining_never_hurts(tiny_program):
    for strategy in ("pipe", "conventional"):
        if strategy == "pipe":
            base = MachineConfig.pipe("16-16", 64, memory_access_time=6)
        else:
            base = MachineConfig.conventional(64, memory_access_time=6)
        plain = Simulator(base, tiny_program).run().cycles
        piped = Simulator(
            base.with_overrides(memory_pipelined=True), tiny_program
        ).run().cycles
        assert piped <= plain


def test_wider_bus_never_hurts(tiny_program):
    narrow = MachineConfig.pipe("16-16", 64, memory_access_time=6,
                                input_bus_width=4)
    wide = narrow.with_overrides(input_bus_width=8)
    assert (
        Simulator(wide, tiny_program).run().cycles
        <= Simulator(narrow, tiny_program).run().cycles
    )


def test_store_to_load_overlaps_resolved_by_queue_order(tiny_program):
    """The recurrence kernels (LL5/LL11) load values their previous
    iteration stored.  With slow memory the store can still sit in the
    SAQ when the load issues; oldest-first arbitration at the memory
    interface keeps the order right.  The diagnostic counter must see
    these overlaps (the mechanism is exercised), and the bit-exact
    equivalence tests above prove they are resolved correctly."""
    config = MachineConfig.pipe("16-16", 32, memory_access_time=6)
    result = Simulator(config, tiny_program).run()
    assert result.ordering_hazards > 0
    assert result.ordering_hazards < result.loads * 0.1
