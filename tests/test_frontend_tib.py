"""Behavioural tests of the Target Instruction Buffer frontend."""

import pytest

from repro.asm import assemble
from repro.core.config import MachineConfig
from repro.core.simulator import Simulator, simulate
from repro.cpu.functional import FunctionalSimulator

LOOP = """
    li r1, 30
    lbr b0, loop
    loop:
    nop
    nop
    subi r1, r1, 1
    pbrne b0, r1, 2
    nop
    nop
    halt
"""


def run(source, config):
    return simulate(config, assemble(source))


class TestSemantics:
    def test_matches_functional(self, tiny_program):
        functional = FunctionalSimulator(tiny_program)
        functional_result = functional.run()
        simulator = Simulator(
            MachineConfig.tib(4, 16, memory_access_time=6), tiny_program
        )
        result = simulator.run()
        assert result.instructions == functional_result.instructions
        assert bytes(simulator.backend.stream.memory) == bytes(functional.memory)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MachineConfig.tib(0, 16)
        with pytest.raises(ValueError):
            MachineConfig.tib(4, 2)
        with pytest.raises(ValueError):
            MachineConfig.tib(4, 16, stream_buffer_bytes=8)

    def test_describe(self):
        assert "TIB 4x16B" in MachineConfig.tib(4, 16).describe()


class TestTargetCapture:
    def test_first_visit_misses_then_hits(self):
        program = assemble(LOOP)
        simulator = Simulator(MachineConfig.tib(4, 16, memory_access_time=6), program)
        result = simulator.run()
        stats = simulator.frontend.stats
        # 29 taken branches to one target: 1 compulsory miss, 28 hits.
        assert stats.tib_misses == 1
        assert stats.tib_hits == 28
        assert result.halted

    def test_capacity_evictions(self):
        """More hot targets than entries: the LRU entry gets replaced."""
        source = """
            li r1, 20
            lbr b0, a
            lbr b1, b
            lbr b2, c
            a:
            subi r1, r1, 1
            pbrne b1, r1, 1
            nop
            b:
            nop
            pbrne b2, r1, 1
            nop
            c:
            nop
            pbrne b0, r1, 1
            nop
            halt
        """
        program = assemble(source)
        one = Simulator(MachineConfig.tib(1, 16, memory_access_time=6), program)
        one.run()
        four = Simulator(MachineConfig.tib(4, 16, memory_access_time=6), program)
        four.run()
        assert four.frontend.stats.tib_hit_rate > one.frontend.stats.tib_hit_rate

    def test_bigger_entries_supply_more_bytes(self):
        program = assemble(LOOP)
        small = Simulator(MachineConfig.tib(4, 8, memory_access_time=6), program)
        small_result = small.run()
        large = Simulator(MachineConfig.tib(4, 24, memory_access_time=6), program)
        large_result = large.run()
        assert (
            large.frontend.stats.tib_bytes_supplied
            > small.frontend.stats.tib_bytes_supplied
        )
        assert large_result.cycles <= small_result.cycles


class TestOffChipTraffic:
    def test_tib_streams_far_more_than_a_cache(self, tiny_program):
        """Section 2.1: 'the use of a TIB implies large amounts of
        off-chip accessing' — there is no cache to capture loops."""
        tib = simulate(MachineConfig.tib(4, 16, memory_access_time=6), tiny_program)
        cached = simulate(
            MachineConfig.pipe("16-16", 128, memory_access_time=6), tiny_program
        )
        tib_ifetch = (
            tib.memory.ifetch_demand_accepted + tib.memory.ifetch_prefetch_accepted
        )
        pipe_ifetch = (
            cached.memory.ifetch_demand_accepted
            + cached.memory.ifetch_prefetch_accepted
        )
        assert tib_ifetch > pipe_ifetch * 3

    def test_small_tib_beats_small_conventional_cache(self, tiny_program):
        """Section 2.1: 'a small TIB can provide better performance than
        a simple small instruction cache'."""
        tib = simulate(MachineConfig.tib(4, 16, memory_access_time=6), tiny_program)
        conventional = simulate(
            MachineConfig.conventional(32, memory_access_time=6), tiny_program
        )
        assert tib.cycles < conventional.cycles
