"""Integration tests of the cycle-level simulator as a whole."""

import gc
import weakref

import pytest

from repro.asm import assemble
from repro.core.config import FetchStrategy, MachineConfig
from repro.core.fuzz import FUZZ_CONFIGS
from repro.core.scheduler import ENGINES
from repro.core.simulator import (
    DeadlockError,
    SimulationTimeout,
    Simulator,
    simulate,
)
from repro.cpu.functional import FunctionalSimulator
from repro.isa.encoding import InstructionFormat

LOOP = """
    li r1, 20
    la r2, data
    li r3, 0
    lbr b0, loop
loop:
    ldx r2, r3
    popq r4
    add r4, r4, r4
    stx r2, r3
    pushq r4
    addi r3, r3, 4
    subi r1, r1, 1
    pbrne b0, r1, 2
    nop
    nop
    halt
    .align 4
data:
    .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
    .word 11, 12, 13, 14, 15, 16, 17, 18, 19, 20
"""


class TestDeterminism:
    def test_identical_runs(self):
        program = assemble(LOOP)
        config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
        first = simulate(config, program)
        second = simulate(config, program)
        assert first.cycles == second.cycles
        assert first.stalls == second.stalls
        assert first.memory.input_bus_bytes == second.memory.input_bus_bytes


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("strategy", ["pipe", "conventional"])
    def test_same_instruction_stream_and_memory(self, strategy):
        program = assemble(LOOP)
        functional = FunctionalSimulator(program)
        functional_result = functional.run()

        if strategy == "pipe":
            config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
        else:
            config = MachineConfig.conventional(128, memory_access_time=6)
        simulator = Simulator(config, program)
        timing_result = simulator.run()

        assert timing_result.instructions == functional_result.instructions
        assert timing_result.loads == functional_result.loads
        assert timing_result.stores == functional_result.stores
        assert bytes(simulator.backend.stream.memory) == bytes(functional.memory)

    def test_timing_never_beats_one_ipc(self):
        program = assemble(LOOP)
        result = simulate(MachineConfig.pipe("16-16", 512,
                                             memory_access_time=1), program)
        assert result.cycles >= result.instructions


class TestQueueAccounting:
    def test_push_pop_balance(self):
        program = assemble(LOOP)
        result = simulate(MachineConfig.pipe("16-16", 128), program)
        for name in ("LAQ", "LDQ", "SAQ", "SDQ"):
            snapshot = result.queues[name]
            assert snapshot.pushes == snapshot.pops, name
        assert result.queues["LAQ"].pushes == result.loads
        assert result.queues["SAQ"].pushes == result.stores


class TestGuards:
    def test_timeout(self):
        program = assemble("loop: lbr b0, loop\npbra b0, 0\nhalt")
        config = MachineConfig.pipe("16-16", 512, max_cycles=2_000)
        with pytest.raises(SimulationTimeout):
            simulate(config, program)

    def test_starved_frontend_reports_deadlock_with_frontend_state(self):
        """A frontend that stops supplying instructions and stops asking
        for memory is a livelock: nothing moves, so the progress signature
        freezes and the run must die as a DeadlockError naming the
        frontend — not limp on to SimulationTimeout."""
        program = assemble("loop: lbr b0, loop\npbra b0, 0\nhalt")
        config = MachineConfig.pipe("16-16", 512, max_cycles=2_000)
        sim = Simulator(config, program)
        sim.DEADLOCK_CYCLES = 200
        sim.frontend.next_instruction = lambda: None
        sim.frontend.poll_requests = lambda now: []
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "PipeFetchUnit" in message
        assert "IQ=" in message

    def test_format_mismatch_rejected(self):
        program = assemble("halt", fmt=InstructionFormat.PARCEL)
        with pytest.raises(ValueError, match="assembled for"):
            Simulator(MachineConfig.pipe("16-16", 128), program)

    def test_parcel_format_runs(self):
        program = assemble(LOOP, fmt=InstructionFormat.PARCEL)
        config = MachineConfig.pipe(
            "16-16", 128, instruction_format=InstructionFormat.PARCEL
        )
        result = simulate(config, program)
        assert result.halted
        assert result.instructions > 20


class TestStrategySelection:
    def test_pipe_frontend_instantiated(self):
        from repro.frontend.pipe_fetch import PipeFetchUnit

        simulator = Simulator(MachineConfig.pipe("8-8", 64), assemble("halt"))
        assert isinstance(simulator.frontend, PipeFetchUnit)

    def test_conventional_frontend_instantiated(self):
        from repro.frontend.conventional import ConventionalFetchUnit

        simulator = Simulator(MachineConfig.conventional(64), assemble("halt"))
        assert isinstance(simulator.frontend, ConventionalFetchUnit)

    def test_strategy_enum_on_result(self):
        result = simulate(MachineConfig.conventional(64), assemble("halt"))
        assert result.config.fetch_strategy is FetchStrategy.CONVENTIONAL


class TestResultReporting:
    def test_summary_renders(self):
        result = simulate(MachineConfig.pipe("16-16", 128), assemble(LOOP))
        text = result.summary()
        assert "cycles" in text
        assert "icache" in text
        assert str(result.cycles) in text

    def test_rates(self):
        result = simulate(MachineConfig.pipe("16-16", 128), assemble(LOOP))
        assert 0 < result.ipc <= 1.0
        assert result.cpi == pytest.approx(1.0 / result.ipc)


class TestRelease:
    @pytest.mark.parametrize("engine", [tag for tag, _kwargs in ENGINES])
    @pytest.mark.parametrize("machine", sorted(FUZZ_CONFIGS))
    def test_finished_machine_is_freed_by_reference_counting(
        self, machine, engine, tiny_program
    ):
        """No reference cycle keeps a finished machine alive, so it does
        not wait for the cyclic collector; the replay controller's
        reports still answer after the run has released it."""
        gc.disable()
        try:
            sim = Simulator(
                FUZZ_CONFIGS[machine](), tiny_program, **dict(ENGINES)[engine]
            )
            sim.run()
            if sim.replay_controller is not None:
                assert sim.replay_controller.loop_reports()
            refs = [weakref.ref(obj) for obj in (sim, sim.frontend, sim.cache)]
            del sim
            assert [ref() is None for ref in refs] == [True, True, True]
        finally:
            gc.enable()
