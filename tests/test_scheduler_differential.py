"""Two-engine differential matrix.

The compiled engine (``skip=True``: the generated step kernel with
idle-cycle skipping and steady-state loop replay) promises **identical
accounting**: for any configuration it must produce the same cycle
count and the same stats dict as the reference cycle-by-cycle loop.
It runs untraced only: a traced run takes the reference loop on both
rows, so the JSONL event stream is the reference loop's by
construction.  This suite enforces both over the same configuration
matrix ``test_trace_crosscheck`` sweeps (all Table II PIPE points,
Hill's prefetch policies, the TIB machine, and the ablation knobs), and
pins down the satellite guarantees: errors raised mid-skip, mid-replay,
or inside a compiled kernel report the true architectural cycle, and
the switches select exactly one engine: ``skip=False`` (and
``replay=False`` or ``compiled=False``) runs the reference loop, and
no environment variable selects one.

Every engine comparison names its rows from
:data:`repro.core.scheduler.ENGINES`.

On mismatch a cycles-diff report is written to
``test-reports/cycles-diff.txt`` (override the directory with
``REPRO_DIFF_REPORT_DIR``) so CI can upload it as an artifact.
"""

import json
import os
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core import simulator as simulator_module
from repro.core.compiled import compile_stats, kernel_for
from repro.core.config import MachineConfig, PrefetchPolicy
from repro.core.scheduler import ENGINES
from repro.core.simulator import (
    DeadlockError,
    SimulationTimeout,
    Simulator,
    simulate,
)
from repro.core.trace import JsonLinesSink, Tracer
from repro.isa.encoding import InstructionFormat
from repro.kernels.suite import build_livermore_program
from repro.memory.fpu import FPU_TRIGGER_DIV
from repro.memory.fpu_timing import TimedFpu
from tests.test_trace_crosscheck import CONFIGS

#: engine kwargs by row name
ROW = dict(ENGINES)

#: the fast-path rows compared against the reference row
FAST_TAGS = ("compiled",)


@pytest.fixture(scope="module")
def single_loop_program():
    return build_livermore_program(scale=0.05, loops=(3,))


def _report_mismatch(name: str, lines: list[str]) -> None:
    """Append a cycles-diff report for CI to upload on failure."""
    report_dir = Path(os.environ.get("REPRO_DIFF_REPORT_DIR", "test-reports"))
    report_dir.mkdir(parents=True, exist_ok=True)
    with open(report_dir / "cycles-diff.txt", "a", encoding="utf-8") as fh:
        fh.write(f"=== {name} ===\n")
        for line in lines:
            fh.write(line + "\n")


def _compare(name: str, tag: str, fast, ref):
    """Cycles / stats-dict equality with a diff report."""
    lines: list[str] = []
    if fast.cycles != ref.cycles:
        lines.append(f"cycles: {tag}={fast.cycles} reference={ref.cycles}")
    dict_fast, dict_ref = fast.to_dict(), ref.to_dict()
    if dict_fast != dict_ref:
        for key in sorted(set(dict_fast) | set(dict_ref)):
            if dict_fast.get(key) != dict_ref.get(key):
                lines.append(
                    f"stats[{key!r}]: {tag}={json.dumps(dict_fast.get(key))} "
                    f"reference={json.dumps(dict_ref.get(key))}"
                )
    if lines:
        _report_mismatch(f"{name} [{tag}]", lines)
    assert lines == [], f"{name} [{tag}] diverged from the reference engine"


def _assert_traced_rows_run_the_reference_loop(config, program, tmp_path):
    """Traced, every row runs the reference loop: it fetches no kernel
    (neither a compile nor a kernel-cache hit), builds no replay
    controller, and writes the reference row's JSONL byte for byte."""
    traces = {}
    for tag, kwargs in ENGINES:
        path = tmp_path / f"{tag}.jsonl"
        tracer = Tracer([JsonLinesSink(path)])
        sim = Simulator(config, program, tracer=tracer, **kwargs)
        before = compile_stats()
        try:
            sim.run()
        finally:
            tracer.close()
        after = compile_stats()
        assert sim.replay_controller is None, tag
        assert after["compiles"] == before["compiles"], tag
        assert after["kernel_cache_hits"] == before["kernel_cache_hits"], tag
        traces[tag] = path.read_bytes()
    for tag in FAST_TAGS:
        assert traces[tag] == traces["reference"], tag


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engines_are_byte_identical(name, single_loop_program, tmp_path):
    """Traced, the compiled row is the reference loop: the kernels carry
    no trace code, so the event stream is the reference loop's."""
    _assert_traced_rows_run_the_reference_loop(
        CONFIGS[name], single_loop_program, tmp_path
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engines_identical_untraced(name, single_loop_program):
    """Untraced, the compiled row (kernel, idle skip and replay) lands
    on the reference loop's books exactly: every reported number comes
    from this row."""
    config = CONFIGS[name]
    results = {
        tag: simulate(config, single_loop_program, **kwargs)
        for tag, kwargs in ENGINES
    }
    for tag in FAST_TAGS:
        _compare(name, tag, results[tag], results["reference"])


def test_replay_actually_engages(single_loop_program):
    """Guard against the matrix passing because replay never fires."""
    config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
    sim = Simulator(config, single_loop_program, **ROW["compiled"])
    result = sim.run()
    controller = sim.replay_controller
    assert controller is not None
    assert controller.replayed_iterations > 0
    assert 0 < controller.replayed_cycles < result.cycles
    reports = controller.loop_reports()
    assert any(report["phase"] == "engaged" for report in reports)


# ----------------------------------------------------------------------
# Errors raised mid-skip/mid-replay/in-kernel must report the true
# architectural cycle and say where the detector fired: inside a
# skipped idle span or on a live cycle (never an engine name).
# ----------------------------------------------------------------------
def test_timeout_mid_skip_reports_true_cycle(single_loop_program):
    # A huge memory latency makes the run quiescent almost immediately,
    # so the compiled engine's idle skip jumps straight into the
    # max_cycles wall.
    config = MachineConfig.conventional(
        128, memory_access_time=1_000, max_cycles=50
    )
    errors = {}
    for tag, kwargs in ENGINES:
        with pytest.raises(SimulationTimeout) as excinfo:
            simulate(config, single_loop_program, **kwargs)
        errors[tag] = excinfo.value
    assert {error.cycle for error in errors.values()} == {50}
    slow = errors["reference"]
    assert slow.fast_path is False
    assert "on a live cycle" in str(slow)
    for tag in FAST_TAGS:
        # the wall fell inside a skip span on every fast engine
        assert errors[tag].fast_path is True, tag
        assert "inside a skipped idle span" in str(errors[tag]), tag
        assert "at cycle 50" in str(errors[tag]), tag


def test_timeout_mid_replay_reports_true_cycle(single_loop_program):
    """Replay must refuse to jump past ``max_cycles``.

    The limit cuts the run off mid-loop, well after replay has engaged;
    both engines must hit the wall at the same architectural cycle with
    the same counters.
    """
    config = MachineConfig.pipe(
        "16-16", 128, memory_access_time=6, max_cycles=600
    )
    cycles = set()
    instructions = set()
    for _tag, kwargs in ENGINES:
        with pytest.raises(SimulationTimeout) as excinfo:
            simulate(config, single_loop_program, **kwargs)
        cycles.add(excinfo.value.cycle)
        instructions.add(
            str(excinfo.value).split(" instructions issued")[0].rsplit("; ")[-1]
        )
    assert cycles == {600}
    assert len(instructions) == 1  # same issue count at the wall


def _starved_simulator(tag: str) -> Simulator:
    program = assemble("loop: lbr b0, loop\npbra b0, 0\nhalt")
    config = MachineConfig.pipe("16-16", 512, max_cycles=100_000)
    sim = Simulator(config, program, **ROW[tag])
    sim.DEADLOCK_CYCLES = 200
    sim.frontend.next_instruction = lambda: None
    sim.frontend.poll_requests = lambda now: []
    return sim


def test_stubbed_machine_deadlocks_on_the_reference_loop():
    """A stubbed machine gets no kernel, so on the compiled row it runs
    the reference loop, with no replay controller, and deadlocks exactly
    as the reference row does: at a live snapshot."""
    with pytest.raises(DeadlockError) as slow:
        _starved_simulator("reference").run()
    sim = _starved_simulator("compiled")
    with pytest.raises(DeadlockError) as fallback:
        sim.run()
    assert sim.replay_controller is None
    assert slow.value.fast_path is False
    assert "at a live snapshot" in str(slow.value)
    assert fallback.value.cycle == slow.value.cycle
    assert str(fallback.value) == str(slow.value)


def test_deadlock_in_compiled_kernel_matches_reference_cycle(monkeypatch):
    """A real wedged machine must deadlock identically from generated code.

    No stubs: a stubbed machine gets no kernel and would only test the
    reference loop.  Sixteen loads in flight overcommit a two-entry
    LAQ/LDQ pair, so nothing can drain (as in
    ``test_cpu_backend.py::test_overcommitted_ldq_is_a_detected_deadlock``).
    """
    loads = "\n".join(["ld r1, value"] * 16)
    drains = "\n".join(["popq r2"] * 16)
    program = assemble(
        f"li r1, 0\n{loads}\n{drains}\nhalt\nvalue: .word 1"
    )
    config = MachineConfig.pipe(
        "16-16", 512, memory_access_time=6, laq_capacity=2, ldq_capacity=2
    )
    kernels = []
    real_kernel_for = simulator_module.kernel_for

    def spy(sim):
        kernels.append(real_kernel_for(sim))
        return kernels[-1]

    monkeypatch.setattr(simulator_module, "kernel_for", spy)
    errors = {}
    for tag, kwargs in ENGINES:
        sim = Simulator(config, program, **kwargs)
        sim.DEADLOCK_CYCLES = 500
        with pytest.raises(DeadlockError) as excinfo:
            sim.run()
        errors[tag] = excinfo.value
    assert len(kernels) == 1 and kernels[0] is not None
    slow = errors["reference"]
    assert slow.fast_path is False
    for tag in FAST_TAGS:
        fast = errors[tag]
        assert fast.cycle == slow.cycle, tag
        assert fast.fast_path is True, tag
        assert "no progress" in str(fast), tag
        assert "inside a skipped idle span" in str(fast), tag
        assert str(fast).split("(")[0] == str(slow).split("(")[0], tag


# ----------------------------------------------------------------------
# Engine switches: each one selects exactly its engine
# ----------------------------------------------------------------------
_SELECTIONS = [pytest.param(kwargs, tag, id=tag) for tag, kwargs in ENGINES] + [
    pytest.param({"skip": False}, "reference", id="skip=False"),
    pytest.param({"replay": False}, "reference", id="replay=False"),
    pytest.param({"compiled": False}, "reference", id="compiled=False"),
    # the reference check of the repository benchmark (e2ebench) makes
    # exactly this call
    pytest.param(
        {"skip": False, "replay": False, "compiled": False},
        "reference",
        id="all-switches-off",
    ),
]


@pytest.mark.parametrize("kwargs, engine", _SELECTIONS)
def test_switches_nest_into_exactly_one_engine(
    kwargs, engine, single_loop_program, monkeypatch
):
    """The reference loop runs no kernel and no replay controller; the
    compiled engine runs both."""
    kernels = []
    real_kernel_for = simulator_module.kernel_for

    def spy(sim):
        kernels.append(sim)
        return real_kernel_for(sim)

    monkeypatch.setattr(simulator_module, "kernel_for", spy)
    config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
    sim = Simulator(config, single_loop_program, **kwargs)
    sim.run()
    compiled = engine == "compiled"
    assert sim.skip is compiled
    assert (sim.replay_controller is not None) is compiled
    assert bool(kernels) is compiled


@pytest.mark.parametrize(
    "kwargs",
    [
        {"replay": False, "compiled": True},
        {"skip": False, "replay": True},
        {"skip": False, "compiled": True},
    ],
    ids=["compiled-without-replay", "replay-without-skip", "compiled-without-skip"],
)
def test_explicit_engine_above_a_disabled_one_raises(kwargs):
    with pytest.raises(ValueError, match="needs"):
        Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"), **kwargs)


def test_skip_enabled_by_default():
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"))
    assert sim.skip is True


def test_no_environment_variable_selects_the_engine(monkeypatch):
    """``skip`` is the only switch: the retired ``REPRO_NO_SKIP`` is
    inert, whatever its value."""
    monkeypatch.setenv("REPRO_NO_SKIP", "1")
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"))
    assert sim.skip is True


def test_explicit_skip_argument_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_NO_SKIP", "1")
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"), skip=True)
    assert sim.skip is True


def test_replay_enabled_by_default():
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"))
    sim.run()
    assert sim.replay_controller is not None


def test_compiled_enabled_by_default():
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"))
    assert kernel_for(sim) is not None


# ----------------------------------------------------------------------
# Generated-program matrix (the fuzz layer feeding the same promise)
# ----------------------------------------------------------------------
# A fixed seed slice of generated loop-nest kernels (nested loops,
# conditionals, integer scalars, pointer-chasing) runs both engines.
# The wide seeded sweep lives in `repro-sim fuzz` and the CI fuzz job;
# tier-1 pins these seeds forever so an engine regression on structured
# workloads fails here, not just nightly.
GENERATED_SEEDS = (0, 3, 11, 47, 2026)

_GENERATED_CONFIGS = {
    "pipe-16-16": lambda: MachineConfig.pipe("16-16", 128, memory_access_time=6),
    "tib": lambda: MachineConfig.tib(memory_access_time=6),
}


@pytest.fixture(scope="module")
def generated_programs():
    from repro.kernels.generate import generate_workload
    from repro.kernels.suite import build_kernel_suite

    programs = {}
    for seed in GENERATED_SEEDS:
        workload = generate_workload(seed, "tiny")
        suite = build_kernel_suite(
            [workload.kernel],
            list(workload.arrays),
            source_name=f"gen{seed}.s",
        )
        programs[seed] = suite.program
    return programs


@pytest.mark.parametrize("config_name", sorted(_GENERATED_CONFIGS))
@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_programs_byte_identical(
    seed, config_name, generated_programs, tmp_path
):
    """Traced, the compiled row runs the reference loop on generated
    programs too."""
    _assert_traced_rows_run_the_reference_loop(
        _GENERATED_CONFIGS[config_name](), generated_programs[seed], tmp_path
    )


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_programs_identical_untraced(seed, generated_programs):
    """Untraced, so the kernel runs and replay can engage on the
    generated loop nests, on every generated-program machine."""
    program = generated_programs[seed]
    for config_name, make in sorted(_GENERATED_CONFIGS.items()):
        results = {
            tag: simulate(make(), program, **kwargs) for tag, kwargs in ENGINES
        }
        for tag in FAST_TAGS:
            _compare(
                f"generated seed {seed} on {config_name}",
                tag,
                results[tag],
                results["reference"],
            )


# ----------------------------------------------------------------------
# Parcel-format programs
# ----------------------------------------------------------------------
# In the parcel format an instruction is 2 or 4 bytes, so a 4-byte one
# can straddle two sub-blocks.  The conventional kernel's residency
# test then probes the head parcel and the whole instruction, and a miss
# on the tail parcel fetches the tail's block.
_PARCEL = {"instruction_format": InstructionFormat.PARCEL}
_PARCEL_MACHINES = {
    "pipe 16-16 128B": lambda: MachineConfig.pipe(
        "16-16", 128, memory_access_time=6, **_PARCEL
    ),
    "pipe 16-32 32B bus 4": lambda: MachineConfig.pipe(
        "16-32", 32, memory_access_time=6, input_bus_width=4, **_PARCEL
    ),
    **{
        f"conventional 64B {policy.value}": (
            lambda policy=policy: MachineConfig.conventional(
                64, memory_access_time=6, prefetch_policy=policy, **_PARCEL
            )
        )
        for policy in PrefetchPolicy
    },
    "conventional 64B 2-way": lambda: MachineConfig.conventional(
        64, memory_access_time=6, cache_associativity=2, **_PARCEL
    ),
    "tib": lambda: MachineConfig.tib(memory_access_time=6, **_PARCEL),
}


@pytest.fixture(scope="module")
def parcel_program():
    program = build_livermore_program(
        fmt=InstructionFormat.PARCEL, scale=0.05, loops=(1, 3, 7)
    )
    # the rows exercise a 4-byte instruction across a sub-block boundary
    assert any(
        address % 4 == 2 and program.predecoded.at(address)[1] == 4
        for address, _instruction in program.layout
    )
    return program


@pytest.mark.parametrize("machine", sorted(_PARCEL_MACHINES))
def test_parcel_programs_identical_untraced(machine, parcel_program):
    """Untraced, the compiled row matches the reference row on a
    parcel-format program: cycles and the whole stats dict."""
    _assert_rows_agree(
        f"parcel program on {machine}", _PARCEL_MACHINES[machine](), parcel_program
    )


# ----------------------------------------------------------------------
# Memory-phase corner cases
# ----------------------------------------------------------------------
# The compiled kernel lowers input-bus arbitration, retirement and the
# data engine's poll inline.  The machines above never make two of its
# decisions matter, so each gets a machine that does: a wrong tie-break
# or an off-by-one here fails these tests and nothing else.
def test_input_bus_picks_by_ready_time_before_age():
    """Several reads ready at once on a narrow pipelined bus: the input
    bus takes the smallest ``(tier, ready_at, seq)``, so a request that
    became ready earlier beats an older one that became ready later."""
    from repro.core.fuzz import check_workload
    from repro.kernels.generate import generate_workload

    workload = generate_workload(6, "default")
    config = MachineConfig.pipe(
        "32-32",
        64,
        memory_access_time=3,
        memory_pipelined=True,
        input_bus_width=4,
    )
    assert check_workload(workload.kernel, workload.arrays, config) == []


LDQ_CREDIT_PROGRAM = (
    "    li r1, 0\n"
    + ("    ld r1, value\n" * 4 + "    popq r2\n" * 4) * 2
    + "    halt\nvalue:\n    .word 1\n"
)


def _assert_rows_agree(name, config, program):
    """The compiled row matches the reference row."""
    reference = simulate(config, program, **ROW["reference"])
    for tag in FAST_TAGS:
        _compare(name, tag, simulate(config, program, **ROW[tag]), reference)


def test_ldq_credit_holds_back_the_laq_head():
    """Loads in flight plus LDQ entries never exceed the LDQ capacity:
    with room for two, the third queued load waits at the LAQ head
    until a ``popq`` frees a slot, even though memory could take it."""
    config = MachineConfig.pipe(
        "16-16",
        512,
        memory_access_time=2,
        memory_pipelined=True,
        laq_capacity=4,
        ldq_capacity=2,
    )
    _assert_rows_agree("ldq credit", config, assemble(LDQ_CREDIT_PROGRAM))


#: r6 = 0xF000 (the FPU window): operand A once, twelve back-to-back
#: divide triggers, then the twelve results.
FPU_REFUSAL_PROGRAM = (
    "    li r6, 0x7800\n"
    "    slli r6, r6, 1\n"
    "    st r6, 0\n"
    "    pushq r1\n"
    + "    st r6, 16\n    pushq r1\n" * 12
    + "    ld r6, 32\n    popq r2\n" * 12
    + "    halt\n"
)

#: one machine per frontend, T = 6
_FRONTEND_MACHINES = {
    "pipe": lambda: MachineConfig.pipe("16-16", 128, memory_access_time=6),
    "conventional": lambda: MachineConfig.conventional(128, memory_access_time=6),
    "tib": lambda: MachineConfig.tib(memory_access_time=6),
}


@pytest.mark.parametrize("machine", ["pipe", "conventional"])
def test_fpu_refuses_trigger_stores(machine, monkeypatch):
    """A divide takes 12 cycles and the FPU's op queue holds 8, so
    ``TimedFpu.can_accept`` refuses trigger stores while the queue is
    full, and the store waits at the SAQ head.  On PIPE the refusals
    happen on every row; the conventional machine fetches too slowly to
    fill the queue, so it checks the data-first order on the same
    stores."""
    config = _FRONTEND_MACHINES[machine]()
    program = assemble(FPU_REFUSAL_PROGRAM)
    refused = []
    accepts = TimedFpu.can_accept

    def counting(self, request, now):
        accepted = accepts(self, request, now)
        if not accepted:
            refused.append(request.address)
        return accepted

    # patched on the class, so the machine still gets a kernel
    monkeypatch.setattr(TimedFpu, "can_accept", counting)
    assert kernel_for(Simulator(config, program, **ROW["compiled"])) is not None
    _assert_rows_agree(f"fpu refusal on {machine}", config, program)
    if machine == "pipe":
        for tag, kwargs in ENGINES:
            refused.clear()
            simulate(config, program, **kwargs)
            assert refused and set(refused) == {FPU_TRIGGER_DIV}, tag


#: r1 = 0xF000 (the FPU window), then a jump there.
FPU_FETCH_PROGRAM = (
    "    li r1, 0x7800\n"
    "    slli r1, r1, 1\n"
    "    lbrr b1, r1\n"
    "    pbra b1, 0\n"
    "    halt\n"
)


@pytest.mark.parametrize("strategy", sorted(_FRONTEND_MACHINES))
def test_fetch_into_the_fpu_window_is_never_accepted(strategy):
    """``TimedFpu.can_accept`` refuses every instruction fetch, so after
    the jump the frontend starves and every row detects the same
    deadlock: same cycle, same issue count, and a message that says
    where it was detected but names no engine."""
    config = _FRONTEND_MACHINES[strategy]()
    program = assemble(FPU_FETCH_PROGRAM)
    errors = {}
    for tag, kwargs in ENGINES:
        with pytest.raises(DeadlockError) as excinfo:
            simulate(config, program, **kwargs)
        errors[tag] = excinfo.value
    assert {error.cycle for error in errors.values()} == {20_480}
    messages = {tag: str(error) for tag, error in errors.items()}
    assert {
        message.split(" instructions issued")[0].rsplit("; ")[-1]
        for message in messages.values()
    } == {"4"}
    for tag, message in messages.items():
        assert message.startswith("no progress since cycle 256 "), tag
        for engine, _kwargs in ENGINES:
            assert engine not in message, (tag, engine)
