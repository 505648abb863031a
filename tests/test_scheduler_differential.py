"""Four-way engine differential matrix.

The fast-path engines promise **trace-identical accounting**: for any
configuration, the idle-cycle-skipping scheduler (``skip=True``), the
steady-state loop-replay engine layered on top of it
(``skip=True, replay=True``), and the compiled step kernel
(``compiled=True``, which folds both fast paths into generated code)
must all produce the same cycle count, the same stats dict, and a
byte-identical JSONL event stream as the reference cycle-by-cycle
loop.  This suite enforces that promise over the same configuration
matrix ``test_trace_crosscheck`` sweeps (all Table II PIPE points,
Hill's prefetch policies, the TIB machine, and the ablation knobs),
and pins down the satellite guarantees: errors raised mid-skip,
mid-replay, or inside a compiled kernel report the true architectural
cycle, and the switches nest: ``skip=False`` / ``REPRO_NO_SKIP`` runs
the reference loop, ``replay=False`` idle-skip, ``compiled=False``
interpreted skip+replay.

Every engine comparison names its rows from
:data:`repro.core.scheduler.ENGINES` (all three switches explicit), the
switch tests set ``REPRO_NO_SKIP`` when they are about it, and it is
cleared before every test, so no result here depends on the
environment the suite runs in.

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
from repro.core.config import MachineConfig
from repro.core.scheduler import (
    ENGINES,
    IDLE,
    ProgressClock,
    skip_enabled_default,
)
from repro.core.simulator import (
    DeadlockError,
    SimulationTimeout,
    Simulator,
    simulate,
    simulate_traced,
)
from repro.kernels.suite import build_livermore_program
from tests.test_trace_crosscheck import CONFIGS

#: engine kwargs by row name
ROW = dict(ENGINES)

#: the fast-path rows compared against the reference row
FAST_TAGS = ("idle-skip", "skip+replay", "compiled")


@pytest.fixture(autouse=True)
def _no_engine_env(monkeypatch):
    """Tests about ``REPRO_NO_SKIP`` set it themselves."""
    monkeypatch.delenv("REPRO_NO_SKIP", raising=False)


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


def _first_trace_divergence(tag: str, fast: Path, ref: Path) -> list[str]:
    fast_lines = fast.read_text().splitlines()
    ref_lines = ref.read_text().splitlines()
    for index, (a, b) in enumerate(zip(fast_lines, ref_lines)):
        if a != b:
            return [
                f"first divergence at trace line {index + 1}:",
                f"  {tag}: {a}",
                f"  reference: {b}",
            ]
    return [
        f"trace lengths differ: {tag}={len(fast_lines)} "
        f"reference={len(ref_lines)} lines"
    ]


def _compare(name: str, tag: str, fast, ref, fast_path=None, ref_path=None):
    """Cycles / stats-dict / trace-bytes equality with a diff report."""
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
    if fast_path is not None and fast_path.read_bytes() != ref_path.read_bytes():
        lines.extend(_first_trace_divergence(tag, fast_path, ref_path))
    if lines:
        _report_mismatch(f"{name} [{tag}]", lines)
    assert lines == [], f"{name} [{tag}] diverged from the reference engine"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engines_are_byte_identical(name, single_loop_program, tmp_path):
    """Reference vs idle-skip vs skip+replay vs compiled, traced."""
    config = CONFIGS[name]
    runs = {}
    for tag, kwargs in ENGINES:
        path = tmp_path / f"{tag.replace('+', '-')}.jsonl"
        result = simulate_traced(config, single_loop_program, path, **kwargs)
        runs[tag] = (result, path)
    ref_result, ref_path = runs["reference"]
    for tag in FAST_TAGS:
        result, path = runs[tag]
        _compare(name, tag, result, ref_result, path, ref_path)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engines_identical_untraced(name, single_loop_program):
    """Without a tracer the stats books must still agree exactly.

    This is the configuration under which replay actually engages on
    data-striding loops (trace batches with striding payloads block
    engagement when traced), so it is the stronger replay and compiled
    check: the compiled kernel specializes the tracer branches away
    entirely and still has to land on the same books.
    """
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
    for tag in ("skip+replay", "compiled"):
        sim = Simulator(config, single_loop_program, **ROW[tag])
        result = sim.run()
        controller = sim.replay_controller
        assert controller is not None, tag
        assert controller.replayed_iterations > 0, tag
        assert 0 < controller.replayed_cycles < result.cycles, tag
        reports = controller.loop_reports()
        assert any(report["phase"] == "engaged" for report in reports), tag


# ----------------------------------------------------------------------
# Errors raised mid-skip/mid-replay/in-kernel must report the true
# architectural cycle and name the engine that was active (satellite:
# error fidelity).
# ----------------------------------------------------------------------
def test_timeout_mid_skip_reports_true_cycle(single_loop_program):
    # A huge memory latency makes the run quiescent almost immediately,
    # so the skip engine jumps straight into the max_cycles wall.
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
    assert "reference" in str(slow)
    for tag in FAST_TAGS:
        # the wall fell inside a skip span on every fast engine
        assert errors[tag].fast_path is True, tag
        assert "idle-skip" in str(errors[tag]), tag
        assert "at cycle 50" in str(errors[tag]), tag


def test_timeout_mid_replay_reports_true_cycle(single_loop_program):
    """Replay must refuse to jump past ``max_cycles``.

    The limit cuts the run off mid-loop, well after replay has engaged;
    all four engines must hit the wall at the same architectural cycle
    with the same counters.
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


def test_deadlock_mid_skip_matches_reference_cycle():
    with pytest.raises(DeadlockError) as slow:
        _starved_simulator("reference").run()
    assert slow.value.fast_path is False
    assert "reference" in str(slow.value)
    for tag in ("idle-skip", "skip+replay"):
        with pytest.raises(DeadlockError) as fast:
            _starved_simulator(tag).run()
        assert fast.value.cycle == slow.value.cycle, tag
        assert fast.value.fast_path is True, tag
        assert "no progress" in str(fast.value), tag
        assert "idle-skip" in str(fast.value), tag
        # The engines must also agree on when progress last happened.
        assert str(fast.value).split("(")[0] == str(slow.value).split("(")[0]


def test_deadlock_in_compiled_kernel_matches_reference_cycle(monkeypatch):
    """A real wedged machine must deadlock identically from generated code.

    No stubs: a stubbed machine gets no kernel and would only test the
    interpreted loop.  Sixteen loads in flight overcommit a two-entry
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
        assert "idle-skip" in str(fast), tag
        assert str(fast).split("(")[0] == str(slow).split("(")[0], tag


# ----------------------------------------------------------------------
# Engine switches: each one selects exactly its engine
# ----------------------------------------------------------------------
_SELECTIONS = [pytest.param(kwargs, {}, tag, id=tag) for tag, kwargs in ENGINES] + [
    pytest.param({"skip": False}, {}, "reference", id="skip=False"),
    pytest.param({}, {"REPRO_NO_SKIP": "1"}, "reference", id="REPRO_NO_SKIP"),
    pytest.param({"replay": False}, {}, "idle-skip", id="replay=False"),
]


@pytest.mark.parametrize("kwargs, env, engine", _SELECTIONS)
def test_switches_nest_into_exactly_one_engine(
    kwargs, env, engine, single_loop_program, monkeypatch
):
    """The reference loop runs no kernel and no replay controller, and
    idle-skip no kernel: replay needs skip, compiled needs replay."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    kernels = []
    real_kernel_for = simulator_module.kernel_for

    def spy(sim):
        kernels.append(sim)
        return real_kernel_for(sim)

    monkeypatch.setattr(simulator_module, "kernel_for", spy)
    config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
    sim = Simulator(config, single_loop_program, **kwargs)
    sim.run()
    want = ROW[engine]
    assert (sim.skip, sim.replay_enabled, sim.compiled_enabled) == (
        want["skip"],
        want["replay"],
        want["compiled"],
    )
    assert (sim.replay_controller is not None) is want["replay"]
    assert bool(kernels) is want["compiled"]


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


def test_no_skip_env_var_disables_skipping(monkeypatch):
    monkeypatch.setenv("REPRO_NO_SKIP", "1")
    assert skip_enabled_default() is False
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"))
    assert sim.skip is False


def test_skip_enabled_by_default():
    assert skip_enabled_default() is True
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"))
    assert sim.skip is True


def test_explicit_skip_argument_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_NO_SKIP", "1")
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"), skip=True)
    assert sim.skip is True


def test_replay_enabled_by_default():
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"))
    assert sim.replay_enabled is True


def test_replay_false_matches_replay_true(single_loop_program):
    config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
    on = simulate(config, single_loop_program, **ROW["skip+replay"])
    off = simulate(config, single_loop_program, **ROW["idle-skip"])
    assert on.to_dict() == off.to_dict()


def test_compiled_enabled_by_default():
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"))
    assert sim.compiled_enabled is True


def test_compiled_false_matches_compiled_true(single_loop_program):
    config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
    on = simulate(config, single_loop_program, **ROW["compiled"])
    off = simulate(config, single_loop_program, **ROW["skip+replay"])
    assert on.to_dict() == off.to_dict()


# ----------------------------------------------------------------------
# Generated-program matrix (the fuzz layer feeding the same promise)
# ----------------------------------------------------------------------
# A fixed seed slice of generated loop-nest kernels (nested loops,
# conditionals, integer scalars, pointer-chasing) runs all four engines
# traced.  The wide seeded sweep lives in `repro-sim fuzz` and the CI
# fuzz job; tier-1 pins these seeds forever so an engine regression on
# structured workloads fails here, not just nightly.
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
    config = _GENERATED_CONFIGS[config_name]()
    program = generated_programs[seed]
    runs = {}
    for tag, kwargs in ENGINES:
        path = tmp_path / f"{tag.replace('+', '-')}.jsonl"
        result = simulate_traced(config, program, path, **kwargs)
        runs[tag] = (result, path)
    ref_result, ref_path = runs["reference"]
    for tag in FAST_TAGS:
        result, path = runs[tag]
        _compare(
            f"generated seed {seed} on {config_name}",
            tag,
            result,
            ref_result,
            path,
            ref_path,
        )


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_programs_identical_untraced(seed, generated_programs):
    """Untraced, so replay can engage on the generated loop nests too."""
    config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
    program = generated_programs[seed]
    results = {
        tag: simulate(config, program, **kwargs) for tag, kwargs in ENGINES
    }
    for tag in FAST_TAGS:
        _compare(f"generated seed {seed} untraced", tag, results[tag], results["reference"])


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


def test_ldq_credit_holds_back_the_laq_head(tmp_path):
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
    program = assemble(LDQ_CREDIT_PROGRAM)
    runs = {}
    for tag, kwargs in ENGINES:
        path = tmp_path / f"{tag.replace('+', '-')}.jsonl"
        runs[tag] = (simulate_traced(config, program, path, **kwargs), path)
    ref_result, ref_path = runs["reference"]
    for tag in FAST_TAGS:
        result, path = runs[tag]
        _compare("ldq credit", tag, result, ref_result, path, ref_path)
    for tag in FAST_TAGS:
        _compare(
            "ldq credit untraced",
            tag,
            simulate(config, program, **ROW[tag]),
            simulate(config, program, **ROW["reference"]),
        )


# ----------------------------------------------------------------------
# Protocol sanity
# ----------------------------------------------------------------------
def test_progress_clock_ticks():
    clock = ProgressClock()
    assert clock.ticks == 0
    clock.tick()
    assert clock.ticks == 1
    assert "1" in repr(clock)


def test_component_hints_are_idle_when_nothing_pending():
    sim = Simulator(MachineConfig.pipe("16-16", 128), assemble("halt"))
    assert sim.memory.next_event_cycle(0) == IDLE
    assert sim.backend.next_event_cycle(0) == IDLE
    assert sim.engine.next_event_cycle(0) == IDLE
    assert sim.frontend.next_event_cycle(0) == IDLE
    assert sim.cache.next_event_cycle(0) == IDLE
