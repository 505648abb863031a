"""Performance of the simulator itself (not a paper experiment).

Measures simulated-cycles-per-second for each fetch strategy and for
the functional simulator, so regressions in the simulator's own speed
are visible in benchmark history.
"""

import time

import pytest

from repro.core.config import MachineConfig
from repro.core.scheduler import ENGINES
from repro.core.simulator import simulate, simulate_traced
from repro.core.sweep import run_cache_sweep
from repro.cpu.functional import run_functional

CONFIGS = {
    "pipe-16-16": lambda: MachineConfig.pipe("16-16", 128, memory_access_time=6),
    "pipe-8-8-narrow": lambda: MachineConfig.pipe(
        "8-8", 32, memory_access_time=6, input_bus_width=4
    ),
    "conventional": lambda: MachineConfig.conventional(128, memory_access_time=6),
}

#: engine kwargs by :data:`repro.core.scheduler.ENGINES` row name
ROW = dict(ENGINES)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cycle_simulation_speed(name, context, benchmark):
    config = CONFIGS[name]()
    result = benchmark.pedantic(
        lambda: simulate(config, context.program), rounds=1, iterations=1
    )
    assert result.halted
    benchmark.extra_info["simulated_cycles"] = result.cycles
    benchmark.extra_info["instructions"] = result.instructions


def test_functional_simulation_speed(context, benchmark):
    result = benchmark.pedantic(
        lambda: run_functional(context.program), rounds=1, iterations=1
    )
    assert result.halted
    benchmark.extra_info["instructions"] = result.instructions


def test_trace_overhead_when_disabled(context, benchmark):
    """Guard: instrumentation must stay near-free while tracing is off.

    The emit sites live in the reference loop's component methods (the
    compiled kernels hold none, and a traced run always takes the
    reference loop), each one ``if tracer.enabled:`` branch against the
    shared NULL_TRACER.  So both sides run the reference loop
    (``skip=False``), and an untraced run there *is* the
    disabled-tracing path — there is no un-instrumented simulator left
    to measure against in-process.  Two checks keep the cost honest:

    * pytest-benchmark records the disabled-path wall time, so the
      cross-commit history shows any regression in the instrumented
      loop itself;
    * within this run, the disabled path must be at least as fast as the
      same simulation with a live metrics sink (5% noise allowance) —
      if "disabled" ever approaches the cost of actually aggregating
      every event, the guard trips.

    Timings use min-of-N so scheduler noise lengthens neither side.
    """
    config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
    rounds = 3

    def timed(fn) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
            assert result.halted
        return best

    def disabled():
        return simulate(config, context.program, **ROW["reference"])

    enabled_best = timed(lambda: simulate_traced(config, context.program))
    disabled_best = timed(disabled)
    result = benchmark.pedantic(disabled, rounds=1, iterations=1)
    benchmark.extra_info["simulated_cycles"] = result.cycles
    benchmark.extra_info["disabled_seconds"] = round(disabled_best, 4)
    benchmark.extra_info["enabled_metrics_seconds"] = round(enabled_best, 4)
    assert disabled_best <= enabled_best * 1.05, (
        f"disabled tracing took {disabled_best:.3f}s, within 5% of the "
        f"fully aggregated run ({enabled_best:.3f}s) — the disabled "
        "branch is no longer near-free"
    )


_SKIP_CONFIGS = {
    "conventional-128-mat32": lambda: MachineConfig.conventional(
        128, memory_access_time=32
    ),
    "conventional-32-mat32": lambda: MachineConfig.conventional(
        32, memory_access_time=32
    ),
    "conventional-128-mat16": lambda: MachineConfig.conventional(
        128, memory_access_time=16
    ),
}


def _best_of(rounds: int, config, program, engine: str) -> tuple[float, int]:
    """Min-of-``rounds`` wall time of one simulation on one
    :data:`~repro.core.scheduler.ENGINES` row, and its cycle count."""
    best = float("inf")
    cycles = 0
    for _ in range(rounds):
        start = time.perf_counter()
        result = simulate(config, program, **ROW[engine])
        best = min(best, time.perf_counter() - start)
        assert result.halted
        cycles = result.cycles
    return best, cycles


def test_idle_skip_speedup(context, benchmark, results_dir):
    """The compiled engine vs the reference loop, memory-dominated sweep.

    The conventional cache with a slow external memory spends most of
    its cycles waiting on a single outstanding fill — exactly the
    quiescent spans the compiled engine's idle skip jumps over.  This
    benchmark runs the same configurations on the ``compiled`` and
    ``reference`` engine rows (min-of-N wall time), checks the cycle
    counts agree, publishes the per-config table to
    ``benchmarks/results/idle_skip.txt``, and enforces the headline
    claim: >= 3x overall on memory_access_time-dominated configs.
    """
    rounds = 3
    rows = []
    headline_on = headline_off = 0.0
    for name, factory in sorted(_SKIP_CONFIGS.items()):
        config = factory()
        on_seconds, on_cycles = _best_of(rounds, config, context.program, "compiled")
        off_seconds, off_cycles = _best_of(
            rounds, config, context.program, "reference"
        )
        assert on_cycles == off_cycles, (
            f"{name}: the compiled engine simulated {on_cycles} cycles but "
            f"the reference loop simulated {off_cycles}"
        )
        # The headline claim is about memory-dominated configs; the
        # mat16 row is context showing how the win scales with latency.
        if config.memory_access_time >= 32:
            headline_on += on_seconds
            headline_off += off_seconds
        rows.append((name, on_cycles, on_seconds, off_seconds))

    speedup = headline_off / headline_on
    lines = [
        "Compiled engine (idle-cycle skipping): wall-clock vs the reference loop",
        f"(workload scale {context.scale}, min of {rounds} runs per cell)",
        "",
        f"{'config':<26} {'cycles':>10} {'compiled':>9} {'reference':>9} "
        f"{'speedup':>8}",
    ]
    for name, cycles, on_seconds, off_seconds in rows:
        lines.append(
            f"{name:<26} {cycles:>10} {on_seconds:>8.3f}s {off_seconds:>8.3f}s "
            f"{off_seconds / on_seconds:>7.2f}x"
        )
    lines += [
        "",
        f"memory-dominated (mat>=32) speedup: {speedup:.2f}x (target >= 3x)",
    ]
    text = "\n".join(lines) + "\n"
    print(f"\n{text}")
    (results_dir / "idle_skip.txt").write_text(text)

    result = benchmark.pedantic(
        lambda: simulate(
            _SKIP_CONFIGS["conventional-128-mat32"](),
            context.program,
            **ROW["compiled"],
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["simulated_cycles"] = result.cycles
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 3.0, (
        f"the compiled engine delivered only {speedup:.2f}x on the "
        "memory-dominated sweep (target >= 3x)"
    )


_REPLAY_CONFIGS = {
    # the Table II headline machine: the full --scale 1.0 run of record
    "pipe-16-16-c128-mat6": lambda: MachineConfig.pipe(
        "16-16", 128, memory_access_time=6
    ),
    "pipe-16-16-c512-mat6": lambda: MachineConfig.pipe(
        "16-16", 512, memory_access_time=6
    ),
    "conventional-128-mat16": lambda: MachineConfig.conventional(
        128, memory_access_time=16
    ),
}


def test_warm_replay_speedup(context, benchmark, results_dir):
    """The compiled engine vs the reference loop, loop-dominated runs.

    The Livermore loops are loop-dominated by construction: once warm,
    every iteration repeats the same cycle-by-cycle evolution, which is
    exactly what the compiled engine's loop replay memoizes.  This
    benchmark runs the same configurations on the ``compiled`` and
    ``reference`` engine rows (min-of-N wall time), checks the cycle
    counts agree, publishes the per-config table to
    ``benchmarks/results/warm_replay.txt``, and enforces the headline
    claim: >= 2x on the loop-dominated runs.
    """
    rounds = 3
    rows = []
    total_on = total_off = 0.0
    for name, factory in sorted(_REPLAY_CONFIGS.items()):
        config = factory()
        on_seconds, on_cycles = _best_of(rounds, config, context.program, "compiled")
        off_seconds, off_cycles = _best_of(
            rounds, config, context.program, "reference"
        )
        assert on_cycles == off_cycles, (
            f"{name}: the compiled engine simulated {on_cycles} cycles but "
            f"the reference loop simulated {off_cycles}"
        )
        total_on += on_seconds
        total_off += off_seconds
        rows.append((name, on_cycles, on_seconds, off_seconds))

    speedup = total_off / total_on
    lines = [
        "Compiled engine (loop replay): wall-clock vs the reference loop",
        f"(workload scale {context.scale}, min of {rounds} runs per cell)",
        "",
        f"{'config':<26} {'cycles':>10} {'compiled':>10} {'reference':>11} "
        f"{'speedup':>8}",
    ]
    for name, cycles, on_seconds, off_seconds in rows:
        lines.append(
            f"{name:<26} {cycles:>10} {on_seconds:>9.3f}s {off_seconds:>10.3f}s "
            f"{off_seconds / on_seconds:>7.2f}x"
        )
    lines += [
        "",
        f"loop-dominated overall speedup: {speedup:.2f}x (target >= 2x)",
    ]
    text = "\n".join(lines) + "\n"
    print(f"\n{text}")
    (results_dir / "warm_replay.txt").write_text(text)

    result = benchmark.pedantic(
        lambda: simulate(
            _REPLAY_CONFIGS["pipe-16-16-c128-mat6"](),
            context.program,
            **ROW["compiled"],
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["simulated_cycles"] = result.cycles
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 2.0, (
        f"the compiled engine delivered only {speedup:.2f}x on the "
        "loop-dominated sweep (target >= 2x)"
    )


_SWEEP_SIZES = (64, 128, 256)
_SWEEP_STRATEGIES = ("PIPE 16-16", "conventional")


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel-2"])
def test_sweep_throughput(jobs, context, benchmark):
    """Sweep-engine throughput: points/second for a 2-strategy x 3-size
    sweep, serial vs parallel fan-out (no result cache, so every point
    is simulated)."""
    from repro.core.sweep import standard_strategies

    strategies = {
        name: factory
        for name, factory in standard_strategies().items()
        if name in _SWEEP_STRATEGIES
    }
    series = benchmark.pedantic(
        lambda: run_cache_sweep(
            context.program,
            cache_sizes=_SWEEP_SIZES,
            strategies=strategies,
            jobs=jobs,
            memory_access_time=6,
            input_bus_width=8,
        ),
        rounds=1,
        iterations=1,
    )
    points = sum(len(curve.cycles) for curve in series)
    assert points == len(_SWEEP_SIZES) * len(_SWEEP_STRATEGIES)
    benchmark.extra_info["points"] = points
    benchmark.extra_info["jobs"] = jobs
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["points_per_second"] = round(
            points / benchmark.stats.stats.mean, 3
        )
