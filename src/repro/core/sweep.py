"""Parameter sweeps over cache size and machine configuration.

Every figure in the paper's evaluation plots **total execution cycles**
(y) against **instruction cache size in bytes** (x) for five curves: the
four PIPE configurations of Table II plus the conventional cache.  This
module provides that sweep as a reusable driver.

Every list of simulation points — a sweep, or an experiment's ad-hoc
points — reaches the simulator through one resolver,
:func:`resolve_points`.  Its layers are deterministic, and the numbers
are byte-identical with or without each of them:

* ``cache`` consults a content-addressed result store
  (:mod:`repro.core.simcache`) so points shared between experiments —
  or repeated across runs — are never re-simulated;
* ``jobs`` fans the misses out over worker processes
  (:mod:`repro.core.parallel`); results come back in input order;
* a :class:`~repro.core.resilience.SweepSupervisor` makes big sweeps
  *finish*: the misses run on its supervised worker pool (per-point
  timeouts, bounded retries, crashed-pool recovery), and every recovery
  action — cache quarantines included — goes into its
  :class:`~repro.core.resilience.FaultReport`.

Supervised or not, each point is stored to the cache as it completes,
so the cache is the sweep's checkpoint: an interrupted run resumes when
the same command runs again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..asm.program import Program
from .config import PAPER_CACHE_SIZES, PIPE_CONFIGURATIONS, MachineConfig
from .parallel import simulate_many
from .resilience import SweepSupervisor
from .results import SimulationResult
from .simcache import SimulationCache, sweep_point_keys

__all__ = [
    "SweepSeries",
    "resolve_points",
    "standard_strategies",
    "run_cache_sweep",
]

#: A strategy factory maps a cache size (plus overrides) to a config.
StrategyFactory = Callable[..., MachineConfig]


@dataclass
class SweepSeries:
    """One curve of a figure: cycles for each swept cache size."""

    label: str
    cache_sizes: list[int]
    cycles: list[int]
    results: list[SimulationResult] = field(repr=False, default_factory=list)

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.cache_sizes, self.cycles))

    @property
    def flatness(self) -> float:
        """max/min cycles across the sweep — 1.0 means perfectly flat.

        The paper highlights that the best PIPE configurations "display a
        much more uniform performance across all cache sizes".  A series
        with fewer than two points (every swept size was skipped, or only
        one survived) is trivially flat: 1.0.
        """
        if len(self.cycles) < 2:
            return 1.0
        return max(self.cycles) / min(self.cycles)


def standard_strategies() -> dict[str, StrategyFactory]:
    """The five curves of every figure, in plotting order."""
    strategies: dict[str, StrategyFactory] = {}
    for name in PIPE_CONFIGURATIONS:
        strategies[f"PIPE {name}"] = (
            lambda size, _name=name, **overrides: MachineConfig.pipe(
                _name, size, **overrides
            )
        )
    strategies["conventional"] = (
        lambda size, **overrides: MachineConfig.conventional(size, **overrides)
    )
    return strategies


def resolve_points(
    program: Program,
    configs: Sequence[MachineConfig],
    *,
    jobs: int | None = 1,
    cache: SimulationCache | None = None,
    supervisor: SweepSupervisor | None = None,
) -> list[SimulationResult]:
    """The result of every ``(config, program)`` point, in ``configs`` order.

    Each point is answered from the result ``cache``, or else simulated.
    The misses run over ``jobs`` worker processes — or, when a
    ``supervisor`` is set, on its supervised pool (its own ``jobs``,
    timeouts, retries and crash recovery), with cache quarantines
    recorded in its report.  Every fresh result is stored to the cache
    as it completes, so progress survives a crash or a failed sibling
    point at any moment and a rerun answers it from the cache.  The
    results are identical to simulating each point serially.
    """
    configs = list(configs)
    if cache is not None and supervisor is not None:
        report = supervisor.report
        cache.quarantine_hook = lambda key, reason: report.record(
            key[:12], "cache_quarantine", detail=reason
        )
    try:
        resolved: dict[int, SimulationResult] = {}
        misses: list[int] = []
        for index, config in enumerate(configs):
            hit = cache.lookup(config, program) if cache is not None else None
            if hit is not None:
                resolved[index] = hit
            else:
                misses.append(index)

        def on_result(miss: int, result: SimulationResult) -> None:
            index = misses[miss]
            resolved[index] = result
            if cache is not None:
                cache.store(configs[index], program, result)

        if misses:
            miss_configs = [configs[index] for index in misses]
            if supervisor is not None:
                supervisor.simulate_points(
                    program,
                    miss_configs,
                    sweep_point_keys(program, miss_configs),
                    on_result=on_result,
                )
            else:
                simulate_many(program, miss_configs, jobs=jobs, on_result=on_result)
    finally:
        if cache is not None and supervisor is not None:
            cache.quarantine_hook = None
    return [resolved[index] for index in range(len(configs))]


def run_cache_sweep(
    program: Program,
    cache_sizes: Sequence[int] = PAPER_CACHE_SIZES,
    strategies: dict[str, StrategyFactory] | None = None,
    jobs: int | None = 1,
    cache: SimulationCache | None = None,
    supervisor: SweepSupervisor | None = None,
    **overrides,
) -> list[SweepSeries]:
    """Simulate every strategy at every cache size.

    ``overrides`` are common machine parameters (``memory_access_time``,
    ``input_bus_width``, ``memory_pipelined``, ...).  Cache sizes smaller
    than a strategy's line size are skipped for that strategy (a 32-byte
    line cannot live in a 16-byte cache), mirroring the paper's figures
    where the 16-32/32-32 curves start at 32 bytes.

    ``jobs``, ``cache`` and ``supervisor`` are those of
    :func:`resolve_points`, which resolves every point of the sweep.
    """
    if strategies is None:
        strategies = standard_strategies()

    # Enumerate every valid (series, size, config) point up front so
    # misses can be batched to the worker pool in one deterministic list.
    points: list[tuple[int, int, MachineConfig]] = []
    labels = list(strategies)
    for index, label in enumerate(labels):
        factory = strategies[label]
        for size in cache_sizes:
            try:
                config = factory(size, **overrides)
            except ValueError:
                continue  # cache smaller than this strategy's line size
            points.append((index, size, config))

    results = resolve_points(
        program,
        [config for _index, _size, config in points],
        jobs=jobs,
        cache=cache,
        supervisor=supervisor,
    )
    series = [
        SweepSeries(label=label, cache_sizes=[], cycles=[], results=[])
        for label in labels
    ]
    for (index, size, _config), result in zip(points, results):
        series[index].cache_sizes.append(size)
        series[index].cycles.append(result.cycles)
        series[index].results.append(result)
    return series
