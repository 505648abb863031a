"""Parameter sweeps over cache size and machine configuration.

Every figure in the paper's evaluation plots **total execution cycles**
(y) against **instruction cache size in bytes** (x) for five curves: the
four PIPE configurations of Table II plus the conventional cache.  This
module provides that sweep as a reusable driver.

The sweep is the hot path of the whole reproduction, so it layers two
optimisations (both off by default and fully deterministic):

* ``jobs`` fans the independent ``(strategy, size)`` points out over
  worker processes (:mod:`repro.core.parallel`); series come back in
  the same order with bit-identical cycle counts;
* ``cache`` consults a content-addressed result store
  (:mod:`repro.core.simcache`) so points shared between experiments —
  or repeated across runs — are never re-simulated.

A third, orthogonal layer makes big sweeps *finish*: passing a
:class:`~repro.core.resilience.SweepSupervisor` routes cache misses
through the supervised worker pool (per-point timeouts, bounded
retries, crashed-pool recovery), records every recovery action —
including cache quarantines — in the supervisor's
:class:`~repro.core.resilience.FaultReport`, and checkpoints completed
points so an interrupted sweep resumes instead of restarting.  The
numbers are byte-identical with or without a supervisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..asm.program import Program
from .config import PAPER_CACHE_SIZES, PIPE_CONFIGURATIONS, MachineConfig
from .parallel import simulate_many
from .resilience import FaultReport, SweepSupervisor
from .results import SimulationResult
from .simcache import SimulationCache, sweep_point_keys

__all__ = [
    "SweepSeries",
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
    #: the sweep's recovery ledger when it ran supervised (shared by
    #: every series of the sweep); ``None`` for unsupervised sweeps
    fault_report: FaultReport | None = field(
        repr=False, compare=False, default=None
    )

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

    ``jobs`` > 1 runs the points across worker processes; ``cache``
    short-circuits points already simulated (and persists the rest).
    ``supervisor`` runs the misses fault-tolerantly (timeouts, retries,
    crash recovery, checkpoint/resume) and attaches
    its :class:`~repro.core.resilience.FaultReport` to every returned
    series.  All three preserve ordering and produce results identical
    to the plain serial path.
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

    resolved: dict[int, SimulationResult] = {}
    if supervisor is not None:
        _run_supervised(program, points, cache, supervisor, resolved)
    else:
        misses: list[tuple[int, MachineConfig]] = []
        for point_id, (_index, _size, config) in enumerate(points):
            hit = cache.lookup(config, program) if cache is not None else None
            if hit is not None:
                resolved[point_id] = hit
            else:
                misses.append((point_id, config))

        if misses:
            fresh = simulate_many(
                program, [config for _, config in misses], jobs=jobs
            )
            for (point_id, config), result in zip(misses, fresh):
                resolved[point_id] = result
                if cache is not None:
                    cache.store(config, program, result)

    report = supervisor.report if supervisor is not None else None
    series = [
        SweepSeries(
            label=label,
            cache_sizes=[],
            cycles=[],
            results=[],
            fault_report=report,
        )
        for label in labels
    ]
    for point_id, (index, size, _config) in enumerate(points):
        result = resolved[point_id]
        series[index].cache_sizes.append(size)
        series[index].cycles.append(result.cycles)
        series[index].results.append(result)
    return series


def _run_supervised(
    program: Program,
    points: list[tuple[int, int, MachineConfig]],
    cache: SimulationCache | None,
    supervisor: SweepSupervisor,
    resolved: dict[int, SimulationResult],
) -> None:
    """Resolve every sweep point under the fault supervisor.

    Resolution order per point: the checkpoint manifest (``--resume``),
    then the content-addressed cache (quarantines recorded in the
    supervisor's report), then the supervised worker pool.  Completed
    misses are stored to both the cache and the checkpoint as they
    arrive, so progress survives a crash at any moment.
    """
    report = supervisor.report
    checkpoint = supervisor.checkpoint
    if checkpoint is not None:
        # Exclusive manifest lock: a second supervised run against the
        # same checkpoint fails fast (CheckpointLockError) instead of
        # interleaving partial manifest publishes with this one.
        # Idempotent, so the sweeps of one report share one claim; the
        # caller releases it when the supervised session ends.
        checkpoint.acquire()
    configs = [config for _index, _size, config in points]
    keys = sweep_point_keys(program, configs)

    if cache is not None:
        cache.quarantine_hook = lambda key, reason: report.record(
            key[:12], "cache_quarantine", detail=reason
        )
    try:
        misses: list[tuple[int, MachineConfig, str]] = []
        for point_id, config in enumerate(configs):
            key = keys[point_id]
            if checkpoint is not None and supervisor.resume:
                result = checkpoint.get(key)
                if result is not None:
                    resolved[point_id] = result
                    supervisor.resumed += 1
                    continue
            hit = cache.lookup(config, program) if cache is not None else None
            if hit is not None:
                resolved[point_id] = hit
            else:
                misses.append((point_id, config, key))

        if misses:

            def on_result(miss_pos: int, result: SimulationResult) -> None:
                point_id, config, key = misses[miss_pos]
                resolved[point_id] = result
                if cache is not None:
                    cache.store(config, program, result)
                if checkpoint is not None:
                    checkpoint.add(key, result)

            supervisor.simulate_points(
                program,
                [config for _, config, _ in misses],
                keys=[key for _, _, key in misses],
                on_result=on_result,
            )
    finally:
        if cache is not None:
            cache.quarantine_hook = None
        if checkpoint is not None:
            checkpoint.flush()
