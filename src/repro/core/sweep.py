"""Parameter sweeps over cache size and machine configuration.

Every figure in the paper's evaluation plots **total execution cycles**
(y) against **instruction cache size in bytes** (x) for five curves: the
four PIPE configurations of Table II plus the conventional cache.  This
module provides that sweep as a reusable driver.

Every list of simulation points — a sweep, or all the points one
command reads — reaches the simulator through one resolver,
:func:`resolve_points`, on one path.  It looks each distinct
``(program, config)`` point up once in the content-addressed result
``cache`` (:mod:`repro.core.simcache`), so points repeated across runs
are never re-simulated, and fans every miss out in one call over
``jobs`` worker processes (:func:`repro.core.parallel.simulate_many`):
one pool, forked after this process has run each program's issue
stream, under a :class:`~repro.core.resilience.FaultPolicy`: per-point
timeouts, bounded retries of crashed or timed-out points, crashed-pool
recovery, and a :class:`~repro.core.resilience.FaultReport` of every
recovery action, cache quarantines included.  The numbers are
byte-identical whatever the cache, the job count or the recoveries.
:func:`sweep_points` enumerates a sweep's points and
:func:`sweep_series` turns their results into the figures' curves.

Each point is stored to the cache as it completes, so the cache is the
sweep's checkpoint: an interrupted run resumes when the same command
runs again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..asm.program import Program
from .config import PAPER_CACHE_SIZES, PIPE_CONFIGURATIONS, MachineConfig
from .parallel import simulate_many
from .resilience import FaultPolicy
from .results import SimulationResult
from .simcache import SimulationCache

__all__ = [
    "Point",
    "SweepPoints",
    "SweepSeries",
    "resolve_points",
    "run_cache_sweep",
    "standard_strategies",
    "sweep_points",
    "sweep_series",
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


#: One simulation point: a program and the machine that runs it.
Point = tuple[Program, MachineConfig]


def resolve_points(
    points: Sequence[Point],
    *,
    jobs: int | None = 1,
    cache: SimulationCache | None = None,
    policy: FaultPolicy | None = None,
    skip: bool = True,
) -> list[SimulationResult]:
    """The result of every ``(program, config)`` point, in ``points`` order.

    Each distinct point is looked up in the result ``cache`` once, or
    else simulated.  All the misses, whatever their programs, go out in
    one :func:`~repro.core.parallel.simulate_many` call: one pool of
    ``jobs`` workers under ``policy`` (``None``: a fresh
    :class:`FaultPolicy`), whose report also records the cache's
    quarantines.  Before the pool forks, this process runs the issue
    stream of each program with a miss, so the workers inherit it
    instead of each rebuilding it.  ``skip=False`` simulates on the
    reference loop.

    Every fresh result is stored to the cache as it completes, so
    progress survives a crash or a failed sibling point at any moment
    and a rerun answers it from the cache.  Points that stay broken are
    raised in one :class:`~repro.core.resilience.SweepPointError` after
    every other point is stored.  The results are identical to
    simulating each point serially.
    """
    points = list(points)
    if policy is None:
        policy = FaultPolicy()
    if cache is not None:
        cache.quarantine_hook = lambda key, reason: policy.report.record(
            key[:12], "cache_quarantine", detail=reason
        )
    resolved: dict[tuple[int, MachineConfig], SimulationResult | None] = {}
    misses: list[Point] = []
    try:
        for program, config in points:
            if (id(program), config) in resolved:
                continue
            hit = cache.lookup(config, program) if cache is not None else None
            resolved[id(program), config] = hit
            if hit is None:
                misses.append((program, config))

        def on_result(miss: int, result: SimulationResult) -> None:
            program, config = misses[miss]
            resolved[id(program), config] = result
            if cache is not None:
                cache.store(config, program, result)

        if misses:
            # A machine issues at most one instruction a cycle, so no
            # run reads its stream past max_cycles: a program that never
            # halts stops there instead of hanging this process.
            limit = max(config.max_cycles for _program, config in misses)
            for program in {id(program): program for program, _ in misses}.values():
                program.issue_stream.ends_before(limit)
            simulate_many(
                misses, jobs=jobs, on_result=on_result, policy=policy, skip=skip
            )
    finally:
        if cache is not None:
            cache.quarantine_hook = None
    return [resolved[id(program), config] for program, config in points]


#: One sweep's points: each strategy's ``(cache size, config)`` pairs.
SweepPoints = tuple[tuple[str, tuple[tuple[int, MachineConfig], ...]], ...]


def sweep_points(
    cache_sizes: Sequence[int] = PAPER_CACHE_SIZES,
    strategies: dict[str, StrategyFactory] | None = None,
    **overrides,
) -> SweepPoints:
    """Each strategy's ``(cache size, config)`` points, in plotting order.

    ``overrides`` are common machine parameters (``memory_access_time``,
    ``input_bus_width``, ``memory_pipelined``, ...).  Cache sizes smaller
    than a strategy's line size are skipped for that strategy (a 32-byte
    line cannot live in a 16-byte cache), mirroring the paper's figures
    where the 16-32/32-32 curves start at 32 bytes.

    A sweep of the standard strategies is built once per process: the
    experiments list its points, then read it again to render, on every
    report.
    """
    if strategies is None:
        return _standard_sweep(tuple(cache_sizes), tuple(sorted(overrides.items())))
    points = []
    for label, factory in strategies.items():
        curve = []
        for size in cache_sizes:
            try:
                curve.append((size, factory(size, **overrides)))
            except ValueError:
                continue  # cache smaller than this strategy's line size
        points.append((label, tuple(curve)))
    return tuple(points)


@functools.lru_cache(maxsize=64)
def _standard_sweep(cache_sizes: tuple[int, ...], overrides: tuple) -> SweepPoints:
    return sweep_points(cache_sizes, standard_strategies(), **dict(overrides))


def sweep_series(
    points: SweepPoints, results: Sequence[SimulationResult]
) -> list[SweepSeries]:
    """The curves of :func:`sweep_points`, given its points' results in
    the same order."""
    results = iter(results)
    series = []
    for label, curve in points:
        done = [next(results) for _point in curve]
        series.append(
            SweepSeries(
                label=label,
                cache_sizes=[size for size, _config in curve],
                cycles=[result.cycles for result in done],
                results=done,
            )
        )
    return series


def run_cache_sweep(
    program: Program,
    cache_sizes: Sequence[int] = PAPER_CACHE_SIZES,
    strategies: dict[str, StrategyFactory] | None = None,
    jobs: int | None = 1,
    cache: SimulationCache | None = None,
    policy: FaultPolicy | None = None,
    skip: bool = True,
    **overrides,
) -> list[SweepSeries]:
    """Simulate every strategy at every cache size (:func:`sweep_points`).

    ``jobs``, ``cache``, ``policy`` and ``skip`` are those of
    :func:`resolve_points`, which resolves every point of the sweep in
    one fan-out.
    """
    points = sweep_points(cache_sizes, strategies, **overrides)
    results = resolve_points(
        [(program, config) for _label, curve in points for _size, config in curve],
        jobs=jobs,
        cache=cache,
        policy=policy,
        skip=skip,
    )
    return sweep_series(points, results)
