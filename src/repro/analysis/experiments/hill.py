"""Extension experiment: re-verify Hill's prefetch-strategy ranking.

The paper adopts always-prefetch as the conventional baseline because
"throughout his study, the always-prefetch strategy consistently
provided the best performance" (section 4.1).  This experiment runs the
conventional cache under all four policies (always / tagged / on-miss /
none) across cache sizes and checks that ranking on our workload.
"""

from __future__ import annotations

import functools

from ...core.config import MachineConfig, PrefetchPolicy
from ..claims import ClaimCheck
from . import ExperimentContext, ExperimentReport

_MEMORY = {"memory_access_time": 6, "input_bus_width": 8}


@functools.lru_cache(maxsize=8)
def _machines(cache_sizes: tuple[int, ...]) -> tuple:
    """Each ``(policy, cache size)`` with its machine, built once per
    process."""
    return tuple(
        (
            (policy, size),
            MachineConfig.conventional(size, prefetch_policy=policy, **_MEMORY),
        )
        for policy in PrefetchPolicy
        for size in cache_sizes
    )


def points(context: ExperimentContext) -> list:
    return [
        (context.program, config)
        for _point, config in _machines(tuple(context.cache_sizes))
    ]


def run(context: ExperimentContext) -> ExperimentReport:
    cycles: dict[PrefetchPolicy, dict[int, int]] = {
        policy: {} for policy in PrefetchPolicy
    }
    for (policy, size), config in _machines(tuple(context.cache_sizes)):
        cycles[policy][size] = context.result(config).cycles

    lines = [
        "Hill's prefetch strategies on the conventional cache "
        "(T=6, 8B bus, non-pipelined):",
        "",
        f"{'policy':<10}" + "".join(f"{size:>9}" for size in context.cache_sizes),
    ]
    for policy in PrefetchPolicy:
        row = "".join(f"{cycles[policy][size]:>9}" for size in context.cache_sizes)
        lines.append(f"{policy.value:<10}{row}")

    checks = []
    always_best = all(
        cycles[PrefetchPolicy.ALWAYS][size]
        <= min(cycles[policy][size] for policy in PrefetchPolicy) * 1.02
        for size in context.cache_sizes
    )
    checks.append(
        ClaimCheck(
            figure="Hill policies",
            claim="always-prefetch consistently provides the best performance",
            passed=always_best,
            detail="within 2% of the best policy at every cache size",
        )
    )
    # Above the 128-byte knee the cache holds everything and prefetching
    # buys (or costs) fractions of a percent, so Hill's "worst" claim is
    # checked where prefetching actually matters.
    small_sizes = [size for size in context.cache_sizes if size <= 128]
    none_worst = all(
        cycles[PrefetchPolicy.NONE][size]
        == max(cycles[policy][size] for policy in PrefetchPolicy)
        for size in small_sizes
    )
    checks.append(
        ClaimCheck(
            figure="Hill policies",
            claim="demand fetching alone is the worst policy below the knee",
            passed=none_worst,
            detail=f"no-prefetch slowest at every cache size <= 128B "
            f"({small_sizes})",
        )
    )
    return ExperimentReport(
        experiment_id="hill", text="\n".join(lines), series={}, checks=checks
    )
