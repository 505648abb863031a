"""Extension experiment: the Target Instruction Buffer trade-off.

Paper section 2.1 summarises the Rau & Rossman / Hill findings: "a
small TIB can provide better performance than a simple small
instruction cache, [but] the use of a TIB implies large amounts of
off-chip accessing".  With the TIB frontend implemented we can measure
both halves of the sentence against the paper's own strategies.
"""

from __future__ import annotations

from ...core.config import MachineConfig
from ..claims import ClaimCheck
from . import ExperimentContext, ExperimentReport

_MEMORY = {"memory_access_time": 6, "input_bus_width": 8}

#: TIB geometries swept: (entries, bytes per entry) → total buffer bytes.
_TIB_SHAPES = ((2, 16), (4, 16), (8, 16), (8, 32))

_TIBS = {shape: MachineConfig.tib(*shape, **_MEMORY) for shape in _TIB_SHAPES}
#: the caches the TIB is measured against, by report row
_CACHES = {
    "conventional 32B cache": MachineConfig.conventional(32, **_MEMORY),
    "conventional 128B cache": MachineConfig.conventional(128, **_MEMORY),
    "PIPE 16-16, 32B cache": MachineConfig.pipe("16-16", 32, **_MEMORY),
}


def _ifetch_traffic(result) -> int:
    return (
        result.memory.ifetch_demand_accepted
        + result.memory.ifetch_prefetch_accepted
    )


def points(context: ExperimentContext) -> list:
    return [
        (context.program, config)
        for config in (*_TIBS.values(), *_CACHES.values())
    ]


def run(context: ExperimentContext) -> ExperimentReport:
    rows: list[tuple[str, int, int, str]] = []
    tib_results = {shape: context.result(config) for shape, config in _TIBS.items()}
    cache_results = context.results(_CACHES.values())
    conventional_small, conventional_big, pipe_small = cache_results
    for (entries, entry_bytes), result in tib_results.items():
        rows.append(
            (
                f"TIB {entries}x{entry_bytes}B ({entries * entry_bytes}B)",
                result.cycles,
                _ifetch_traffic(result),
                f"{result.ipc:.3f}",
            )
        )
    for label, result in zip(_CACHES, cache_results):
        rows.append((label, result.cycles, _ifetch_traffic(result), f"{result.ipc:.3f}"))

    lines = [
        "Target Instruction Buffer vs caches (T=6, 8B bus, non-pipelined):",
        "",
        f"{'design':<28}{'cycles':>9}{'I-requests':>12}{'IPC':>7}",
    ]
    for label, cycles, traffic, ipc in rows:
        lines.append(f"{label:<28}{cycles:>9}{traffic:>12}{ipc:>7}")

    best_tib = min(result.cycles for result in tib_results.values())
    reference_tib = tib_results[(4, 16)]
    checks = [
        ClaimCheck(
            figure="TIB",
            claim="a small TIB beats a simple small instruction cache",
            passed=best_tib < conventional_small.cycles,
            detail=(
                f"best TIB {best_tib} cycles vs conventional 32B "
                f"{conventional_small.cycles}"
            ),
        ),
        ClaimCheck(
            figure="TIB",
            claim="the TIB implies large amounts of off-chip accessing",
            passed=_ifetch_traffic(reference_tib)
            > 1.5 * _ifetch_traffic(conventional_big),
            detail=(
                f"TIB 4x16B makes {_ifetch_traffic(reference_tib)} instruction "
                f"requests vs {_ifetch_traffic(conventional_big)} for a 128B "
                "conventional cache (no cache to capture the loops)"
            ),
        ),
        ClaimCheck(
            figure="TIB",
            claim="the PIPE cache+IQ+IQB beats the TIB at equal smallness",
            passed=pipe_small.cycles < best_tib,
            detail=f"PIPE@32B {pipe_small.cycles} vs best TIB {best_tib}",
        ),
    ]
    return ExperimentReport(
        experiment_id="tib", text="\n".join(lines), series={}, checks=checks
    )
