"""Figure specifications for the paper's evaluation (Figures 4–6).

Each figure plots total execution cycles against instruction-cache size
for the four Table II PIPE configurations plus the conventional cache,
at one memory design point:

=======  ===========  =========  ==========
figure   access time  bus width  pipelined
=======  ===========  =========  ==========
4a       1 cycle      4 bytes    no
4b       1 cycle      8 bytes    no
5a       6 cycles     4 bytes    no
5b       6 cycles     8 bytes    no
6a       6 cycles     8 bytes    no (= 5b, rescaled in the paper)
6b       6 cycles     8 bytes    yes
=======  ===========  =========  ==========

:func:`run_figure` executes the sweep for one figure and returns the
series; :func:`render_figure` adds the text table and an ASCII plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..asm.program import Program
from ..core.config import PAPER_CACHE_SIZES
from ..core.resilience import FaultPolicy
from ..core.simcache import SimulationCache
from ..core.sweep import SweepSeries, run_cache_sweep
from .tables import render_series_table

__all__ = ["FIGURES", "FigureSpec", "ascii_plot", "render_figure", "run_figure"]


@dataclass(frozen=True)
class FigureSpec:
    """One panel of Figures 4–6."""

    figure_id: str
    memory_access_time: int
    input_bus_width: int
    memory_pipelined: bool

    @property
    def title(self) -> str:
        memory = "pipelined" if self.memory_pipelined else "non-pipelined"
        return (
            f"Figure {self.figure_id} — total cycles vs cache size "
            f"(access={self.memory_access_time}, bus={self.input_bus_width}B, "
            f"{memory} memory)"
        )

    def overrides(self) -> dict:
        return {
            "memory_access_time": self.memory_access_time,
            "input_bus_width": self.input_bus_width,
            "memory_pipelined": self.memory_pipelined,
        }


FIGURES: dict[str, FigureSpec] = {
    "4a": FigureSpec("4a", memory_access_time=1, input_bus_width=4, memory_pipelined=False),
    "4b": FigureSpec("4b", memory_access_time=1, input_bus_width=8, memory_pipelined=False),
    "5a": FigureSpec("5a", memory_access_time=6, input_bus_width=4, memory_pipelined=False),
    "5b": FigureSpec("5b", memory_access_time=6, input_bus_width=8, memory_pipelined=False),
    "6a": FigureSpec("6a", memory_access_time=6, input_bus_width=8, memory_pipelined=False),
    "6b": FigureSpec("6b", memory_access_time=6, input_bus_width=8, memory_pipelined=True),
}


def run_figure(
    figure_id: str,
    program: Program,
    cache_sizes: Sequence[int] = PAPER_CACHE_SIZES,
    jobs: int | None = 1,
    cache: SimulationCache | None = None,
    policy: FaultPolicy | None = None,
    skip: bool = True,
) -> list[SweepSeries]:
    """Run the sweep behind one figure panel (``skip=False``: on the
    reference loop)."""
    spec = FIGURES[figure_id]
    return run_cache_sweep(
        program,
        cache_sizes=cache_sizes,
        jobs=jobs,
        cache=cache,
        policy=policy,
        skip=skip,
        **spec.overrides(),
    )


def ascii_plot(
    series: Sequence[SweepSeries],
    cache_sizes: Sequence[int],
    width: int = 60,
    height: int = 16,
) -> str:
    """A terminal rendition of one figure (log-ish feel, linear scale)."""
    points = [
        (curve.label, size, cycles)
        for curve in series
        for size, cycles in zip(curve.cache_sizes, curve.cycles)
    ]
    if not points:
        return "(no data)"
    low = min(cycles for _l, _s, cycles in points)
    high = max(cycles for _l, _s, cycles in points)
    span = max(1, high - low)
    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@%&"
    legend = []
    x_positions = {
        size: round(index * (width - 1) / max(1, len(cache_sizes) - 1))
        for index, size in enumerate(cache_sizes)
    }
    for curve_index, curve in enumerate(series):
        marker = markers[curve_index % len(markers)]
        legend.append(f"{marker} {curve.label}")
        for size, cycles in zip(curve.cache_sizes, curve.cycles):
            x = x_positions[size]
            y = round((cycles - low) / span * (height - 1))
            grid[height - 1 - y][x] = marker
    rows = ["".join(row) for row in grid]
    axis = "".join(
        "^" if x in x_positions.values() else "-" for x in range(width)
    )
    labels = " ".join(str(size) for size in cache_sizes)
    return "\n".join(
        [f"cycles {high} (top) .. {low} (bottom)"]
        + rows
        + [axis, f"cache sizes: {labels}", "  ".join(legend)]
    )


def render_figure(
    figure_id: str,
    series: Sequence[SweepSeries],
    cache_sizes: Sequence[int] = PAPER_CACHE_SIZES,
    plot: bool = True,
) -> str:
    """Text table (and optional ASCII plot) for one figure panel."""
    spec = FIGURES[figure_id]
    out = render_series_table(spec.title, series, cache_sizes)
    if plot:
        out += "\n" + ascii_plot(series, cache_sizes)
    return out
