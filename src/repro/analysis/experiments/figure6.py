"""Experiment: Figure 6 — 8B bus, 6-cycle memory, pipelining on/off.

Figure 6a is Figure 5b on a different scale; Figure 6b enables the
pipelined external memory (a new request accepted every cycle).  Paper
findings reproduced here (section 6): the pipelined curves keep the
same shape but shift down and compress, PIPE still beats the
conventional cache everywhere, and the 16/32-byte-line configurations
are the best performers at this memory speed (the reverse of Figure 4).
"""

from __future__ import annotations

from ..claims import check_figure6, check_line_size_reversal
from ..figures import FIGURES, render_figure
from . import ExperimentContext, ExperimentReport

#: the two panels, then Figure 4a's fast memory for the line-size reversal
_PANELS = ("6a", "6b", "4a")


def points(context: ExperimentContext) -> list:
    return context.sweep_points(*(FIGURES[panel].overrides() for panel in _PANELS))


def run(context: ExperimentContext) -> ExperimentReport:
    series_6a, series_6b, series_fast = (
        context.sweep(**FIGURES[panel].overrides()) for panel in _PANELS
    )
    checks = check_figure6(series_6a, series_6b)
    checks += check_line_size_reversal(series_fast, series_6b)
    text = "\n\n".join(
        [
            render_figure("6a", series_6a, context.cache_sizes),
            render_figure("6b", series_6b, context.cache_sizes),
        ]
    )
    return ExperimentReport(
        experiment_id="figure6",
        text=text,
        series={"6a": series_6a, "6b": series_6b},
        checks=checks,
    )
