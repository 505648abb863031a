"""Experiment: Figure 5 — 6-cycle non-pipelined memory, 4B vs 8B bus.

Paper findings reproduced here (section 6):

* for memory access time > 1 cycle, **every** PIPE configuration beats
  the conventional cache;
* at small cache sizes the PIPE configurations are much less sensitive
  to bus width than the conventional cache ("if one is forced to use a
  bus width of 4 bytes ... the PIPE strategy will significantly
  outperform the conventional cache approach").
"""

from __future__ import annotations

from ..claims import check_figure5
from ..figures import FIGURES, render_figure
from . import ExperimentContext, ExperimentReport

_PANELS = ("5a", "5b")


def points(context: ExperimentContext) -> list:
    return context.sweep_points(*(FIGURES[panel].overrides() for panel in _PANELS))


def run(context: ExperimentContext) -> ExperimentReport:
    series_5a, series_5b = (
        context.sweep(**FIGURES[panel].overrides()) for panel in _PANELS
    )
    checks = check_figure5(series_5b, series_narrow_bus=series_5a, figure="5b")
    checks += check_figure5(series_5a, figure="5a")
    text = "\n\n".join(
        [
            render_figure("5a", series_5a, context.cache_sizes),
            render_figure("5b", series_5b, context.cache_sizes),
        ]
    )
    return ExperimentReport(
        experiment_id="figure5",
        text=text,
        series={"5a": series_5a, "5b": series_5b},
        checks=checks,
    )
