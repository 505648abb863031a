"""Experiment: Figure 4 — 1-cycle non-pipelined memory, 4B vs 8B bus.

Paper findings reproduced here (section 6):

* bus width matters a lot below 128-byte caches;
* configurations 8-8 and 16-16 are nearly flat with an 8-byte bus — a
  16/32-byte cache with IQ+IQB approaches 512-byte-cache performance;
* this is the **only** parameter point where the conventional cache
  beats some PIPE configuration.
"""

from __future__ import annotations

from ..claims import check_figure4a, check_figure4b
from ..figures import FIGURES, render_figure
from . import ExperimentContext, ExperimentReport

_PANELS = ("4a", "4b")


def points(context: ExperimentContext) -> list:
    return context.sweep_points(*(FIGURES[panel].overrides() for panel in _PANELS))


def run(context: ExperimentContext) -> ExperimentReport:
    series_4a, series_4b = (
        context.sweep(**FIGURES[panel].overrides()) for panel in _PANELS
    )
    checks = check_figure4a(series_4a) + check_figure4b(series_4b)
    text = "\n\n".join(
        [
            render_figure("4a", series_4a, context.cache_sizes),
            render_figure("4b", series_4b, context.cache_sizes),
        ]
    )
    return ExperimentReport(
        experiment_id="figure4",
        text=text,
        series={"4a": series_4a, "4b": series_4b},
        checks=checks,
    )
