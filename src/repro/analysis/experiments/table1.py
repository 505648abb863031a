"""Experiment: regenerate Table I (inner-loop sizes).

The structural property the evaluation depends on is that roughly half
of the inner loops fit within 128 bytes — that is where the knee of
every cycles-vs-cache-size curve sits (section 6: "The knee of the
curve corresponds to the size of most of the inner loops").
"""

from __future__ import annotations

from ...kernels.loops import PAPER_TOTAL_INSTRUCTIONS
from ...kernels.suite import LivermoreSuite, cached_livermore_suite
from ..claims import ClaimCheck
from ..tables import render_table1, table1_rows
from . import ExperimentContext, ExperimentReport


def points(context: ExperimentContext) -> list:
    return []  # static: the assembled program's inner-loop sizes


def run(context: ExperimentContext) -> ExperimentReport:
    suite = context.suite
    if not isinstance(suite, LivermoreSuite):
        suite = cached_livermore_suite()
    rows = table1_rows(suite)
    fit_ours = sum(1 for _n, ours, _p in rows if ours <= 128)
    fit_paper = sum(1 for _n, _o, paper in rows if paper <= 128)
    checks = [
        ClaimCheck(
            figure="Table I",
            claim="about half of the inner loops fit in 128 bytes",
            passed=abs(fit_ours - fit_paper) <= 2,
            detail=f"ours: {fit_ours}/14 fit, paper: {fit_paper}/14 fit",
        ),
        ClaimCheck(
            figure="Table I",
            claim="every inner loop is within 2x of the paper's size",
            passed=all(
                0.5 <= ours / paper <= 2.0 for _n, ours, paper in rows
            ),
            detail=", ".join(
                f"LL{n}:{ours}/{paper}" for n, ours, paper in rows
            ),
        ),
    ]
    text = render_table1(suite)
    text += (
        f"\n\nbenchmark scale: paper executes {PAPER_TOTAL_INSTRUCTIONS} "
        "instructions; see tests for our measured count."
    )
    return ExperimentReport(
        experiment_id="table1", text=text, series={}, checks=checks
    )
