"""Experiment: Table II (the simulated IQ and IQB configurations).

A configuration-integrity check: the four machine presets must match
the paper's table exactly, and each must build a valid machine.
"""

from __future__ import annotations

from ...core.config import PIPE_CONFIGURATIONS, MachineConfig
from ..claims import ClaimCheck
from ..tables import render_table2
from . import ExperimentContext, ExperimentReport

_PAPER_TABLE2 = {
    "8-8": (8, 8, 8),
    "16-16": (16, 16, 16),
    "16-32": (32, 16, 32),
    "32-32": (32, 32, 32),
}


def points(context: ExperimentContext) -> list:
    return []  # static: the presets themselves


def run(context: ExperimentContext) -> ExperimentReport:
    checks = []
    for name, (line, iq, iqb) in _PAPER_TABLE2.items():
        config = PIPE_CONFIGURATIONS[name]
        match = (config.line_size, config.iq_size, config.iqb_size) == (line, iq, iqb)
        buildable = True
        try:
            MachineConfig.pipe(name, icache_size=128)
        except ValueError:
            buildable = False
        checks.append(
            ClaimCheck(
                figure="Table II",
                claim=f"configuration {name} matches the paper and builds",
                passed=match and buildable,
                detail=(
                    f"line={config.line_size} iq={config.iq_size} "
                    f"iqb={config.iqb_size}"
                ),
            )
        )
    return ExperimentReport(
        experiment_id="table2", text=render_table2(), series={}, checks=checks
    )
