"""Experiment: the paper's headline claim.

Section 7: "Our simulation results indicate that using our approach the
processor performs up to twice as fast as a processor using the
conventional cache-only approach with a small cache size and can in
fact provide performance comparable to larger caches."
"""

from __future__ import annotations

from ..claims import by_label, check_headline
from . import ExperimentContext, ExperimentReport

_MEMORY = {"memory_access_time": 6, "input_bus_width": 4}


def points(context: ExperimentContext) -> list:
    return context.sweep_points(_MEMORY)


def run(context: ExperimentContext) -> ExperimentReport:
    series = context.sweep(**_MEMORY)
    checks = check_headline(series)
    curves = by_label(series)
    conv = curves["conventional"].as_dict()
    lines = ["Headline claim (T=6, 4-byte bus, non-pipelined memory):", ""]
    best_label, best32 = min(
        (
            (label, curve.as_dict().get(32, 1 << 62))
            for label, curve in curves.items()
            if label != "conventional"
        ),
        key=lambda item: item[1],
    )
    lines.append(f"conventional @ 32B cache : {conv[32]} cycles")
    lines.append(f"best PIPE    @ 32B cache : {best32} cycles ({best_label})")
    lines.append(f"speedup                  : {conv[32] / best32:.2f}x")
    lines.append("")
    within = [
        size
        for size, cycles in sorted(conv.items())
        if cycles <= best32
    ]
    comparable = within[0] if within else None
    lines.append(
        "a 32B PIPE cache performs like a conventional cache of "
        f"~{comparable or '>512'}B"
    )
    return ExperimentReport(
        experiment_id="headline",
        text="\n".join(lines),
        series={"t6bus4": series},
        checks=checks,
    )
