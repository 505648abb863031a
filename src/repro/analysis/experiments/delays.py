"""Extension experiment: prepare-to-branch delay-slot utilisation.

Section 3.1.3: "We have found that a compiler can easily generate code
with an average of 4 instructions that can be unconditionally executed
after a branch [YoGo84].  Therefore, PIPE uses ... the prepare-to-branch
(PBR) instruction which allows the compiler to specify the number of
delay slots (between 0 and 7)."

This experiment inspects the *generated benchmark itself* (static: the
delay field of every PBR in the layout; dynamic: delay slots actually
executed) and checks that our mini-compiler achieves the utilisation the
PBR design assumes — and that the delay slots cover the 2-cycle branch
resolution, so a cached loop pays no branch stalls at all.
"""

from __future__ import annotations

from ...core.config import MachineConfig
from ..claims import ClaimCheck
from . import ExperimentContext, ExperimentReport

#: a 512-byte cache and 1-cycle memory, so fetch never limits
_MACHINE = MachineConfig.pipe("16-16", 512, memory_access_time=1)


def points(context: ExperimentContext) -> list:
    return [(context.program, _MACHINE)]


def run(context: ExperimentContext) -> ExperimentReport:
    program = context.program
    pbr_delays = [
        instruction.delay
        for _address, instruction in program.layout
        if instruction.is_branch
    ]
    static_avg = sum(pbr_delays) / len(pbr_delays) if pbr_delays else 0.0

    result = context.result(_MACHINE)
    unresolved = result.stalls.get("branch_unresolved", 0)

    histogram: dict[int, int] = {}
    for delay in pbr_delays:
        histogram[delay] = histogram.get(delay, 0) + 1

    lines = [
        "Prepare-to-branch delay-slot utilisation in the generated benchmark:",
        "",
        f"PBR instructions (static) : {len(pbr_delays)}",
        f"average delay slots       : {static_avg:.2f} "
        "(paper: 'an average of 4 ... after a branch')",
        "delay histogram           : "
        + ", ".join(f"{d}:{n}" for d, n in sorted(histogram.items())),
        "",
        f"dynamic branches          : {result.branches} "
        f"({result.branches_taken} taken)",
        f"branch-unresolved stalls  : {unresolved} "
        "(512B cache, so fetch never limits)",
    ]
    checks = [
        ClaimCheck(
            figure="delay slots",
            claim="the compiler fills ~4 delay slots per branch",
            passed=3.0 <= static_avg <= 7.0,
            detail=f"static average {static_avg:.2f} across {len(pbr_delays)} PBRs",
        ),
        ClaimCheck(
            figure="delay slots",
            claim="delay slots cover branch resolution (no unresolved stalls)",
            passed=unresolved == 0,
            detail=f"{unresolved} branch_unresolved stalls over {result.branches} "
            "branches",
        ),
        ClaimCheck(
            figure="delay slots",
            claim="every delay fits the PBR's 3-bit field",
            passed=all(0 <= delay <= 7 for delay in pbr_delays),
            detail="0 <= delay <= 7 for every generated PBR",
        ),
    ]
    return ExperimentReport(
        experiment_id="delays", text="\n".join(lines), series={}, checks=checks
    )
