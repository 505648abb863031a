"""Extension experiment: IQ and IQB size sensitivity (parameters 7/8).

Section 5 lists "the instruction queue (IQ) size" and "the instruction
queue buffer (IQB) size" as simulated parameters, but the presented
figures only show the four Table II combinations.  This experiment
sweeps IQ size at a fixed 16-byte line (the paper's strong performer)
and reports how much queue is actually needed — the design-cost story
behind "excellent performance ... with a limited number of transistors"
(section 6).
"""

from __future__ import annotations

from ...core.config import MachineConfig
from ..claims import ClaimCheck
from . import ExperimentContext, ExperimentReport

_MEMORY = {"memory_access_time": 6, "input_bus_width": 8}
_LINE = 16
_IQ_SIZES = (4, 8, 16, 32)
_IQB_SIZES = (16, 32, 64)
_CACHE = 128

_BASE = MachineConfig.pipe("16-16", _CACHE, **_MEMORY)
_IQ = {size: _BASE.with_overrides(iq_size=size) for size in _IQ_SIZES}
_IQB = {size: _BASE.with_overrides(iqb_size=size) for size in _IQB_SIZES}


def points(context: ExperimentContext) -> list:
    return [(context.program, config) for config in (*_IQ.values(), *_IQB.values())]


def run(context: ExperimentContext) -> ExperimentReport:
    iq_cycles = {size: context.result(config).cycles for size, config in _IQ.items()}
    iqb_cycles = {
        size: context.result(config).cycles for size, config in _IQB.items()
    }

    lines = [
        "IQ/IQB size sensitivity (16-byte line, 128B cache, T=6, 8B bus):",
        "",
        f"{'IQ bytes':<10}" + "".join(f"{size:>8}" for size in _IQ_SIZES),
        f"{'cycles':<10}" + "".join(f"{iq_cycles[size]:>8}" for size in _IQ_SIZES),
        "",
        f"{'IQB bytes':<10}" + "".join(f"{size:>8}" for size in _IQB_SIZES),
        f"{'cycles':<10}" + "".join(f"{iqb_cycles[size]:>8}" for size in _IQB_SIZES),
    ]

    line_iq = iq_cycles[_LINE]
    best_iq = min(iq_cycles.values())
    oversized = iq_cycles[max(_IQ_SIZES)]
    checks = [
        ClaimCheck(
            figure="IQ/IQB sizes",
            claim="a line-sized IQ captures nearly all of the benefit",
            passed=line_iq <= best_iq * 1.03,
            detail=f"IQ=16B: {line_iq} cycles vs best {best_iq}",
        ),
        ClaimCheck(
            figure="IQ/IQB sizes",
            claim="growing the IQ beyond the line size buys little",
            passed=abs(oversized - line_iq) / line_iq < 0.05,
            detail=f"IQ=32B: {oversized} vs IQ=16B: {line_iq}",
        ),
        ClaimCheck(
            figure="IQ/IQB sizes",
            claim="a line-sized IQB suffices (bigger buys little)",
            passed=abs(iqb_cycles[max(_IQB_SIZES)] - iqb_cycles[_LINE])
            / iqb_cycles[_LINE]
            < 0.05,
            detail=f"IQB 16B: {iqb_cycles[16]}, 64B: {iqb_cycles[64]}",
        ),
    ]
    return ExperimentReport(
        experiment_id="queues", text="\n".join(lines), series={}, checks=checks
    )
