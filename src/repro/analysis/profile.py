"""Per-loop cycle attribution over the benchmark.

Section 5's benchmark runs the 14 loops back to back, so total-cycle
numbers blend very different inner loops (Table I spans 48 to 824
bytes).  This profiler attributes every simulated cycle to the loop
whose instruction most recently issued, giving per-loop cycles, CPI,
and share — which is how one sees *where* a small cache loses time
(the loops that do not fit) and where the IQ/IQB wins it back.

The profile runs the default engine with tracing on and reads the
attribution off the event stream (``backend issue`` carries each
issued pc), so it keeps no cycle loop of its own: it gets idle-cycle
skipping, loop replay and the deadlock detector with the rest of the
simulator, and the same cycle counts on every engine.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from ..asm.program import Program
from ..core.config import MachineConfig
from ..core.simulator import Simulator, simulate_traced
from ..core.trace import TraceSink
from ..cpu.functional import FunctionalSimulator

__all__ = [
    "EngineLoopProfile",
    "EngineProfileReport",
    "LoopProfile",
    "ProfileReport",
    "profile_engine",
    "profile_program",
    "render_codegen_stats",
    "render_engine_profile",
    "render_profile",
]


def render_codegen_stats() -> str:
    """Codegen-cache summary for profile footers.

    Reads :func:`repro.core.compiled.compile_stats` — kernels compiled
    so far in this process and their cache hits, dispatch handlers,
    and the cumulative codegen time.
    """
    from ..core.compiled import compile_stats

    stats = compile_stats()
    return (
        f"codegen: {stats['compiles']} kernel(s) compiled "
        f"({stats['kernel_cache_hits']} cache hit(s)), "
        f"{stats['dispatch_handlers']} dispatch handler(s), "
        f"{stats['codegen_seconds'] * 1000.0:.1f} ms codegen"
    )


@dataclass(frozen=True)
class LoopProfile:
    """One region's share of the run."""

    name: str
    cycles: int
    instructions: int

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class ProfileReport:
    config: MachineConfig
    total_cycles: int
    loops: list[LoopProfile]

    def by_name(self) -> dict[str, LoopProfile]:
        return {loop.name: loop for loop in self.loops}


class _RegionMap:
    """O(log n) byte-address → region-name lookup."""

    def __init__(self, regions: list[tuple[str, int, int]]):
        ordered = sorted(regions, key=lambda region: region[1])
        self._starts = [begin for _name, begin, _end in ordered]
        self._ends = [end for _name, _begin, end in ordered]
        self._names = [name for name, _begin, _end in ordered]

    def lookup(self, address: int) -> str | None:
        index = bisect.bisect_right(self._starts, address) - 1
        if index >= 0 and address < self._ends[index]:
            return self._names[index]
        return None


class _RegionCycles(TraceSink):
    """Charges each cycle to the region of the most recently issued pc.

    At most one instruction issues per cycle, so a ``backend issue`` at
    cycle ``c`` closes the previous region's span at ``c`` and charges
    ``c`` onwards to the issued pc's region; ``sim end`` closes the
    last span at the run's final cycle.
    """

    def __init__(self, region_map: _RegionMap):
        self._lookup = region_map.lookup
        self.cycles: Counter[str] = Counter()
        self.total = 0
        self._region = "(outside)"
        self._since = 0

    def _charge(self, cycle: int) -> None:
        self.cycles[self._region] += cycle - self._since
        self._since = cycle

    def emit(self, cycle: int, component: str, kind: str, fields: Mapping) -> None:
        if component == "backend" and kind == "issue":
            self._charge(cycle)
            self._region = self._lookup(fields["pc"]) or "(outside)"
        elif component == "sim" and kind == "end":
            self._charge(fields["cycles"])
            self.total = fields["cycles"]


def profile_program(
    config: MachineConfig,
    program: Program,
    regions: list[tuple[str, int, int]],
) -> ProfileReport:
    """Run the cycle-level machine, attributing cycles to regions.

    A cycle belongs to the region of the most recently issued
    instruction, so a loop is charged for its own stalls (its loads, its
    fetch misses) — start-up cycles before the first issue and the
    post-HALT drain land in ``(outside)``.
    """
    sink = _RegionCycles(_RegionMap(regions))
    simulate_traced(config, program, sinks=(sink,), metrics=False)
    instruction_counts = FunctionalSimulator(program, regions=regions).run().by_region
    loops = [
        LoopProfile(
            name=name,
            cycles=sink.cycles[name],
            instructions=instruction_counts.get(name, 0),
        )
        for name, _begin, _end in regions
    ]
    loops.append(
        LoopProfile(
            name="(outside)",
            cycles=sink.cycles["(outside)"],
            instructions=0,
        )
    )
    return ProfileReport(config=config, total_cycles=sink.total, loops=loops)


# ----------------------------------------------------------------------
# Engine-level profile: where the replay engine spends and saves cycles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineLoopProfile:
    """One backedge target's replay statistics, mapped to its loop."""

    name: str
    target: int
    phase: str
    live_iterations: int
    replayed_iterations: int
    iteration_cycles: int | None
    replayed_cycles: int
    verify_failures: int
    signature_restarts: int
    signature_mismatches: int
    divergences: int

    @property
    def live_cycles(self) -> int | None:
        """Approximate cycles spent simulating this loop live."""
        if self.iteration_cycles is None:
            return None
        return self.live_iterations * self.iteration_cycles

    @property
    def replayed_fraction(self) -> float:
        """Share of this loop's iterations that were replayed."""
        total = self.live_iterations + self.replayed_iterations
        return self.replayed_iterations / total if total else 0.0


@dataclass
class EngineProfileReport:
    config: MachineConfig
    total_cycles: int
    replayed_cycles: int
    replayed_iterations: int
    loops: list[EngineLoopProfile]

    @property
    def replayed_cycle_fraction(self) -> float:
        return self.replayed_cycles / self.total_cycles if self.total_cycles else 0.0


def profile_engine(
    config: MachineConfig,
    program: Program,
    regions: list[tuple[str, int, int]],
) -> EngineProfileReport:
    """Run with the replay engine on and report what it memoized.

    Each loop backedge target the :class:`~repro.core.replay.ReplayController`
    tracked is mapped back to its benchmark loop, with live vs replayed
    iteration and cycle counts plus the signature-match statistics
    (verify failures, restarts, mismatches, divergences) that explain
    why a loop did or did not engage.
    """
    region_map = _RegionMap(regions)
    simulator = Simulator(config, program, skip=True, replay=True)
    result = simulator.run()
    controller = simulator.replay_controller
    loops = [
        EngineLoopProfile(
            name=region_map.lookup(report["target"]) or "(outside)",
            target=report["target"],
            phase=report["phase"],
            live_iterations=report["live_iterations"],
            replayed_iterations=report["replayed_iterations"],
            iteration_cycles=report["iteration_cycles"],
            replayed_cycles=report["replayed_cycles"],
            verify_failures=report["verify_failures"],
            signature_restarts=report["signature_restarts"],
            signature_mismatches=report["signature_mismatches"],
            divergences=report["divergences"],
        )
        for report in controller.loop_reports()
    ]
    return EngineProfileReport(
        config=config,
        total_cycles=result.cycles,
        replayed_cycles=controller.replayed_cycles,
        replayed_iterations=controller.replayed_iterations,
        loops=loops,
    )


def render_engine_profile(report: EngineProfileReport) -> str:
    """Text table: per-loop live vs replayed cycles and match statistics."""
    lines = [
        f"replay engine profile — {report.config.describe()}",
        f"{'loop':<12}{'state':<11}{'live it':>8}{'replay it':>10}"
        f"{'it cyc':>8}{'replay cyc':>11}{'replayed':>10}",
    ]
    for loop in report.loops:
        iteration = loop.iteration_cycles if loop.iteration_cycles else "—"
        lines.append(
            f"{loop.name:<12}{loop.phase:<11}{loop.live_iterations:>8}"
            f"{loop.replayed_iterations:>10}{iteration:>8}"
            f"{loop.replayed_cycles:>11}{loop.replayed_fraction:>10.1%}"
        )
        troubles = []
        if loop.verify_failures:
            troubles.append(f"{loop.verify_failures} verify failure(s)")
        if loop.signature_restarts:
            troubles.append(f"{loop.signature_restarts} restart(s)")
        if loop.signature_mismatches:
            troubles.append(f"{loop.signature_mismatches} mismatch(es)")
        if loop.divergences:
            troubles.append(f"{loop.divergences} divergence(s)")
        if troubles:
            lines.append(f"{'':<12}  {', '.join(troubles)}")
    lines.append(
        f"{'total':<12}{'':<11}{'':>8}{report.replayed_iterations:>10}{'':>8}"
        f"{report.replayed_cycles:>11}{report.replayed_cycle_fraction:>10.1%}"
    )
    lines.append(
        f"{report.replayed_cycles} of {report.total_cycles} cycles "
        f"({report.replayed_cycle_fraction:.1%}) accounted arithmetically"
    )
    return "\n".join(lines)


def render_profile(report: ProfileReport) -> str:
    """Text table: per-loop cycles, instructions, CPI, and share."""
    lines = [
        f"cycle profile — {report.config.describe()}",
        f"{'loop':<12}{'cycles':>10}{'instrs':>10}{'CPI':>7}{'share':>8}",
    ]
    for loop in report.loops:
        share = loop.cycles / report.total_cycles if report.total_cycles else 0.0
        cpi = f"{loop.cpi:.2f}" if loop.instructions else "—"
        lines.append(
            f"{loop.name:<12}{loop.cycles:>10}{loop.instructions:>10}"
            f"{cpi:>7}{share:>8.1%}"
        )
    lines.append(f"{'total':<12}{report.total_cycles:>10}")
    return "\n".join(lines)
