"""One module per paper experiment (tables, figures, claims, ablations).

Each experiment module exposes ``points(context)``, the ``(program,
config)`` points its ``run`` reads, built from the same constants, and
``run(context) -> ExperimentReport``, which reads their results from
the :class:`ExperimentContext`'s memo and resolves nothing itself.
:meth:`ExperimentContext.resolve` fills the memo through
:func:`repro.core.sweep.resolve_points`, one fan-out per call: ``repro-sim
report`` resolves the union of every experiment's points
(:func:`experiment_points`) before it renders any, and
:func:`run_experiment` resolves its own experiment's points, which after
a report's union are all in the memo already.  Experiments that share
points (Figure 5b and Figure 6a, say) share their results.  A point that
``run`` reads and ``points`` leaves out raises :class:`KeyError`; it is
never simulated on the side.

Registry:

=============  ====================================================
``table1``     inner-loop sizes (our Table I vs the paper's)
``table2``     IQ/IQB configurations (Table II)
``figure4``    cycles vs cache size, access=1 (4a: 4B bus, 4b: 8B)
``figure5``    cycles vs cache size, access=6 (5a: 4B bus, 5b: 8B)
``figure6``    access=6, 8B bus (6a: non-pipelined, 6b: pipelined)
``headline``   the "up to twice as fast" claim (section 7)
``ablations``  access-time 2/3, fetch policy, priority, format
``hill``       Hill's prefetch-strategy ranking (section 4.1)
``tib``        the Target Instruction Buffer trade-off (section 2.1)
``queues``     IQ/IQB size sensitivity (parameters 7/8)
``assoc``      cache associativity vs the paper's direct mapping
``delays``     PBR delay-slot utilisation (section 3.1.3)
=============  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import ModuleType
from typing import Iterable, Sequence

from ...asm.program import Program
from ...core.config import PAPER_CACHE_SIZES, MachineConfig
from ...core.resilience import FaultPolicy
from ...core.results import SimulationResult
from ...core.simcache import SimulationCache
from ...core.sweep import (
    Point,
    SweepSeries,
    resolve_points,
    sweep_points,
    sweep_series,
)
from ..claims import ClaimCheck

__all__ = [
    "EXPERIMENTS",
    "ExperimentContext",
    "ExperimentReport",
    "experiment_points",
    "run_experiment",
]


@dataclass
class ExperimentReport:
    """The output of one experiment: text, raw series, and claim checks."""

    experiment_id: str
    text: str
    series: dict[str, list[SweepSeries]] = field(default_factory=dict)
    checks: list[ClaimCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def render_checks(self) -> str:
        return "\n".join(str(check) for check in self.checks) or "(no checks)"


@dataclass
class ExperimentContext:
    """Shared state across experiments: the program plus a result memo.

    ``jobs``, ``cache``, ``policy`` and ``skip`` flow into every fan-out
    :meth:`resolve` makes, giving the whole report parallel fan-out,
    content-addressed result reuse and one fault policy (and one fault
    report) without each experiment module knowing about any of them.
    The memo holds each resolved point's result for as long as the
    context lives: one command.
    """

    program: Program
    cache_sizes: Sequence[int] = PAPER_CACHE_SIZES
    suite: object | None = None  #: LivermoreSuite when available (table1)
    scale: float = 1.0  #: workload scale the program was built with
    jobs: int = 1  #: worker processes for independent simulation points
    cache: SimulationCache | None = None  #: content-addressed result store
    policy: FaultPolicy = field(default_factory=FaultPolicy)  #: fault policy
    skip: bool = True  #: False simulates on the reference loop (--no-skip)
    #: resolved results by program identity and machine
    _memo: dict[tuple[int, MachineConfig], SimulationResult] = field(
        default_factory=dict, repr=False
    )
    #: the memo's programs, kept alive so that their ids stay theirs
    _programs: dict[int, Program] = field(default_factory=dict, repr=False)

    def resolve(self, points: Iterable[Point]) -> None:
        """Resolve the points not yet in the memo, in one fan-out."""
        missing = [
            (program, config)
            for program, config in points
            if (id(program), config) not in self._memo
        ]
        if not missing:
            return
        results = resolve_points(
            missing,
            jobs=self.jobs,
            cache=self.cache,
            policy=self.policy,
            skip=self.skip,
        )
        for (program, config), result in zip(missing, results):
            self._programs[id(program)] = program
            self._memo[id(program), config] = result

    def result(
        self, config: MachineConfig, program: Program | None = None
    ) -> SimulationResult:
        """A resolved point's result (``program``: the context's own)."""
        program = self.program if program is None else program
        try:
            return self._memo[id(program), config]
        except KeyError:
            raise KeyError(
                f"{config.label()} is not among the resolved points: "
                "the experiment's points() must list it"
            ) from None

    def results(self, configs: Iterable[MachineConfig]) -> list[SimulationResult]:
        """:meth:`result` of each config, on the context's program."""
        return [self.result(config) for config in configs]

    def sweep_points(self, *sweeps: dict) -> list[Point]:
        """The points of each sweep (a dict of :meth:`sweep` overrides)."""
        return [
            (self.program, config)
            for overrides in sweeps
            for _label, curve in sweep_points(self.cache_sizes, **overrides)
            for _size, config in curve
        ]

    def sweep(self, **overrides) -> list[SweepSeries]:
        """The five curves over the context's cache sizes at one memory
        design point (``memory_access_time``, ``input_bus_width``, ...),
        from the memo."""
        points = sweep_points(self.cache_sizes, **overrides)
        return sweep_series(
            points,
            [self.result(config) for _label, curve in points for _, config in curve],
        )


def _experiment(experiment_id: str) -> ModuleType:
    """The module of one experiment; :class:`KeyError` for an unknown id."""
    from . import (
        ablations,
        associativity,
        delays,
        figure4,
        figure5,
        figure6,
        headline,
        hill,
        queues,
        table1,
        table2,
        tib,
    )

    registry = {
        "table1": table1,
        "table2": table2,
        "figure4": figure4,
        "figure5": figure5,
        "figure6": figure6,
        "headline": headline,
        "ablations": ablations,
        "hill": hill,
        "tib": tib,
        "queues": queues,
        "assoc": associativity,
        "delays": delays,
    }
    return registry[experiment_id]


EXPERIMENTS = (
    "table1",
    "table2",
    "figure4",
    "figure5",
    "figure6",
    "headline",
    "ablations",
    "hill",
    "tib",
    "queues",
    "assoc",
    "delays",
)


def experiment_points(
    experiment_ids: Iterable[str], context: ExperimentContext
) -> list[Point]:
    """Every point the experiments read, in order, repeats included."""
    return [
        point
        for experiment_id in experiment_ids
        for point in _experiment(experiment_id).points(context)
    ]


def run_experiment(experiment_id: str, context: ExperimentContext) -> ExperimentReport:
    """Run one experiment by id: resolve its points, then render it."""
    experiment = _experiment(experiment_id)
    context.resolve(experiment.points(context))
    return experiment.run(context)
