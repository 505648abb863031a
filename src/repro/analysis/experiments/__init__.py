"""One module per paper experiment (tables, figures, claims, ablations).

Each experiment module exposes ``run(context) -> ExperimentReport``.
:class:`ExperimentContext` carries the benchmark program and memoises
sweeps so experiments that share parameter points (e.g. Figure 5b and
Figure 6a) do not re-simulate them.

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
from typing import Callable, Sequence

from ...asm.program import Program
from ...core.config import PAPER_CACHE_SIZES, MachineConfig
from ...core.resilience import FaultPolicy
from ...core.results import SimulationResult
from ...core.simcache import SimulationCache
from ...core.sweep import SweepSeries, resolve_points, run_cache_sweep
from ..claims import ClaimCheck

__all__ = [
    "EXPERIMENTS",
    "ExperimentContext",
    "ExperimentReport",
    "get_experiment",
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
    """Shared state across experiments: the program plus a sweep memo.

    ``jobs``, ``cache`` and ``policy`` flow into every sweep and every
    simulation an experiment routes through :meth:`simulate` /
    :meth:`simulate_many`, giving the whole report parallel fan-out,
    content-addressed result reuse and one fault policy (and one fault
    report) without each experiment module knowing about any of them.
    """

    program: Program
    cache_sizes: Sequence[int] = PAPER_CACHE_SIZES
    suite: object | None = None  #: LivermoreSuite when available (table1)
    scale: float = 1.0  #: workload scale the program was built with
    jobs: int = 1  #: worker processes for independent simulation points
    cache: SimulationCache | None = None  #: content-addressed result store
    policy: FaultPolicy = field(default_factory=FaultPolicy)  #: fault policy
    _sweeps: dict[tuple, list[SweepSeries]] = field(default_factory=dict)

    def sweep(
        self,
        memory_access_time: int,
        input_bus_width: int,
        memory_pipelined: bool = False,
        **extra,
    ) -> list[SweepSeries]:
        key = (
            memory_access_time,
            input_bus_width,
            memory_pipelined,
            tuple(sorted(extra.items())),
            tuple(self.cache_sizes),
        )
        if key not in self._sweeps:
            self._sweeps[key] = run_cache_sweep(
                self.program,
                cache_sizes=self.cache_sizes,
                jobs=self.jobs,
                cache=self.cache,
                policy=self.policy,
                memory_access_time=memory_access_time,
                input_bus_width=input_bus_width,
                memory_pipelined=memory_pipelined,
                **extra,
            )
        return self._sweeps[key]

    # ------------------------------------------------------------------
    # The experiments' ad-hoc points, through the same resolver as sweeps
    # ------------------------------------------------------------------
    def simulate(
        self, config: MachineConfig, program: Program | None = None
    ) -> SimulationResult:
        """One simulation point, resolved like :meth:`simulate_many`."""
        return self.simulate_many([config], program)[0]

    def simulate_many(
        self, configs: Sequence[MachineConfig], program: Program | None = None
    ) -> list[SimulationResult]:
        """Independent points through :func:`~repro.core.sweep.resolve_points`.

        Results come back in ``configs`` order, identical to simulating
        each point serially.
        """
        return resolve_points(
            program or self.program,
            configs,
            jobs=self.jobs,
            cache=self.cache,
            policy=self.policy,
        )


def get_experiment(experiment_id: str) -> Callable[[ExperimentContext], ExperimentReport]:
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
        "table1": table1.run,
        "table2": table2.run,
        "figure4": figure4.run,
        "figure5": figure5.run,
        "figure6": figure6.run,
        "headline": headline.run,
        "ablations": ablations.run,
        "hill": hill.run,
        "tib": tib.run,
        "queues": queues.run,
        "assoc": associativity.run,
        "delays": delays.run,
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


def run_experiment(experiment_id: str, context: ExperimentContext) -> ExperimentReport:
    """Run one experiment by id against a shared context."""
    return get_experiment(experiment_id)(context)
