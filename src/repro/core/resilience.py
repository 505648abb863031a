"""Fault-tolerant execution: supervised sweeps that finish.

A paper-scale design-space sweep is thousands of independent simulation
points across worker processes and a content-addressed result cache.
Each of those layers can fail — a worker segfaults, a point wedges, a
cache blob is truncated — and a single-shot sweep dies at 94% with its
completed work discarded.  This module makes those failure modes
survivable while keeping the numbers *exactly* what a clean serial
reference run would produce:

:class:`FaultReport`
    the ledger: every recovery action (retry, timeout, worker crash,
    pool respawn, serial fallback, cache quarantine) is recorded as a
    :class:`FaultEvent` against the point it happened to, so a sweep
    that healed itself says exactly how.

:class:`SweepSupervisor`
    the knobs :func:`repro.core.sweep.resolve_points` runs a point
    list's cache misses under.  :meth:`SweepSupervisor.simulate_points`
    puts them on the sweep executor
    (:func:`repro.core.parallel.sweep_map`) with its fault policy on:
    per-point timeouts, bounded retries, and ``BrokenProcessPool``
    recovery — the pool is respawned, in-flight points are requeued,
    and after repeated pool failures the remaining points run serially
    in-process.  Completed siblings are never discarded; points that
    stay broken after every recovery raise :class:`SweepPointError`
    *after* everything recoverable has finished.  A simulator bug is
    one of those: every point runs on the one engine the run selected,
    and an exception from it is charged like any other point error, so
    a fast-path bug fails loudly instead of being re-run on a slower
    engine.

The result cache is the checkpoint: the resolver stores each supervised
point as it completes, so running an interrupted command again answers
its finished points from the cache and simulates only the rest.  The
deterministic fault injectors live in :mod:`repro.core.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..asm.program import Program
from .config import MachineConfig
from .parallel import _init_simulation_worker, sweep_map
from .results import SimulationResult

__all__ = [
    "FaultEvent",
    "FaultReport",
    "SweepPointError",
    "SweepSupervisor",
]


# ----------------------------------------------------------------------
# The recovery ledger
# ----------------------------------------------------------------------
@dataclass
class FaultEvent:
    """One recovery action taken on behalf of one sweep point."""

    point: str  #: point label (content-key prefix or index)
    kind: str  #: retry | timeout | worker_crash | pool_respawn |
    #: serial_fallback | cache_quarantine | gave_up
    detail: str = ""
    attempt: int = 0

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "kind": self.kind,
            "detail": self.detail,
            "attempt": self.attempt,
        }

    def __str__(self) -> str:
        parts = [f"[{self.kind}] point {self.point}"]
        if self.attempt:
            parts.append(f"attempt {self.attempt}")
        if self.detail:
            parts.append(self.detail)
        return " — ".join(parts)


@dataclass
class FaultReport:
    """Every recovery action taken during one supervised sweep."""

    events: list[FaultEvent] = field(default_factory=list)

    def record(
        self, point: str, kind: str, detail: str = "", attempt: int = 0
    ) -> FaultEvent:
        event = FaultEvent(point=point, kind=kind, detail=detail, attempt=attempt)
        self.events.append(event)
        return event

    def counts(self) -> dict[str, int]:
        """Event tally by kind, insertion-ordered."""
        tally: dict[str, int] = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally

    @property
    def clean(self) -> bool:
        return not self.events

    def to_dict(self) -> dict:
        return {
            "events": [event.to_dict() for event in self.events],
            "counts": self.counts(),
        }

    def summary(self) -> str:
        """Human-readable report (the CLI prints this after a sweep)."""
        if self.clean:
            lines = ["fault report  : clean (no recovery actions)"]
        else:
            lines = [f"fault report  : {len(self.events)} recovery action(s)"]
            for kind, count in self.counts().items():
                lines.append(f"  {kind:<16} {count}")
            for event in self.events:
                lines.append(f"  {event}")
        return "\n".join(lines)


class SweepPointError(RuntimeError):
    """Points that stayed broken after every recovery was exhausted.

    Raised only after all *recoverable* points have completed (and been
    delivered through ``on_result``), so a partial sweep's progress is
    in the result cache, where running the command again finds it.
    """

    def __init__(self, failures: list[tuple[str, BaseException]]):
        self.failures = failures
        detail = "; ".join(
            f"{label}: {type(exc).__name__}: {exc}" for label, exc in failures
        )
        super().__init__(
            f"{len(failures)} sweep point(s) failed permanently: {detail}"
        )


def _supervised_point(task: tuple[str, MachineConfig]) -> SimulationResult:
    """Worker body: injectors first, then the point on the run's engine."""
    from . import parallel
    from .faults import maybe_hang_point, maybe_kill_worker
    from .simulator import simulate  # late: the simulator is heavy

    key, config = task
    maybe_kill_worker(key)
    maybe_hang_point(key)
    program = parallel._worker_program
    assert program is not None, "worker initialized without a program"
    return simulate(config, program)


# ----------------------------------------------------------------------
# The bundle resolve_points consumes
# ----------------------------------------------------------------------
@dataclass
class SweepSupervisor:
    """Fault-tolerance knobs for one supervised run.

    Passed to :func:`repro.core.sweep.resolve_points` (through
    ``run_cache_sweep`` or an experiment context), which routes its
    cache misses through :meth:`simulate_points` and records cache
    quarantines into :attr:`report`.
    """

    jobs: int | None = None
    timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.25
    report: FaultReport = field(default_factory=FaultReport)

    def simulate_points(
        self,
        program: Program,
        configs: Sequence[MachineConfig],
        keys: Sequence[str],
        on_result: Callable[[int, SimulationResult], None] | None = None,
    ) -> list[SimulationResult]:
        """Simulate every config under the fault policy, in ``configs`` order.

        ``keys`` are the points' content addresses: the fault injectors
        fire by them and the report labels each point ``key[:12]``.
        ``on_result(index, result)`` fires as each point completes.  A
        point that keeps failing is named in the :class:`SweepPointError`
        raised once every other point has completed; a deadlock or a
        simulation timeout is deterministic and is not retried.
        """
        from .simulator import DeadlockError, SimulationTimeout

        labels = [key[:12] for key in keys]
        values, failed = sweep_map(
            _supervised_point,
            list(zip(keys, configs)),
            jobs=self.jobs,
            initializer=_init_simulation_worker,
            initargs=(program,),
            on_result=on_result,
            report=self.report,
            labels=labels,
            timeout=self.timeout,
            max_retries=self.max_retries,
            backoff=self.backoff,
            no_retry=(DeadlockError, SimulationTimeout),
        )
        if failed:
            raise SweepPointError(
                [(labels[index], exc) for index, exc in sorted(failed.items())]
            )
        return values
