"""Fault-tolerant execution: the one fault policy every sweep runs under.

A paper-scale design-space sweep is thousands of independent simulation
points across worker processes and a content-addressed result cache.
Each of those layers can fail — a worker segfaults, a point wedges, a
cache blob is truncated — and a single-shot sweep dies at 94% with its
completed work discarded.  This module holds the policy and the ledger
that make those failure modes survivable while keeping the numbers
*exactly* what a clean serial reference run would produce:

:class:`FaultPolicy`
    the knobs every sweep runs under — a per-point ``timeout`` and
    ``max_retries`` — and the :class:`FaultReport` it records into.
    The pool loop (:func:`repro.core.parallel.sweep_map`) retries what a
    retry can change and never what it cannot: a worker crash or a point
    timeout is charged an attempt and retried up to ``max_retries``
    times, while an exception raised by the point itself fails the
    point on its first attempt.  The simulator is deterministic, so the
    same config and program raise the same exception again.  A fast-path
    bug is one of those: every point runs on the one engine the run
    selected, so the bug fails loudly instead of being re-run on a
    slower engine.

:class:`FaultReport`
    the ledger: every recovery action (timeout, worker crash, pool
    respawn, serial fallback, cache quarantine, gave-up) is recorded as
    a :class:`FaultEvent` against the point it happened to, so a sweep
    that healed itself says exactly how.

:class:`SweepPointError`
    the points that stayed broken, raised only after every other point
    has completed.

The result cache is the checkpoint: the resolver stores each point as it
completes, so running an interrupted command again answers its finished
points from the cache and simulates only the rest.  The deterministic
fault injectors live in :mod:`repro.core.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "FaultEvent",
    "FaultPolicy",
    "FaultReport",
    "SweepPointError",
]

#: Attempts per point beyond the first after a worker crash or a point
#: timeout.  Not 0: a crash breaks the pool and charges *every* point in
#: flight, not only the one whose worker died, so an innocent sibling
#: needs a retry to finish.
DEFAULT_MAX_RETRIES = 2


# ----------------------------------------------------------------------
# The recovery ledger
# ----------------------------------------------------------------------
@dataclass
class FaultEvent:
    """One recovery action taken on behalf of one sweep point."""

    point: str  #: point label (machine description, key prefix or index)
    kind: str  #: timeout | worker_crash | pool_respawn | serial_fallback |
    #: cache_quarantine | gave_up
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
    """Every recovery action taken during one run's sweeps."""

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
        """Human-readable report (the CLI prints it when not clean)."""
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


@dataclass
class FaultPolicy:
    """The fault policy of one run: limits, and the ledger it fills.

    Passed to :func:`repro.core.sweep.resolve_points` (through
    ``run_cache_sweep``, ``run_figure`` or an experiment context), which
    runs its cache misses under it and records cache quarantines into
    :attr:`report`.  ``timeout`` is each point's wall-clock limit in
    seconds (``None``: none); ``max_retries`` bounds the retries of a
    point whose worker crashed or timed out.
    """

    timeout: float | None = None
    max_retries: int = DEFAULT_MAX_RETRIES
    report: FaultReport = field(default_factory=FaultReport)
