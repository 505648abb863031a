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

:func:`supervised_map`
    the sweep executor (:func:`repro.core.parallel.sweep_map`) with its
    fault policy on: per-point timeouts, bounded retry-with-backoff, and
    ``BrokenProcessPool`` recovery — the pool is respawned, in-flight
    points are requeued, and after repeated pool failures the remaining
    points run serially in-process.  Completed siblings are never
    discarded; points that stay broken after every recovery raise
    :class:`SweepPointError` *after* everything recoverable has
    finished (and been checkpointed).  A simulator bug is one of those:
    every point runs on the one engine the run selected, and an
    exception from it is charged like any other point error, so a
    fast-path bug fails loudly instead of being re-run on a slower
    engine.

:class:`SweepCheckpoint`
    a periodic atomic manifest of completed sweep points keyed by the
    simulation cache's content address, so ``repro-sim ... --resume``
    restarts a killed sweep from where it died.

:class:`SweepSupervisor` bundles the knobs for
:func:`repro.core.sweep.resolve_points`, the resolver every sweep and
experiment point goes through; the deterministic fault injectors live
in :mod:`repro.core.faults`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..asm.program import Program
from .config import MachineConfig
from .parallel import _init_simulation_worker, sweep_map
from .results import SimulationResult

__all__ = [
    "CheckpointLockError",
    "FaultEvent",
    "FaultReport",
    "SweepCheckpoint",
    "SweepPointError",
    "SweepSupervisor",
    "retry_backoff",
    "supervised_map",
    "supervised_simulate_many",
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
    preserved in the cache/checkpoint for a ``--resume``.
    """

    def __init__(self, failures: list[tuple[str, BaseException]]):
        self.failures = failures
        detail = "; ".join(
            f"{label}: {type(exc).__name__}: {exc}" for label, exc in failures
        )
        super().__init__(
            f"{len(failures)} sweep point(s) failed permanently: {detail}"
        )


# ----------------------------------------------------------------------
# Retry backoff (decorrelated jitter, seeded-deterministic)
# ----------------------------------------------------------------------
#: default ceiling on one jittered retry delay, as a multiple of ``base``
BACKOFF_CAP_FACTOR = 16.0


def retry_backoff(
    base: float,
    attempt: int,
    key: str,
    cap: float | None = None,
    seed: int | None = None,
) -> float:
    """Decorrelated-jitter delay before retry ``attempt`` of point ``key``.

    A pool respawn hands every interrupted point back at the same
    instant; if they all sleep ``base * attempt`` they all return at the
    same instant too and stampede the fresh pool.  Jitter decorrelates
    them — each point walks its own delay sequence
    ``d(i) = min(cap, base + u * (3 * d(i-1) - base))`` with ``u`` drawn
    per ``(seed, key, i)`` — while staying a *pure function* of its
    inputs: the seed comes from the active fault plan
    (``REPRO_FAULT_PLAN``; 0 when disarmed), so an injected rehearsal
    replays byte-identical timing decisions.  ``base <= 0`` disables
    backoff entirely, as before.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    if cap is None:
        cap = base * BACKOFF_CAP_FACTOR
    from .faults import active_plan, seeded_uniform

    if seed is None:
        plan = active_plan()
        seed = plan.seed if plan is not None else 0
    delay = base
    for step in range(1, attempt + 1):
        u = seeded_uniform(seed, "backoff", key, str(step))
        delay = min(cap, base + u * (3.0 * delay - base))
    return delay


# ----------------------------------------------------------------------
# Supervised fan-out: the sweep executor with its fault policy on
# ----------------------------------------------------------------------
def supervised_map(
    fn: Callable,
    items: Sequence,
    *,
    jobs: int | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    backoff: float = 0.25,
    report: FaultReport | None = None,
    labels: Sequence[str] | None = None,
    no_retry: tuple[type[BaseException], ...] = (),
    initializer: Callable | None = None,
    initargs: tuple = (),
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """``[fn(item) for item in items]`` under a fault supervisor.

    Like :func:`repro.core.parallel.parallel_map`, results come back in
    input order and the serial path is taken for ``jobs <= 1`` — but
    failures are *handled* instead of propagated: retries with
    decorrelated-jitter backoff (:func:`retry_backoff`), per-point
    timeouts that kill the hung worker, pool respawns after a crash,
    and a serial fallback (see :func:`~repro.core.parallel.sweep_map`
    for the exact policy).  Every recovery is recorded in ``report``;
    ``on_result(index, value)`` fires as each point completes
    (checkpoint hook).  Points still failing after all that raise
    :class:`SweepPointError` at the end — after every recoverable point
    has completed.
    """
    items = list(items)
    if labels is None:
        labels = [str(index) for index in range(len(items))]
    values, failed = sweep_map(
        fn,
        items,
        jobs=jobs,
        initializer=initializer,
        initargs=initargs,
        on_result=on_result,
        report=report if report is not None else FaultReport(),
        labels=labels,
        timeout=timeout,
        max_retries=max_retries,
        backoff=backoff,
        no_retry=no_retry,
    )
    if failed:
        raise SweepPointError(
            [(labels[index], exc) for index, exc in sorted(failed.items())]
        )
    return values


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


def supervised_simulate_many(
    program: Program,
    configs: Sequence[MachineConfig],
    *,
    keys: Sequence[str] | None = None,
    jobs: int | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    backoff: float = 0.25,
    report: FaultReport | None = None,
    on_result: Callable[[int, SimulationResult], None] | None = None,
) -> list[SimulationResult]:
    """:func:`~repro.core.parallel.simulate_many` under the supervisor.

    Results come back in ``configs`` order, byte-identical to a clean
    serial reference run.  A point whose simulation raises — a fast-path
    bug included — is retried like any other failure and, if it keeps
    failing, named in the final :class:`SweepPointError`.
    """
    from .simcache import sweep_point_keys
    from .simulator import DeadlockError, SimulationTimeout

    configs = list(configs)
    if keys is None:
        keys = sweep_point_keys(program, configs)
    return supervised_map(
        _supervised_point,
        list(zip(keys, configs)),
        jobs=jobs,
        timeout=timeout,
        max_retries=max_retries,
        backoff=backoff,
        report=report,
        labels=[key[:12] for key in keys],
        no_retry=(DeadlockError, SimulationTimeout),
        initializer=_init_simulation_worker,
        initargs=(program,),
        on_result=on_result,
    )


# ----------------------------------------------------------------------
# Sweep checkpoint / resume
# ----------------------------------------------------------------------
class CheckpointLockError(RuntimeError):
    """Another live process holds the checkpoint manifest's lock."""


class SweepCheckpoint:
    """Atomic manifest of completed sweep points, for ``--resume``.

    Entries are keyed by the simulation cache's content address (which
    folds in the program image, every config field, the cache format
    and the engine revision), so a stale manifest can never satisfy a
    changed sweep — unmatched entries are simply ignored.  Writes go to
    a temp sibling and are published with ``os.replace``, every
    ``interval`` completions and at :meth:`flush`.

    **Exclusive lock.**  ``os.replace`` makes each individual publish
    atomic, but two ``--resume`` runs writing the same manifest would
    still interleave *whole* publishes and silently drop each other's
    points (last writer wins).  :meth:`acquire` takes an exclusive
    lockfile (``<manifest>.lock``, claimed with ``O_CREAT | O_EXCL``)
    before the manifest is read or written; a second run fails fast
    with :class:`CheckpointLockError` naming the holder instead of
    corrupting progress.  A lock left by a dead process (the pid inside
    no longer exists) is broken automatically — a crashed sweep must
    not brick its own resume.  The supervised sweep path acquires the
    lock for you; direct users can treat the checkpoint as a context
    manager.
    """

    MANIFEST_VERSION = 1

    def __init__(self, path: str | os.PathLike, interval: int = 8):
        self.path = Path(path)
        self.interval = max(1, int(interval))
        self._points: dict[str, dict] = {}
        self._dirty = 0
        self._lock_fd: int | None = None

    # ------------------------------------------------------------------
    # Exclusive lock (one live writer per manifest)
    # ------------------------------------------------------------------
    @property
    def lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except (PermissionError, OSError):
            return True  # exists but isn't ours — still alive
        return True

    def acquire(self) -> "SweepCheckpoint":
        """Take the manifest's exclusive lock (idempotent per instance).

        Raises :class:`CheckpointLockError` if a *live* process holds
        it; a stale lock (dead pid, or unreadable contents) is broken
        and re-claimed.
        """
        if self._lock_fd is not None:
            return self  # already ours
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _attempt in range(16):
            try:
                fd = os.open(
                    self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                try:
                    holder = int(self.lock_path.read_text().strip())
                except (OSError, ValueError):
                    holder = None  # torn write or vanished: treat as stale
                if (
                    holder is not None
                    and holder != os.getpid()  # our own earlier claim
                    and self._pid_alive(holder)
                ):
                    raise CheckpointLockError(
                        f"checkpoint {self.path} is locked by running "
                        f"process {holder} ({self.lock_path})"
                    )
                # Stale: break it and race for the claim again.  Only
                # one of several breakers wins the O_EXCL create.
                try:
                    self.lock_path.unlink()
                except OSError:
                    pass
                continue
            os.write(fd, str(os.getpid()).encode())
            self._lock_fd = fd
            return self
        raise CheckpointLockError(
            f"could not claim {self.lock_path} after repeated stale-lock "
            "breaks (another process keeps re-claiming it)"
        )

    def release(self) -> None:
        """Drop the lock (no-op when not held by this instance)."""
        if self._lock_fd is None:
            return
        try:
            os.close(self._lock_fd)
        except OSError:
            pass
        self._lock_fd = None
        try:
            self.lock_path.unlink()
        except OSError:
            pass

    @property
    def locked(self) -> bool:
        return self._lock_fd is not None

    def __enter__(self) -> "SweepCheckpoint":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def load(self) -> int:
        """Read the manifest; a missing/corrupt one starts empty."""
        try:
            payload = json.loads(self.path.read_text())
            points = payload["points"]
            if payload.get("version") != self.MANIFEST_VERSION or not isinstance(
                points, dict
            ):
                raise ValueError("unrecognized checkpoint manifest")
        except (OSError, ValueError, KeyError, TypeError):
            self._points = {}
            return 0
        self._points = points
        return len(points)

    def get(self, key: str) -> SimulationResult | None:
        """A completed point's result, or ``None`` (bad entries ignored)."""
        payload = self._points.get(key)
        if payload is None:
            return None
        try:
            return SimulationResult.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            self._points.pop(key, None)
            return None

    def add(self, key: str, result: SimulationResult) -> None:
        self._points[key] = result.to_dict()
        self._dirty += 1
        if self._dirty >= self.interval:
            self.flush()

    def flush(self) -> None:
        """Publish the manifest atomically (temp file + ``os.replace``)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": self.MANIFEST_VERSION, "points": self._points}
        tmp = self.path.with_name(f"{self.path.name}.tmp.{os.getpid()}")
        # Canonical key order: manifests written under different point
        # scheduling (pool completion order vs serial) compare
        # byte-identical once they hold the same completed points.
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self.path)
        self._dirty = 0

    def __len__(self) -> int:
        return len(self._points)


# ----------------------------------------------------------------------
# The bundle resolve_points consumes
# ----------------------------------------------------------------------
@dataclass
class SweepSupervisor:
    """Fault-tolerance knobs for one supervised run.

    Passed to :func:`repro.core.sweep.resolve_points` (through
    ``run_cache_sweep`` or an experiment context), which routes its
    misses through :meth:`simulate_points`, records cache quarantines
    into :attr:`report`, checkpoints completions into
    :attr:`checkpoint`, and — with :attr:`resume` — pre-resolves points
    the manifest already holds (counted in :attr:`resumed`).
    """

    jobs: int | None = None
    timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.25
    report: FaultReport = field(default_factory=FaultReport)
    checkpoint: SweepCheckpoint | None = None
    resume: bool = False
    resumed: int = 0  #: points satisfied from the manifest this run

    def simulate_points(
        self,
        program: Program,
        configs: Sequence[MachineConfig],
        keys: Sequence[str],
        on_result: Callable[[int, SimulationResult], None] | None = None,
    ) -> list[SimulationResult]:
        return supervised_simulate_many(
            program,
            configs,
            keys=keys,
            jobs=self.jobs,
            timeout=self.timeout,
            max_retries=self.max_retries,
            backoff=self.backoff,
            report=self.report,
            on_result=on_result,
        )
