"""Deterministic fault injection for the resilient execution layer.

Large sweeps only earn trust in their fault handling if the faults can
be *reproduced*: a retry path that fires once a month is a retry path
that rots.  This module provides seeded injectors for the failure
classes the supervisor (:mod:`repro.core.resilience`) must survive:

``worker_kill``
    the worker process running a sweep point calls ``os._exit`` —
    the hard crash that breaks a ``ProcessPoolExecutor`` mid-sweep;
``point_hang``
    a sweep point sleeps past the supervisor's per-point timeout;
``cache_corrupt``
    a just-stored simulation-cache entry is truncated in place,
    emulating a process killed halfway through a (non-atomic) write.

Whether an injector fires for a given point is a pure function of the
plan's ``seed``, the injector kind, and the point's content key, so a
run with ``--inject-faults seed=7,...`` hits exactly the same points
every time.  Every injector additionally fires **once** per point,
coordinated across processes through marker files in the plan's
scratch directory — the retry of a killed point must succeed, not die
again forever.

The active plan travels through the ``REPRO_FAULT_PLAN`` environment
variable (as the CLI's engine switches do), so sweep worker processes
inherit it without any explicit plumbing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "activate",
    "active_plan",
    "deactivate",
    "corrupt_stored_entry",
    "maybe_hang_point",
    "maybe_kill_worker",
    "seeded_uniform",
]

#: Environment variable carrying the active plan (JSON) to workers.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The injector kinds, in the order they act on a sweep point.
FAULT_KINDS = ("worker_kill", "point_hang", "cache_corrupt")

#: ``--inject-faults`` spec keys → plan field names.  ``scratch_dir``
#: and ``host_pid`` are set by :func:`activate`, never by a spec: a
#: ``host_pid`` from the command line would make the CLI process pass
#: for a pool worker, which the kill injector then exits.
_SPEC_KEYS = {
    "seed": "seed",
    "kill": "worker_kill",
    "worker_kill": "worker_kill",
    "hang": "point_hang",
    "point_hang": "point_hang",
    "corrupt": "cache_corrupt",
    "cache_corrupt": "cache_corrupt",
    "hang-seconds": "hang_seconds",
    "hang_seconds": "hang_seconds",
}


def seeded_uniform(seed: int, *parts: str) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from a pure hash.

    Every seeded decision in the fault/resilience stack — which points
    an injector fires for, how long a jittered retry backs off — flows
    through this one function, so "same seed, same behaviour" holds
    across processes and platforms (no :mod:`random` state involved).
    """
    digest = hashlib.sha256(
        ":".join((str(seed), *parts)).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault-injection campaign.

    The ``worker_kill`` / ``point_hang`` / ``cache_corrupt`` fields are
    per-point firing rates in ``[0, 1]``; which points fire is decided
    by :meth:`fires`, a pure hash of ``(seed, kind, point key)``.
    ``scratch_dir`` hosts the cross-process once-markers; without one
    the injectors stay inert.
    """

    seed: int = 0
    worker_kill: float = 0.0
    point_hang: float = 0.0
    cache_corrupt: float = 0.0
    #: how long a hung point sleeps (keep above the supervisor timeout)
    hang_seconds: float = 5.0
    #: directory for the cross-process once-only markers
    scratch_dir: str | None = None
    #: pid of the supervising process (set by :func:`activate`); the
    #: worker-crash/hang injectors emulate *worker* failures and stay
    #: inert in this process — killing the supervisor itself would turn
    #: a drill into the disaster, and the serial-fallback path runs
    #: points in exactly this process
    host_pid: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from an ``--inject-faults`` spec string.

        A bare integer (``"42"``) seeds a default campaign that enables
        every injector at a 25% rate; otherwise the spec is
        ``key=value`` pairs separated by commas, e.g.
        ``"seed=7,kill=0.3,hang=0.1,corrupt=0.5"``.
        """
        spec = spec.strip()
        if not spec:
            raise ValueError("empty --inject-faults spec")
        try:
            seed = int(spec)
        except ValueError:
            pass
        else:
            return cls(seed=seed, **{kind: 0.25 for kind in FAULT_KINDS})
        fields = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"bad --inject-faults item {part!r}")
            name = _SPEC_KEYS.get(key.strip())
            if name is None:
                raise ValueError(f"unknown --inject-faults key {key.strip()!r}")
            fields[name] = int(value) if name == "seed" else float(value)
        return cls(**fields)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        return cls(**json.loads(raw))

    # ------------------------------------------------------------------
    def rate(self, kind: str) -> float:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        return getattr(self, kind)

    def fires(self, kind: str, key: str) -> bool:
        """Deterministic per-point decision: hash(seed, kind, key) < rate."""
        rate = self.rate(kind)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return seeded_uniform(self.seed, kind, key) < rate

    def fires_once(self, kind: str, key: str) -> bool:
        """:meth:`fires` gated by a cross-process once-per-point marker.

        The marker lives in ``scratch_dir`` and is claimed atomically
        (``O_CREAT | O_EXCL``), so exactly one process ever sees
        ``True`` for a given ``(kind, key)``.  Without a scratch
        directory the injectors never fire — an injector that cannot
        promise "once" would turn every retry into a new fault.
        """
        if self.scratch_dir is None or not self.fires(kind, key):
            return False
        marker = Path(self.scratch_dir) / f"{kind}-{key[:32]}"
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False  # unwritable scratch: stay inert
        os.close(fd)
        return True


# ----------------------------------------------------------------------
# Activation (environment channel, so worker processes inherit it)
# ----------------------------------------------------------------------
_cached: tuple[str | None, FaultPlan | None] = (None, None)


def activate(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide (and for any workers spawned later).

    If the plan enables an injector but names no scratch directory, a
    private temporary one is created for it; the (possibly updated)
    active plan is returned.
    """
    needs_scratch = any(plan.rate(kind) > 0 for kind in FAULT_KINDS)
    if needs_scratch and plan.scratch_dir is None:
        plan = dataclasses.replace(
            plan, scratch_dir=tempfile.mkdtemp(prefix="repro-faults-")
        )
    if plan.host_pid is None:
        plan = dataclasses.replace(plan, host_pid=os.getpid())
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    return plan


def deactivate() -> None:
    """Disarm fault injection for this process and future workers."""
    os.environ.pop(FAULT_PLAN_ENV, None)


def active_plan() -> FaultPlan | None:
    """The armed plan, or ``None``.  Reads (and memoizes) the env var."""
    global _cached
    raw = os.environ.get(FAULT_PLAN_ENV)
    if raw == _cached[0]:
        return _cached[1]
    plan = None
    if raw:
        try:
            plan = FaultPlan.from_json(raw)
        except (ValueError, TypeError):
            plan = None  # a garbled plan injects nothing
    _cached = (raw, plan)
    return plan


# ----------------------------------------------------------------------
# Injection points
# ----------------------------------------------------------------------
def _in_worker(plan: FaultPlan) -> bool:
    """True when this process is a pool worker, not the supervisor."""
    return plan.host_pid is None or plan.host_pid != os.getpid()


def maybe_kill_worker(key: str) -> None:
    """Hard-crash this worker process if the plan says so (once per key).

    Inert in the supervising process (serial runs and the supervisor's
    serial-fallback path): this injector emulates a *worker* death.
    """
    plan = active_plan()
    if plan is not None and _in_worker(plan) and plan.fires_once(
        "worker_kill", key
    ):
        os._exit(33)


def maybe_hang_point(key: str) -> None:
    """Sleep past the supervisor timeout if the plan says so (once per key).

    Inert in the supervising process, where no timeout can kill the
    hang — a drill must not wedge the supervisor itself.
    """
    plan = active_plan()
    if plan is not None and _in_worker(plan) and plan.fires_once(
        "point_hang", key
    ):
        time.sleep(plan.hang_seconds)


def corrupt_stored_entry(path, key: str) -> bool:
    """Truncate a just-stored cache entry in place (once per key).

    Emulates a writer killed mid-write *without* the atomic-publish
    protection: the entry exists, parses as a JSON prefix at best, and
    must be caught by the cache's checksum verification.
    """
    plan = active_plan()
    if plan is None or not plan.fires_once("cache_corrupt", key):
        return False
    try:
        raw = Path(path).read_text()
        Path(path).write_text(raw[: max(1, len(raw) // 2)])
    except OSError:
        return False
    return True

