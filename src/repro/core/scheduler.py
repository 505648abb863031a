"""Idle-cycle scheduling primitives: the progress clock and event hints.

The cycle-level simulator spends most of its wall-clock time simulating
cycles in which *nothing changes* — the machine waiting out
``memory_access_time``, an FPU latency, or a branch-resolution delay.
Two small pieces let :meth:`repro.core.simulator.Simulator.run` jump
over such spans without changing a single reported number:

* :class:`ProgressClock` — a shared monotonic counter every component
  bumps on each *real* state mutation (a queue push/pop, a bus
  transfer, an instruction issue, a cache fill, ...).  If an executed
  cycle ends with the same tick count it started with, machine state is
  provably frozen: every later cycle replays it exactly until a *timed*
  event fires.  The tick count doubles as the deadlock detector's
  progress signature, replacing the 8-tuple the old loop allocated
  every cycle.

* ``next_event_cycle(now)`` hints — each component reports the earliest
  future cycle at which it can make progress *on its own*, or
  :data:`IDLE` when only another component's activity can wake it.
  Timed events exist in exactly three places: external-memory
  ``ready_at``, FPU operation completion, and pending-branch
  ``resolve_at``; everything else (frontends, the data engine, the
  cache) is event-woken.  Hints may be conservative (an early wake
  costs one probe cycle and nothing else); a *late* hint would change
  results, which is why the scheduler only skips after observing a
  zero-tick probe cycle.

``REPRO_NO_SKIP=1`` (or ``Simulator(..., skip=False)``) keeps the
reference cycle-by-cycle loop for differential testing.
"""

from __future__ import annotations

import os

__all__ = [
    "ENGINE_REVISION",
    "ENGINE_RUNGS",
    "IDLE",
    "NO_COMPILED_ENV",
    "NO_INLINE_FRONTEND_ENV",
    "NO_REPLAY_ENV",
    "NO_SKIP_ENV",
    "NO_SPECIALIZE_DISPATCH_ENV",
    "ProgressClock",
    "SeqCounter",
    "compiled_enabled_default",
    "inline_frontend_enabled_default",
    "replay_enabled_default",
    "rung_kwargs",
    "skip_enabled_default",
    "specialize_dispatch_enabled_default",
]

#: Sentinel returned by ``next_event_cycle`` hints: no self-scheduled
#: event; only another component's progress can wake this one.
IDLE: int = 1 << 62

#: Folded into simulation-cache keys so blobs produced by a different
#: scheduling engine never satisfy a lookup.  Bump on any change to the
#: skip scheduler's, the replay engine's, or the compiled step-kernel
#: generator's accounting.
ENGINE_REVISION = "skip-1+replay-1+compiled-2"

#: Environment variable forcing the reference (no-skip) loop.
NO_SKIP_ENV = "REPRO_NO_SKIP"

#: Environment variable disabling steady-state loop replay.
NO_REPLAY_ENV = "REPRO_NO_REPLAY"

#: Environment variable disabling the compiled step-kernel engine.
NO_COMPILED_ENV = "REPRO_NO_COMPILED"

#: Environment variable disabling frontend state-machine inlining inside
#: compiled kernels (the kernel falls back to bound-method phase calls).
NO_INLINE_FRONTEND_ENV = "REPRO_NO_INLINE_FRONTEND"

#: Environment variable disabling program-specialized instruction
#: dispatch inside compiled kernels (falls back to the generic executor).
NO_SPECIALIZE_DISPATCH_ENV = "REPRO_NO_SPECIALIZE_DISPATCH"


#: The engine-degradation ladder, fastest first.  Every rung produces
#: byte-identical results (the differential suite pins this), so the
#: resilience layer may re-run a point on a slower rung after a
#: fast-path failure without changing a single reported number.
ENGINE_RUNGS = ("compiled", "replay", "idle-skip", "reference")

#: ``Simulator`` keyword arguments selecting each rung.  The top rung
#: defers to the session defaults, so the ``REPRO_NO_SKIP`` /
#: ``REPRO_NO_REPLAY`` / ``REPRO_NO_COMPILED`` escape hatches stay
#: authoritative; lower rungs only ever *disable* fast paths, never
#: force one back on.
_RUNG_KWARGS: dict[str, dict] = {
    "compiled": {"skip": None, "replay": None, "compiled": None},
    "replay": {"skip": None, "replay": None, "compiled": False},
    "idle-skip": {"skip": None, "replay": False, "compiled": False},
    "reference": {"skip": False, "replay": False, "compiled": False},
}


def rung_kwargs(rung: str) -> dict:
    """``Simulator(..., **rung_kwargs(rung))`` arguments for one rung."""
    try:
        return dict(_RUNG_KWARGS[rung])
    except KeyError:
        raise ValueError(
            f"unknown engine rung {rung!r}; expected one of {ENGINE_RUNGS}"
        ) from None


def skip_enabled_default() -> bool:
    """Idle-cycle skipping defaults to on unless ``REPRO_NO_SKIP`` is set."""
    return os.environ.get(NO_SKIP_ENV, "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def replay_enabled_default() -> bool:
    """Loop replay defaults to on unless ``REPRO_NO_REPLAY`` is set."""
    return os.environ.get(NO_REPLAY_ENV, "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def compiled_enabled_default() -> bool:
    """Compiled kernels default to on unless ``REPRO_NO_COMPILED`` is set."""
    return os.environ.get(NO_COMPILED_ENV, "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def inline_frontend_enabled_default() -> bool:
    """Frontend inlining defaults to on unless ``REPRO_NO_INLINE_FRONTEND``."""
    return os.environ.get(NO_INLINE_FRONTEND_ENV, "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def specialize_dispatch_enabled_default() -> bool:
    """Dispatch specialization is on unless ``REPRO_NO_SPECIALIZE_DISPATCH``."""
    return os.environ.get(NO_SPECIALIZE_DISPATCH_ENV, "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


class ProgressClock:
    """Monotonic counter of real state mutations, shared machine-wide.

    Components bump :attr:`ticks` directly (``clock.ticks += 1``) on the
    hot path; only the *equality* of two readings is ever interpreted,
    so over-ticking (several bumps in one cycle) is harmless.
    """

    __slots__ = ("ticks",)

    def __init__(self) -> None:
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ProgressClock ticks={self.ticks}>"


class SeqCounter:
    """The machine-wide request/queue-entry sequence allocator.

    Functionally ``itertools.count()``, but with the current position
    exposed as :attr:`value` so the replay engine can fold a whole loop
    iteration's allocations into one arithmetic advance (and the state
    signature can express live sequence numbers relative to it).
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def __call__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SeqCounter value={self.value}>"
