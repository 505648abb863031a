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

**Engines.**  Three switches pick one of the four rows of
:data:`ENGINES`, and they nest: replay runs only on top of idle-cycle
skipping, and the compiled step kernel only on top of replay.
``skip=False``, ``REPRO_NO_SKIP=1`` or ``--no-skip`` selects the
reference cycle-by-cycle loop; ``replay=False`` idle-skip alone;
``compiled=False`` the interpreted skip+replay engine.
:func:`resolve_engine` applies the nesting.
"""

from __future__ import annotations

import os

__all__ = [
    "ENGINES",
    "ENGINE_REVISION",
    "IDLE",
    "NO_SKIP_ENV",
    "ProgressClock",
    "SeqCounter",
    "resolve_engine",
    "skip_enabled_default",
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

#: The four engines, slowest first, as ``(name, Simulator kwargs)``.
#: Every row produces byte-identical results (the differential matrix
#: pins this); ``repro-sim fuzz --engines`` accepts the names.
ENGINES: tuple[tuple[str, dict], ...] = (
    ("reference", {"skip": False, "replay": False, "compiled": False}),
    ("idle-skip", {"skip": True, "replay": False, "compiled": False}),
    ("skip+replay", {"skip": True, "replay": True, "compiled": False}),
    ("compiled", {"skip": True, "replay": True, "compiled": True}),
)


def skip_enabled_default() -> bool:
    """Idle-cycle skipping defaults to on unless ``REPRO_NO_SKIP`` is set."""
    value = os.environ.get(NO_SKIP_ENV, "").strip().lower()
    return value not in ("1", "true", "yes")


def resolve_engine(
    skip: bool | None = None,
    replay: bool | None = None,
    compiled: bool | None = None,
) -> tuple[bool, bool, bool]:
    """The ``(skip, replay, compiled)`` switches one run actually uses.

    An unset ``skip`` follows ``REPRO_NO_SKIP``, an unset ``replay``
    follows ``skip`` and an unset ``compiled`` follows ``replay``, so
    the answer is always one :data:`ENGINES` row.  An explicit
    ``replay=True`` or ``compiled=True`` above a disabled switch raises
    :class:`ValueError`.
    """
    skip = skip_enabled_default() if skip is None else bool(skip)
    if replay is None:
        replay = skip
    elif replay and not skip:
        raise ValueError("replay=True needs idle-cycle skipping (skip is off)")
    if compiled is None:
        compiled = replay
    elif compiled and not replay:
        raise ValueError("compiled=True needs loop replay (replay is off)")
    return skip, bool(replay), bool(compiled)


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
