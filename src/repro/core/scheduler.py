"""Engine selection and the primitives the compiled kernel schedules with.

The simulator has two engines, the two rows of :data:`ENGINES`:

* ``reference`` — :meth:`repro.core.simulator.Simulator._run_loop`, which
  simulates every cycle through the components' methods.  It is the
  oracle every result is checked against.
* ``compiled`` — the generated kernel of :mod:`repro.core.compiled`,
  which also jumps over idle spans and replays warm loop iterations
  (:mod:`repro.core.replay`).  Its results and stats are identical to
  the reference loop's.  It runs untraced only: a run with an enabled
  tracer takes the reference loop on either row.

``skip=False`` (``--no-skip`` on the command line) selects the
reference loop; :func:`resolve_engine` reads the switches.

The kernel's idle-cycle skipping rests on two pieces defined here:

* :class:`ProgressClock` — a shared monotonic counter every component
  bumps on each *real* state mutation (a queue push/pop, a bus
  transfer, an instruction issue, a cache fill, ...).  If an executed
  cycle ends with the same tick count it started with, machine state is
  provably frozen: every later cycle replays it exactly until a *timed*
  event fires.  The tick count doubles as the deadlock detector's
  progress signature on both engines.
* :data:`IDLE` — the wake scan's "no timed event" sentinel.  Timed
  events exist in exactly three places: external-memory ``ready_at``,
  FPU operation completion and pending-branch ``resolve_at``; the
  kernel's wake scan takes the earliest of them.
"""

from __future__ import annotations

__all__ = [
    "ENGINES",
    "ENGINE_REVISION",
    "IDLE",
    "ProgressClock",
    "SeqCounter",
    "resolve_engine",
]

#: The compiled kernel's wake-scan sentinel: no timed event is pending,
#: so only another component's progress can wake the machine.
IDLE: int = 1 << 62

#: Folded into simulation-cache keys so blobs produced by a different
#: scheduling engine never satisfy a lookup.  Bump on any change to the
#: accounting of the compiled kernel's idle skip, its loop replay or its
#: generator.
ENGINE_REVISION = "skip-1+replay-5+compiled-6"

#: The two engines, slowest first, as ``(name, Simulator kwargs)``.
#: Both produce byte-identical results (the differential matrix pins
#: this).
ENGINES: tuple[tuple[str, dict], ...] = (
    ("reference", {"skip": False}),
    ("compiled", {"skip": True}),
)


def resolve_engine(
    skip: bool | None = None,
    replay: bool | None = None,
    compiled: bool | None = None,
) -> bool:
    """True when one run uses the compiled engine, False for the reference loop.

    ``skip`` decides; unset, it selects the compiled engine.
    ``replay`` and ``compiled`` are kept only so that ``False`` still
    selects the reference loop; ``True`` selects nothing.  An explicit
    ``True`` beside an explicit ``False`` raises :class:`ValueError`.
    """
    switches = {"skip": skip, "replay": replay, "compiled": compiled}
    on = [name for name, value in switches.items() if value]
    off = [name for name, value in switches.items() if value is not None and not value]
    if on and off:
        raise ValueError(
            f"{on[0]}=True needs the compiled engine, "
            f"which {off[0]}=False turns off"
        )
    return not off


class ProgressClock:
    """Monotonic counter of real state mutations, shared machine-wide.

    Components bump :attr:`ticks` directly (``clock.ticks += 1``) on the
    hot path; only the *equality* of two readings is ever interpreted,
    so over-ticking (several bumps in one cycle) is harmless.
    """

    __slots__ = ("ticks",)

    def __init__(self) -> None:
        self.ticks = 0

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
