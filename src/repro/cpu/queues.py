"""Architectural data queues.

PIPE exposes four queues to the memory system (paper section 3.1.2):

* **LAQ** — Load Address Queue: load instructions push effective addresses.
* **LDQ** — Load Data Queue: memory pushes returned data; reading register
  7 as a source pops the head.
* **SAQ** — Store Address Queue: store instructions push effective
  addresses.
* **SDQ** — Store Data Queue: writing register 7 pushes data; the memory
  interface pairs SAQ/SDQ heads and sends them off chip together.

All four are plain bounded FIFOs; the *timing* of entries arriving and
leaving is the memory engine's business (:mod:`repro.memory`), not the
queue's.  Queues keep occupancy statistics because queue pressure is one
of the effects the paper's evaluation studies.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, TypeVar

from ..core.scheduler import ProgressClock
from ..core.trace import NULL_TRACER, Tracer

__all__ = [
    "QueueEmptyError",
    "QueueFullError",
    "ArchitecturalQueue",
]

T = TypeVar("T")


class QueueFullError(RuntimeError):
    """Pushed to a full architectural queue (a simulator bug: the issue
    logic must block instead)."""


class QueueEmptyError(RuntimeError):
    """Popped from an empty architectural queue (a simulator bug: the
    issue logic must block instead)."""


class ArchitecturalQueue(Generic[T]):
    """A bounded FIFO with occupancy statistics.

    ``capacity`` of ``None`` means unbounded (useful in the functional
    simulator, where queue pressure is irrelevant).
    """

    def __init__(
        self,
        name: str,
        capacity: int | None = None,
        tracer: Tracer | None = None,
        clock: ProgressClock | None = None,
    ):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"queue {name}: capacity must be positive or None")
        self.name = name
        self.capacity = capacity
        # never rebound (``clear`` empties it in place): the compiled
        # kernels hoist this deque and test its length directly
        self._items: deque[T] = deque()
        self.total_pushes = 0
        self.total_pops = 0
        self.max_occupancy = 0
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock if clock is not None else ProgressClock()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def free_slots(self) -> int | None:
        if self.capacity is None:
            return None
        return self.capacity - len(self._items)

    # ------------------------------------------------------------------
    def push(self, item: T) -> None:
        if self.is_full:
            raise QueueFullError(f"queue {self.name} is full (capacity {self.capacity})")
        self._items.append(item)
        self._clock.ticks += 1
        self.total_pushes += 1
        self.max_occupancy = max(self.max_occupancy, len(self._items))
        if self._tracer.enabled:
            self._tracer.emit("queue", "push", queue=self.name, depth=len(self._items))

    def pop(self) -> T:
        if not self._items:
            raise QueueEmptyError(f"queue {self.name} is empty")
        self.total_pops += 1
        self._clock.ticks += 1
        item = self._items.popleft()
        if self._tracer.enabled:
            self._tracer.emit("queue", "pop", queue=self.name, depth=len(self._items))
        return item

    def peek(self) -> T:
        if not self._items:
            raise QueueEmptyError(f"queue {self.name} is empty")
        return self._items[0]

    def clear(self) -> None:
        self._items.clear()

    # ------------------------------------------------------------------
    def state_signature(self) -> tuple:
        """Occupancy shape for the replay engine's machine fingerprint.

        Entry *contents* are data (addresses and values stride across
        loop iterations), so only the occupancy participates; the
        data-engine signature layers entry sequence offsets on top for
        the queues where relative age drives arbitration.
        """
        return (self.name, len(self._items))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.name} "
            f"{len(self._items)}/{self.capacity or '∞'}>"
        )
