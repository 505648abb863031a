"""Memory request objects and arbitration priorities.

Every off-chip transaction is one :class:`MemoryRequest`, and nothing
calls back through it.  The memory system's output-bus arbiter *polls*
requests from its two sources, the instruction-fetch frontend and the
data-queue engine; a data access's request is the one its LAQ or SAQ
entry has held since issue.  The input bus then fills in
``delivered_bytes`` and ``completed``: the memory system hands an
instruction fetch's bytes and its completion to the frontend, and the
engine reads a load's ``completed`` as its arrival.

Two priority decisions exist, and the paper describes both:

* **output bus / memory interface** (which request is *accepted* next):
  section 6 — "instruction requests are given priority over data requests
  at the memory interface" for the presented PIPE results; Hill's
  conventional model instead gives data fetches priority over instruction
  fetches, which in turn beat prefetches (section 4.1).  This order is a
  configuration knob (:class:`RequestPriority`).
* **input (return) bus** (whose data transfers next): section 5 — "the
  simulation model gives precedence to data and instruction loads and
  stores, followed by multiply results, with instruction prefetches having
  lowest priority".  This order is fixed (:func:`return_tier`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "MemoryRequest",
    "RequestKind",
    "RequestPriority",
    "acceptance_order",
    "return_tier",
]


class RequestKind(enum.Enum):
    LOAD = "load"  #: a data load (4 bytes back over the input bus)
    STORE = "store"  #: a data store (address+data out, nothing back)
    IFETCH = "ifetch"  #: an instruction fetch (line or sub-block back)


class RequestPriority(enum.Enum):
    """Output-bus acceptance order at the memory interface."""

    INSTRUCTION_FIRST = "instruction_first"  #: PIPE presented results (§6)
    DATA_FIRST = "data_first"  #: Hill's conventional model (§4.1)


@dataclass(slots=True)
class MemoryRequest:
    """One off-chip transaction.

    Slotted, and the compiled kernels build it with positional
    arguments: one is built per data access, at issue.

    ``demand`` distinguishes demand instruction fetches from prefetches;
    it may be *promoted* while the request is in flight (an IQB prefetch
    becomes demand once the IQ drains), which raises its return-bus
    priority live.

    ``completed`` turns true once, when the last byte has been delivered
    (for stores: when the memory has finished the write).
    """

    kind: RequestKind
    address: int
    size: int
    seq: int
    demand: bool = True

    # -- in-flight bookkeeping (owned by the memory system) -------------
    accepted_at: int | None = field(default=None, compare=False)
    ready_at: int | None = field(default=None, compare=False)
    delivered_bytes: int = field(default=0, compare=False)
    completed: bool = field(default=False, compare=False)

    @property
    def in_flight(self) -> bool:
        return self.accepted_at is not None and not self.completed

    @property
    def remaining_bytes(self) -> int:
        return self.size - self.delivered_bytes

    def promote_to_demand(self) -> None:
        """Raise an in-flight prefetch to demand priority."""
        self.demand = True


def acceptance_order(request: MemoryRequest, priority: RequestPriority) -> tuple:
    """Sort key for output-bus acceptance (lower sorts first).

    Within each class, older requests (smaller ``seq``) go first.
    Demand instruction fetches always beat instruction prefetches.
    """
    is_data = request.kind in (RequestKind.LOAD, RequestKind.STORE)
    if priority is RequestPriority.INSTRUCTION_FIRST:
        if not is_data:
            rank = 0 if request.demand else 1
        else:
            rank = 2
    else:
        if is_data:
            rank = 0
        elif request.demand:
            rank = 1
        else:
            rank = 2
    return (rank, request.seq)


#: Return-bus tiers (paper §5): demand traffic, then FPU results, then
#: instruction prefetches.  FPU result deliveries are tiered by the
#: caller since they are not MemoryRequests against the external memory.
RETURN_TIER_DEMAND = 0
RETURN_TIER_FPU_RESULT = 1
RETURN_TIER_PREFETCH = 2


def return_tier(request: MemoryRequest) -> int:
    """Input-bus tier of an external-memory request's data."""
    if request.kind == RequestKind.LOAD:
        return RETURN_TIER_DEMAND
    if request.kind == RequestKind.IFETCH:
        return RETURN_TIER_DEMAND if request.demand else RETURN_TIER_PREFETCH
    raise ValueError(f"{request.kind} never uses the input bus")
