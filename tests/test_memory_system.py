"""Unit tests for bus arbitration in the memory system facade."""

import pytest

from repro.memory.fpu import FPU_RESULT, FPU_TRIGGER_MUL
from repro.memory.requests import (
    MemoryRequest,
    RequestKind,
    RequestPriority,
    acceptance_order,
    return_tier,
)
from repro.memory.system import MemorySystem


class OneShotSource:
    """A request source that offers a fixed queue of requests."""

    def __init__(self, requests):
        self.pending = list(requests)
        self.accepted = []

    def poll_requests(self, now):
        return self.pending[:1]

    def notify_accepted(self, request, now):
        self.pending.remove(request)
        self.accepted.append((request, now))


def load(seq, address=0x100):
    return MemoryRequest(kind=RequestKind.LOAD, address=address, size=4, seq=seq)


def ifetch(seq, demand=True, address=0x200, size=16):
    return MemoryRequest(
        kind=RequestKind.IFETCH, address=address, size=size, seq=seq, demand=demand
    )


def make_system(priority=RequestPriority.INSTRUCTION_FIRST, access_time=2,
                pipelined=False, width=8):
    return MemorySystem(
        access_time=access_time,
        pipelined=pipelined,
        input_bus_width=width,
        priority=priority,
    )


class TestAcceptanceOrder:
    def test_instruction_first(self):
        priority = RequestPriority.INSTRUCTION_FIRST
        demand = ifetch(5)
        prefetch = ifetch(1, demand=False)
        data = load(0)
        order = sorted([data, prefetch, demand],
                       key=lambda r: acceptance_order(r, priority))
        assert order == [demand, prefetch, data]

    def test_data_first(self):
        priority = RequestPriority.DATA_FIRST
        demand = ifetch(0)
        prefetch = ifetch(1, demand=False)
        data = load(5)
        order = sorted([prefetch, demand, data],
                       key=lambda r: acceptance_order(r, priority))
        assert order == [data, demand, prefetch]

    def test_age_breaks_ties(self):
        priority = RequestPriority.DATA_FIRST
        older, younger = load(1), load(2)
        order = sorted([younger, older],
                       key=lambda r: acceptance_order(r, priority))
        assert order == [older, younger]


class TestReturnTiers:
    def test_tiers(self):
        assert return_tier(load(0)) == 0
        assert return_tier(ifetch(0, demand=True)) == 0
        assert return_tier(ifetch(0, demand=False)) == 2

    def test_store_has_no_tier(self):
        store = MemoryRequest(kind=RequestKind.STORE, address=0, size=4, seq=0)
        with pytest.raises(ValueError):
            return_tier(store)


class TestOutputBus:
    def test_one_acceptance_per_cycle(self):
        system = make_system()
        source = OneShotSource([ifetch(0), load(1)])
        system.register_source(source)
        system.begin_cycle(0)
        system.end_cycle(0)
        assert len(source.accepted) == 1

    def test_priority_decides_winner(self):
        system = make_system(priority=RequestPriority.INSTRUCTION_FIRST)
        data_source = OneShotSource([load(0)])
        fetch_source = OneShotSource([ifetch(1)])
        system.register_source(data_source)
        system.register_source(fetch_source)
        system.begin_cycle(0)
        system.end_cycle(0)
        assert fetch_source.accepted and not data_source.accepted

    def test_blocked_target_lets_lower_priority_through(self):
        """With non-pipelined memory busy, an FPU store may still be
        accepted even if a higher-priority ifetch is waiting."""
        system = make_system(access_time=10)
        system.begin_cycle(0)
        system.end_cycle(0)
        fetch_source = OneShotSource([ifetch(0)])
        system.register_source(fetch_source)
        system.begin_cycle(1)
        system.end_cycle(1)  # accepted; memory now busy
        assert fetch_source.accepted
        fetch_source2 = OneShotSource([ifetch(2)])
        fpu_source = OneShotSource(
            [MemoryRequest(kind=RequestKind.STORE, address=FPU_TRIGGER_MUL,
                           size=4, seq=3)]
        )
        system.register_source(fetch_source2)
        system.register_source(fpu_source)
        system.begin_cycle(2)
        system.end_cycle(2)
        assert fpu_source.accepted
        assert not fetch_source2.accepted


class TestInputBus:
    def test_chunked_line_delivery(self):
        system = make_system(access_time=2, width=8)
        chunks = []
        request = ifetch(0, size=16)
        request.on_chunk = lambda off, n, now: chunks.append((off, n, now))
        source = OneShotSource([request])
        system.register_source(source)
        for now in range(8):
            system.begin_cycle(now)
            system.end_cycle(now)
        # accepted at 0, ready at 2: transfers of 8 bytes at cycles 2, 3
        assert chunks == [(0, 8, 2), (8, 8, 3)]
        assert request.completed

    def test_narrow_bus_doubles_transfers(self):
        system = make_system(access_time=1, width=4)
        chunks = []
        request = ifetch(0, size=16)
        request.on_chunk = lambda off, n, now: chunks.append((off, n))
        system.register_source(OneShotSource([request]))
        for now in range(8):
            system.begin_cycle(now)
            system.end_cycle(now)
        assert chunks == [(0, 4), (4, 4), (8, 4), (12, 4)]

    def test_demand_return_beats_prefetch(self):
        system = make_system(access_time=1, pipelined=True, width=8)
        deliveries = []
        prefetch = ifetch(0, demand=False, size=8, address=0x40)
        demand = load(1)
        prefetch.on_chunk = lambda off, n, now: deliveries.append(("prefetch", now))
        demand.on_chunk = lambda off, n, now: deliveries.append(("load", now))
        system.register_source(OneShotSource([prefetch]))
        system.register_source(OneShotSource([demand]))
        # both accepted in consecutive cycles (one output bus)
        for now in range(6):
            system.begin_cycle(now)
            system.end_cycle(now)
        # prefetch accepted at 0 (ready at 1), load accepted at 1 (ready 2).
        # At cycle 2 both have data: the load (tier 0) wins the bus.
        assert ("load", 2) in deliveries
        prefetch_times = [t for kind, t in deliveries if kind == "prefetch"]
        assert min(prefetch_times) > 2 or prefetch_times[0] == 1

    def test_one_transfer_per_cycle(self):
        system = make_system(access_time=1, pipelined=True)
        times = []
        first, second = load(0), load(1, address=0x300)
        first.on_chunk = lambda off, n, now: times.append(now)
        second.on_chunk = lambda off, n, now: times.append(now)
        system.register_source(OneShotSource([first]))
        system.register_source(OneShotSource([second]))
        for now in range(6):
            system.begin_cycle(now)
            system.end_cycle(now)
        assert len(times) == len(set(times))  # never two in one cycle


class TestFpuPath:
    def test_fpu_result_between_demand_and_prefetch(self):
        """FPU results rank below demand loads but above prefetches."""
        system = make_system(access_time=1, pipelined=True, width=8)
        order = []
        # Start an FPU op completing at ~4.
        trigger = MemoryRequest(kind=RequestKind.STORE, address=FPU_TRIGGER_MUL,
                                size=4, seq=0)
        fpu_load = MemoryRequest(kind=RequestKind.LOAD, address=FPU_RESULT,
                                 size=4, seq=1)
        fpu_load.on_chunk = lambda off, n, now: order.append(("fpu", now))
        prefetch = ifetch(2, demand=False, size=8)
        prefetch.on_chunk = lambda off, n, now: order.append(("prefetch", now))
        # Delay the prefetch's readiness so it conflicts with the FPU result.
        sources = [OneShotSource([trigger]), OneShotSource([fpu_load])]
        for source in sources:
            system.register_source(source)
        late = OneShotSource([])
        system.register_source(late)
        for now in range(3):
            system.begin_cycle(now)
            system.end_cycle(now)
        late.pending = [prefetch]
        for now in range(3, 10):
            system.begin_cycle(now)
            system.end_cycle(now)
        fpu_time = [t for kind, t in order if kind == "fpu"][0]
        prefetch_time = [t for kind, t in order if kind == "prefetch"][0]
        assert fpu_time < prefetch_time

    def test_drained(self):
        system = make_system()
        assert system.drained
        source = OneShotSource([load(0)])
        system.register_source(source)
        system.begin_cycle(0)
        system.end_cycle(0)
        assert not system.drained
        for now in range(1, 6):
            system.begin_cycle(now)
            system.end_cycle(now)
        assert system.drained


class TestStats:
    def test_acceptance_counters(self):
        system = make_system(pipelined=True)
        requests = [
            load(0),
            MemoryRequest(kind=RequestKind.STORE, address=0x10, size=4, seq=1),
            ifetch(2, demand=True),
            ifetch(3, demand=False, address=0x80),
        ]
        system.register_source(OneShotSource(requests))
        for now in range(20):
            system.begin_cycle(now)
            system.end_cycle(now)
        stats = system.stats
        assert stats.loads_accepted == 1
        assert stats.stores_accepted == 1
        assert stats.ifetch_demand_accepted == 1
        assert stats.ifetch_prefetch_accepted == 1
        assert stats.input_bus_bytes >= 4 + 16 + 16
