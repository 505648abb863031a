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


class FakeEngine:
    """The data request source: offers a fixed queue of requests, one a
    cycle, oldest first."""

    def __init__(self, requests=()):
        self.pending = list(requests)
        self.accepted = []

    def poll_requests(self, now):
        return self.pending[:1]

    def notify_accepted(self, request, now):
        self.pending.remove(request)
        self.accepted.append((request, now))


class FakeFrontend(FakeEngine):
    """The fetch request source, which also records the bytes and the
    completions the memory system hands it."""

    def __init__(self, requests=()):
        super().__init__(requests)
        self.chunks = []
        self.completions = []

    def fetch_chunk(self, request, offset, nbytes, now):
        self.chunks.append((offset, nbytes, now))

    def fetch_complete(self, request, now):
        self.completions.append((request, now))


def load(seq, address=0x100):
    return MemoryRequest(kind=RequestKind.LOAD, address=address, size=4, seq=seq)


def ifetch(seq, demand=True, address=0x200, size=16):
    return MemoryRequest(
        kind=RequestKind.IFETCH, address=address, size=size, seq=seq, demand=demand
    )


def make_system(frontend=None, engine=None,
                priority=RequestPriority.INSTRUCTION_FIRST, access_time=2,
                pipelined=False, width=8):
    return MemorySystem(
        access_time=access_time,
        pipelined=pipelined,
        input_bus_width=width,
        priority=priority,
        frontend=frontend if frontend is not None else FakeFrontend(),
        engine=engine if engine is not None else FakeEngine(),
    )


def step(system, cycles, loads=()):
    """Run ``cycles``; returns the cycles in which each of ``loads``
    received its data (the memory hands a load's bytes to no one: the
    engine reads ``delivered_bytes`` and ``completed``)."""
    arrivals = [[] for _ in loads]
    for now in cycles:
        before = [load.delivered_bytes for load in loads]
        system.begin_cycle(now)
        for arrived, load, had in zip(arrivals, loads, before):
            if load.delivered_bytes != had:
                arrived.append(now)
        system.end_cycle(now)
    return arrivals


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
        frontend, engine = FakeFrontend([ifetch(0)]), FakeEngine([load(1)])
        system = make_system(frontend, engine)
        step(system, range(1))
        assert len(frontend.accepted) + len(engine.accepted) == 1

    def test_priority_decides_winner(self):
        """The priority picks the winner, not the order the memory polls
        its sources in (the frontend first)."""
        for priority, fetch_wins in (
            (RequestPriority.INSTRUCTION_FIRST, True),
            (RequestPriority.DATA_FIRST, False),
        ):
            frontend, engine = FakeFrontend([ifetch(1)]), FakeEngine([load(0)])
            system = make_system(frontend, engine, priority=priority)
            step(system, range(1))
            assert bool(frontend.accepted) is fetch_wins
            assert bool(engine.accepted) is not fetch_wins

    def test_blocked_target_lets_lower_priority_through(self):
        """With non-pipelined memory busy, an FPU store may still be
        accepted even if a higher-priority ifetch is waiting."""
        frontend, engine = FakeFrontend(), FakeEngine()
        system = make_system(frontend, engine, access_time=10)
        step(system, range(1))
        frontend.pending = [ifetch(0)]
        step(system, range(1, 2))  # accepted; memory now busy
        assert frontend.accepted
        second = ifetch(2)
        frontend.pending = [second]
        engine.pending = [
            MemoryRequest(kind=RequestKind.STORE, address=FPU_TRIGGER_MUL,
                          size=4, seq=3)
        ]
        step(system, range(2, 3))
        assert engine.accepted
        assert frontend.pending == [second]


class TestInputBus:
    def test_chunked_line_delivery(self):
        request = ifetch(0, size=16)
        frontend = FakeFrontend([request])
        system = make_system(frontend, access_time=2, width=8)
        step(system, range(8))
        # accepted at 0, ready at 2: transfers of 8 bytes at cycles 2, 3
        assert frontend.chunks == [(0, 8, 2), (8, 8, 3)]
        assert request.completed
        assert frontend.completions == [(request, 3)]

    def test_narrow_bus_doubles_transfers(self):
        frontend = FakeFrontend([ifetch(0, size=16)])
        system = make_system(frontend, access_time=1, width=4)
        step(system, range(8))
        assert [(offset, nbytes) for offset, nbytes, _now in frontend.chunks] == [
            (0, 4), (4, 4), (8, 4), (12, 4)
        ]

    def test_demand_return_beats_prefetch(self):
        prefetch = ifetch(0, demand=False, size=8, address=0x40)
        demand = load(1)
        frontend, engine = FakeFrontend([prefetch]), FakeEngine([demand])
        system = make_system(frontend, engine, access_time=1, pipelined=True,
                             width=8)
        # both accepted in consecutive cycles (one output bus)
        (load_times,) = step(system, range(6), loads=[demand])
        # prefetch accepted at 0 (ready at 1), load accepted at 1 (ready 2).
        # At cycle 2 both have data: the load (tier 0) wins the bus.
        assert load_times == [2]
        prefetch_times = [now for _offset, _nbytes, now in frontend.chunks]
        assert min(prefetch_times) > 2 or prefetch_times[0] == 1

    def test_one_transfer_per_cycle(self):
        first, second = load(0), load(1, address=0x300)
        system = make_system(engine=FakeEngine([first, second]), access_time=1,
                             pipelined=True)
        arrivals = step(system, range(6), loads=[first, second])
        times = [now for arrived in arrivals for now in arrived]
        assert len(times) == 2
        assert len(times) == len(set(times))  # never two in one cycle


class TestFpuPath:
    def test_fpu_result_between_demand_and_prefetch(self):
        """FPU results rank below demand loads but above prefetches."""
        # Start an FPU op completing at ~4.
        trigger = MemoryRequest(kind=RequestKind.STORE, address=FPU_TRIGGER_MUL,
                                size=4, seq=0)
        fpu_load = MemoryRequest(kind=RequestKind.LOAD, address=FPU_RESULT,
                                 size=4, seq=1)
        prefetch = ifetch(2, demand=False, size=8)
        frontend, engine = FakeFrontend(), FakeEngine([trigger, fpu_load])
        system = make_system(frontend, engine, access_time=1, pipelined=True,
                             width=8)
        # Delay the prefetch's readiness so it conflicts with the FPU result.
        (early,) = step(system, range(3), loads=[fpu_load])
        frontend.pending = [prefetch]
        (late,) = step(system, range(3, 10), loads=[fpu_load])
        fpu_time = (early + late)[0]
        prefetch_time = frontend.chunks[0][2]
        assert fpu_time < prefetch_time
        assert fpu_load.completed

    def test_drained(self):
        system = make_system(engine=FakeEngine([load(0)]))
        assert system.drained
        step(system, range(1))
        assert not system.drained
        step(system, range(1, 6))
        assert system.drained


class TestStats:
    def test_acceptance_counters(self):
        engine = FakeEngine([
            load(0),
            MemoryRequest(kind=RequestKind.STORE, address=0x10, size=4, seq=1),
        ])
        frontend = FakeFrontend([
            ifetch(2, demand=True),
            ifetch(3, demand=False, address=0x80),
        ])
        system = make_system(frontend, engine, pipelined=True)
        step(system, range(20))
        stats = system.stats
        assert stats.loads_accepted == 1
        assert stats.stores_accepted == 1
        assert stats.ifetch_demand_accepted == 1
        assert stats.ifetch_prefetch_accepted == 1
        assert stats.input_bus_bytes >= 4 + 16 + 16
