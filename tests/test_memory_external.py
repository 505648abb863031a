"""Unit tests for the external memory timing model."""

import pytest

from repro.memory.external import ExternalMemory
from repro.memory.requests import MemoryRequest, RequestKind


def make_request(kind=RequestKind.LOAD, address=0, size=4, seq=0, demand=True):
    return MemoryRequest(kind=kind, address=address, size=size, seq=seq, demand=demand)


class TestAcceptance:
    def test_ready_after_access_time(self):
        memory = ExternalMemory(access_time=6, pipelined=False)
        memory.begin_cycle(0)
        request = make_request()
        memory.accept(request, 0)
        assert request.ready_at == 6
        assert memory.ready_requests(5) == []
        assert memory.ready_requests(6) == [request]

    def test_non_pipelined_busy_until_delivered(self):
        memory = ExternalMemory(access_time=2, pipelined=False)
        memory.begin_cycle(0)
        memory.accept(make_request(), 0)
        memory.begin_cycle(1)
        assert not memory.can_accept(1)

    def test_one_acceptance_per_cycle_even_pipelined(self):
        memory = ExternalMemory(access_time=2, pipelined=True)
        memory.begin_cycle(0)
        memory.accept(make_request(seq=1), 0)
        assert not memory.can_accept(0)
        memory.begin_cycle(1)
        assert memory.can_accept(1)

    def test_pipelined_accepts_with_in_flight(self):
        memory = ExternalMemory(access_time=4, pipelined=True)
        for cycle in range(3):
            memory.begin_cycle(cycle)
            assert memory.can_accept(cycle)
            memory.accept(make_request(seq=cycle), cycle)
        assert len(memory.in_flight) == 3

    def test_over_acceptance_rejected(self):
        memory = ExternalMemory(access_time=1, pipelined=False)
        memory.begin_cycle(0)
        memory.accept(make_request(), 0)
        with pytest.raises(RuntimeError):
            memory.accept(make_request(), 0)

    def test_access_time_validated(self):
        with pytest.raises(ValueError):
            ExternalMemory(access_time=0, pipelined=False)


class TestCompletion:
    def test_read_completes_when_fully_delivered(self):
        memory = ExternalMemory(access_time=1, pipelined=False)
        request = make_request(size=8)
        memory.begin_cycle(0)
        memory.accept(request, 0)
        request.delivered_bytes = 4
        assert memory.retire_finished(1) == []
        assert not request.completed
        request.delivered_bytes = 8
        assert memory.retire_finished(2) == [request]
        assert request.completed
        assert memory.in_flight == []

    def test_store_completes_after_access_time(self):
        memory = ExternalMemory(access_time=3, pipelined=False)
        request = make_request(kind=RequestKind.STORE)
        memory.begin_cycle(0)
        memory.accept(request, 0)
        memory.retire_finished(2)
        assert not request.completed
        memory.retire_finished(3)
        assert request.completed

    def test_store_never_offers_return_data(self):
        memory = ExternalMemory(access_time=1, pipelined=False)
        request = make_request(kind=RequestKind.STORE)
        memory.begin_cycle(0)
        memory.accept(request, 0)
        assert memory.ready_requests(10) == []

    def test_busy_cycle_accounting(self):
        memory = ExternalMemory(access_time=2, pipelined=False)
        memory.begin_cycle(0)
        memory.accept(make_request(kind=RequestKind.STORE), 0)
        memory.begin_cycle(1)
        memory.begin_cycle(2)
        assert memory.busy_cycles == 2
