"""Unit tests for the timed FPU wrapper."""

from repro.memory.fpu import (
    FPU_OPERAND_A,
    FPU_RESULT,
    FPU_TRIGGER_ADD,
    FPU_TRIGGER_MUL,
    TRIGGER_OPERATIONS,
    FpuLatencies,
)
from repro.memory.fpu_timing import TimedFpu
from repro.memory.requests import MemoryRequest, RequestKind


def store(address, seq=0):
    return MemoryRequest(kind=RequestKind.STORE, address=address, size=4, seq=seq)


def result_load(seq=0):
    return MemoryRequest(kind=RequestKind.LOAD, address=FPU_RESULT, size=4, seq=seq)


def make_fpu(**kwargs):
    return TimedFpu(FpuLatencies(**kwargs), TRIGGER_OPERATIONS)


class TestOperationTiming:
    def test_multiply_takes_four_cycles(self):
        fpu = make_fpu()
        fpu.accept(store(FPU_OPERAND_A), 0)
        fpu.accept(store(FPU_TRIGGER_MUL), 1)  # op starts at 1, done at 5
        load = result_load()
        fpu.accept(load, 2)
        for now in range(2, 5):
            fpu.begin_cycle(now)
            assert fpu.deliverable_load(now) is None
        fpu.begin_cycle(5)
        assert fpu.deliverable_load(5) is load

    def test_unpipelined_back_to_back(self):
        fpu = make_fpu()
        fpu.accept(store(FPU_TRIGGER_MUL), 0)  # done at 4
        fpu.accept(store(FPU_TRIGGER_MUL), 1)  # starts at 4, done at 8
        fpu.begin_cycle(4)
        fpu.accept(result_load(seq=2), 4)
        fpu.accept(result_load(seq=3), 4)
        assert fpu.deliverable_load(4) is not None
        fpu.deliver(4)
        fpu.begin_cycle(5)
        assert fpu.deliverable_load(5) is None  # second op not done until 8
        fpu.begin_cycle(8)
        assert fpu.deliverable_load(8) is not None

    def test_operand_store_accepts_anytime(self):
        fpu = make_fpu()
        assert fpu.can_accept(store(FPU_OPERAND_A), 0)

    def test_op_queue_backpressure(self):
        fpu = TimedFpu(FpuLatencies(), TRIGGER_OPERATIONS, op_queue_capacity=2)
        fpu.accept(store(FPU_TRIGGER_ADD), 0)
        fpu.accept(store(FPU_TRIGGER_ADD), 0)
        assert not fpu.can_accept(store(FPU_TRIGGER_ADD), 0)
        # Queue drains by time, not by result pickup.
        fpu.begin_cycle(20)
        assert fpu.can_accept(store(FPU_TRIGGER_ADD), 20)


class TestDelivery:
    def test_delivery_completes_request(self):
        fpu = make_fpu()
        fpu.accept(store(FPU_TRIGGER_ADD), 0)
        load = result_load()
        fpu.accept(load, 1)
        fpu.begin_cycle(4)
        assert not load.completed
        delivered = fpu.deliver(4)
        assert delivered is load
        assert load.completed
        assert load.delivered_bytes == 4
        assert fpu.results_delivered == 1

    def test_idle_property(self):
        fpu = make_fpu()
        assert fpu.idle
        fpu.accept(store(FPU_TRIGGER_ADD), 0)
        assert not fpu.idle
        fpu.accept(result_load(), 1)
        fpu.begin_cycle(4)
        fpu.deliver(4)
        assert fpu.idle

    def test_loads_served_in_order(self):
        fpu = make_fpu()
        fpu.accept(store(FPU_TRIGGER_ADD), 0)
        fpu.accept(store(FPU_TRIGGER_MUL), 1)
        first = result_load(seq=10)
        second = result_load(seq=11)
        fpu.accept(first, 2)
        fpu.accept(second, 2)
        fpu.begin_cycle(10)
        assert fpu.deliver(10) is first
        assert fpu.deliver(10) is second
