"""Unit tests for the trace layer primitives (repro.core.trace)."""

import io
import json

import pytest
from hypothesis import given, strategies as st

from repro.core.trace import (
    NULL_TRACER,
    JsonLinesSink,
    MetricsSink,
    RingBufferSink,
    TraceMetrics,
    Tracer,
    read_trace,
)


class TestTracer:
    def test_no_sinks_means_disabled(self):
        assert not Tracer().enabled
        assert not NULL_TRACER.enabled

    def test_attach_enables(self):
        tracer = Tracer()
        sink = tracer.attach(RingBufferSink())
        assert tracer.enabled
        assert isinstance(sink, RingBufferSink)

    def test_emit_stamps_current_cycle(self):
        tracer = Tracer()
        ring = tracer.attach(RingBufferSink())
        tracer.cycle = 7
        tracer.emit("icache", "hit", addr=32)
        tracer.cycle = 9
        tracer.emit("icache", "miss", addr=48, seq=3)
        assert [e["c"] for e in ring.events] == [7, 9]
        assert ring.events[0] == {"c": 7, "o": "icache", "k": "hit", "addr": 32}

    def test_fan_out_to_multiple_sinks(self):
        tracer = Tracer()
        a = tracer.attach(RingBufferSink())
        b = tracer.attach(RingBufferSink())
        tracer.emit("sim", "end", cycles=1, instructions=0, halted=True)
        assert a.total_events == b.total_events == 1

    def test_metrics_finds_first_metrics_sink(self):
        tracer = Tracer()
        assert tracer.metrics() is None
        tracer.attach(RingBufferSink())
        sink = tracer.attach(MetricsSink())
        assert tracer.metrics() is sink.metrics

    def test_null_tracer_emit_is_harmless(self):
        # Emit sites guard with ``if tracer.enabled``, but a stray call
        # on the shared disabled tracer must still be a no-op.
        NULL_TRACER.emit("icache", "hit", addr=0)


class TestJsonLinesSink:
    def test_writes_canonical_lines_to_stream(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        sink.emit(3, "iq", "push", {"pc": 16, "depth": 1, "bytes": 4})
        sink.close()  # caller-owned stream: flushed, not closed
        assert not stream.closed
        assert stream.getvalue() == (
            '{"c":3,"o":"iq","k":"push","pc":16,"depth":1,"bytes":4}\n'
        )
        assert sink.events_written == 1

    def test_owns_and_closes_path_target(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(path)
        sink.emit(0, "sim", "begin", {"strategy": "pipe", "config": "x"})
        sink.close()
        sink.close()  # idempotent
        [record] = list(read_trace(path))
        assert record == {"c": 0, "o": "sim", "k": "begin",
                          "strategy": "pipe", "config": "x"}

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"c":0,"o":"a","k":"b"}\n\n{"c":1,"o":"a","k":"b"}\n')
        assert len(list(read_trace(path))) == 2


class TestRingBufferSink:
    def test_keeps_only_last_capacity_events(self):
        sink = RingBufferSink(capacity=3)
        for cycle in range(10):
            sink.emit(cycle, "iq", "push", {})
        assert sink.total_events == 10
        assert [e["c"] for e in sink.events] == [7, 8, 9]

    def test_unbounded_capacity(self):
        sink = RingBufferSink(capacity=None)
        for cycle in range(100):
            sink.emit(cycle, "iq", "push", {})
        assert len(sink.events) == sink.total_events == 100

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_nonpositive_capacity(self, capacity):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=capacity)


class TestTraceMetrics:
    def test_from_events_counts_components(self):
        events = [
            {"c": 0, "o": "sim", "k": "begin", "strategy": "pipe", "config": "x"},
            {"c": 0, "o": "icache", "k": "miss", "addr": 0, "seq": 0},
            {"c": 1, "o": "icache", "k": "hit", "addr": 0},
            {"c": 1, "o": "icache", "k": "fill", "addr": 0, "bytes": 16,
             "replaced": 1},
            {"c": 2, "o": "backend", "k": "issue", "pc": 0},
            {"c": 2, "o": "backend", "k": "stall", "reason": "ldq_empty"},
            {"c": 2, "o": "backend", "k": "stall", "reason": "ldq_empty"},
            {"c": 3, "o": "queue", "k": "push", "queue": "LAQ", "depth": 1},
            {"c": 3, "o": "queue", "k": "push", "queue": "SAQ", "depth": 1},
            {"c": 4, "o": "queue", "k": "pop", "queue": "LAQ", "depth": 0},
            {"c": 5, "o": "sim", "k": "end", "cycles": 5, "instructions": 1,
             "halted": True},
        ]
        metrics = TraceMetrics.from_events(events)
        assert metrics.events == len(events)
        assert metrics.cycles == 5 and metrics.halted
        assert metrics.instructions == 1
        assert metrics.cache_hits == 1 and metrics.cache_misses == 1
        assert metrics.cache_fills == 1 and metrics.cache_line_replacements == 1
        assert metrics.cache_miss_rate == 0.5
        assert metrics.stalls == {"ldq_empty": 2}
        assert metrics.loads_issued == 1 and metrics.stores_issued == 1
        assert metrics.queues["LAQ"].pushes == 1
        assert metrics.queues["LAQ"].pops == 1
        assert metrics.queues["LAQ"].max_occupancy == 1

    def test_iq_depth_statistics(self):
        events = [
            {"c": 0, "o": "iq", "k": "push", "pc": 0, "depth": 1, "bytes": 4},
            {"c": 1, "o": "iq", "k": "push", "pc": 4, "depth": 2, "bytes": 8},
            {"c": 2, "o": "iq", "k": "pop", "pc": 0, "depth": 1, "bytes": 4},
        ]
        metrics = TraceMetrics.from_events(events)
        assert metrics.iq_pushes == 2 and metrics.iq_pops == 1
        assert metrics.iq_max_depth == 2 and metrics.iq_max_bytes == 8
        assert metrics.mean_iq_depth == pytest.approx(4 / 3)

    def test_derived_rates_are_zero_on_empty(self):
        metrics = TraceMetrics()
        assert metrics.cache_miss_rate == 0.0
        assert metrics.output_port_utilization == 0.0
        assert metrics.input_port_utilization == 0.0
        assert metrics.mean_iq_depth == 0.0
        assert metrics.ipc == 0.0

    def test_to_dict_round_trip(self):
        events = [
            {"c": 0, "o": "backend", "k": "stall", "reason": "frontend_empty"},
            {"c": 1, "o": "queue", "k": "push", "queue": "LDQ", "depth": 1},
            {"c": 2, "o": "mem", "k": "accept", "kind": "load", "addr": 8,
             "bytes": 4, "demand": True, "fpu": False, "seq": 1},
            {"c": 3, "o": "sim", "k": "end", "cycles": 3, "instructions": 0,
             "halted": True},
        ]
        metrics = TraceMetrics.from_events(events)
        payload = json.loads(json.dumps(metrics.to_dict()))
        assert TraceMetrics.from_dict(payload) == metrics

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        ("icache", "hit", {"addr": 0}),
                        ("icache", "miss", {"addr": 0, "seq": 1}),
                        ("backend", "issue", {"pc": 0}),
                        ("backend", "stall", {"reason": "ldq_empty"}),
                        ("queue", "push", {"queue": "LAQ", "depth": 1}),
                        ("queue", "pop", {"queue": "LAQ", "depth": 0}),
                        ("iq", "push", {"pc": 0, "depth": 1, "bytes": 4}),
                        ("mem", "conflict", {"candidates": 2}),
                        ("engine", "hazard", {"addr": 16}),
                    ]
                ),
                st.integers(min_value=0, max_value=1000),
            ),
            max_size=60,
        )
    )
    def test_round_trip_holds_for_any_event_mix(self, stream):
        """Property: serialising the aggregate never loses information."""
        records = [
            {"c": cycle, "o": component, "k": kind, **fields}
            for (component, kind, fields), cycle in stream
        ]
        metrics = TraceMetrics.from_events(records)
        payload = json.loads(json.dumps(metrics.to_dict()))
        restored = TraceMetrics.from_dict(payload)
        assert restored == metrics
        assert restored.events == len(records)
