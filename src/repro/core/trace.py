"""Structured cycle-level event tracing.

The paper's arguments are *event* arguments — when the PBR scan fires,
how deep the IQ runs, whether a prefetch loses the bus to a demand load
— but a :class:`~repro.core.results.SimulationResult` only reports
end-of-run aggregates.  This module adds the missing layer: every
component of the machine (the simulator core, all three frontends, the
instruction cache, the data-queue engine, and the memory system) emits
structured events through one :class:`Tracer`, and pluggable sinks
decide what happens to them:

* :class:`JsonLinesSink` — one canonical JSON object per line, suitable
  for golden-trace regression tests and offline inspection;
* :class:`RingBufferSink` — a bounded in-memory window (the last *n*
  events), for post-mortem inspection of deadlocks and timeouts;
* :class:`MetricsSink` — an incremental aggregator that derives
  per-component counters (miss rate, port utilisation, mean IQ depth)
  from the event stream and can be cross-checked against the headline
  ``SimulationResult`` counters.

Tracing is **near-zero-cost when disabled**: every emit site in the hot
loop is guarded by a single ``if tracer.enabled:`` branch against the
shared :data:`NULL_TRACER`, so the disabled path never builds an event.
A traced run always takes the reference loop, which holds every emit
site; the compiled engine, which produces untraced results, holds none.

Event vocabulary (``component`` / ``kind`` / payload fields)::

    sim      begin     strategy, config          one per run, cycle 0
    sim      end       cycles, instructions, halted
    icache   hit       addr
    icache   miss      addr, seq                 seq of the fill request (-1: none)
    icache   fill      addr, bytes, replaced
    fetch    request   addr, bytes, demand, seq  demand fetch or prefetch issue
    fetch    promote   seq                       prefetch promoted to demand
    fetch    complete  seq                       last byte delivered
    fetch    cancel    seq, reason               withdrawn/discarded request
    fetch    redirect  target, squashed
    tib      hit       target, bytes
    tib      miss      target
    tib      alloc     target
    iq       push      pc, depth, bytes          depth/bytes *after* the push
    iq       pop       pc, depth, bytes
    iqb      assign    base, source              "cache" or "memory"
    mem      accept    kind, addr, bytes, demand, fpu, seq
    mem      deliver   source, seq, offset, bytes
    mem      conflict  candidates                >1 request wanted the output bus
    backend  issue     pc
    backend  stall     reason
    backend  branch    pc, taken, target, delay
    queue    push      queue, depth              depth *after* the operation
    queue    pop       queue, depth
    engine   hazard    addr                      load overlapping a queued store
    engine   fpu_op    addr                      FPU operation triggered

All payload values are ints, bools, or short strings — never floats or
wall-clock data — so a trace of a deterministic run is byte-identical
across processes, platforms, and serial/parallel execution.
"""

from __future__ import annotations

import io
import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

__all__ = [
    "JsonLinesSink",
    "MetricsSink",
    "NULL_TRACER",
    "RingBufferSink",
    "TraceMetrics",
    "TraceSink",
    "Tracer",
    "read_trace",
]


class TraceSink:
    """Receives every event the tracer emits.  Subclass and override."""

    def emit(self, cycle: int, component: str, kind: str, fields: Mapping) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources.  Idempotent."""


class Tracer:
    """Fans events out to its sinks, stamping the current cycle.

    The simulator sets :attr:`cycle` once per simulated cycle, so
    emitters never thread ``now`` through their call chains.  A tracer
    with no sinks is disabled; emit sites must guard with
    ``if tracer.enabled:`` so the disabled path costs one branch.  A
    simulator with an enabled tracer runs the reference loop, whose
    component methods hold every emit site (the compiled kernels hold
    none).
    """

    __slots__ = ("cycle", "enabled", "_sinks")

    def __init__(self, sinks: Iterable[TraceSink] = ()):
        self._sinks: list[TraceSink] = list(sinks)
        self.enabled = bool(self._sinks)
        self.cycle = 0

    def attach(self, sink: TraceSink) -> TraceSink:
        """Add a sink (before the run starts) and return it."""
        self._sinks.append(sink)
        self.enabled = True
        return sink

    def emit(self, component: str, kind: str, /, **fields) -> None:
        for sink in self._sinks:
            sink.emit(self.cycle, component, kind, fields)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    # ------------------------------------------------------------------
    def metrics(self) -> "TraceMetrics | None":
        """The metrics of the first attached :class:`MetricsSink`, if any."""
        for sink in self._sinks:
            if isinstance(sink, MetricsSink):
                return sink.metrics
        return None


#: The shared disabled tracer every component defaults to.
NULL_TRACER = Tracer()


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class JsonLinesSink(TraceSink):
    """Writes one canonical JSON object per event line.

    The record shape is ``{"c": cycle, "o": component, "k": kind,
    ...payload}`` with insertion-ordered keys and compact separators, so
    a deterministic run always serialises to byte-identical output —
    the property the golden-trace and serial-vs-parallel identity tests
    rely on.  Accepts a path (file owned and closed by the sink) or an
    open text stream (caller keeps ownership).
    """

    def __init__(self, target: str | os.PathLike | io.TextIOBase):
        if isinstance(target, (str, os.PathLike)):
            self._file = open(target, "w", encoding="utf-8", newline="\n")
            self._owned = True
        else:
            self._file = target
            self._owned = False
        self.events_written = 0

    def emit(self, cycle: int, component: str, kind: str, fields: Mapping) -> None:
        record = {"c": cycle, "o": component, "k": kind}
        record.update(fields)
        self._file.write(json.dumps(record, separators=(",", ":")))
        self._file.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owned and not self._file.closed:
            self._file.close()
        elif not self._owned:
            self._file.flush()


def read_trace(path: str | os.PathLike) -> Iterator[dict]:
    """Yield the event records of a JSONL trace file."""
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                yield json.loads(line)


class RingBufferSink(TraceSink):
    """Keeps the last ``capacity`` events in memory (None = unbounded).

    Each stored record has the same shape as a parsed JSONL line.
    """

    def __init__(self, capacity: int | None = 4096):
        if capacity is not None and capacity <= 0:
            raise ValueError("ring buffer capacity must be positive or None")
        self.capacity = capacity
        self.events: deque[dict] = deque(maxlen=capacity)
        self.total_events = 0

    def emit(self, cycle: int, component: str, kind: str, fields: Mapping) -> None:
        record = {"c": cycle, "o": component, "k": kind}
        record.update(fields)
        self.events.append(record)
        self.total_events += 1


# ----------------------------------------------------------------------
# Metrics aggregation
# ----------------------------------------------------------------------
@dataclass
class QueueMetrics:
    """Per-queue counters derived from ``queue`` push/pop events."""

    pushes: int = 0
    pops: int = 0
    max_occupancy: int = 0


@dataclass
class TraceMetrics:
    """Counters derived purely from the event stream.

    Mirrors every aggregate a :class:`SimulationResult` reports, so
    :meth:`verify_against` can prove the two accounting paths agree —
    the trace layer's core correctness property.
    """

    events: int = 0
    cycles: int = 0
    instructions: int = 0
    halted: bool = False
    # icache
    cache_hits: int = 0
    cache_misses: int = 0
    cache_fills: int = 0
    cache_line_replacements: int = 0
    # fetch
    demand_requests: int = 0
    prefetch_requests: int = 0
    prefetch_promotions: int = 0
    fetch_completes: int = 0
    fetch_cancels: int = 0
    redirects: int = 0
    squashed_instructions: int = 0
    # TIB
    tib_hits: int = 0
    tib_misses: int = 0
    tib_bytes_supplied: int = 0
    # memory system
    loads_accepted: int = 0
    stores_accepted: int = 0
    ifetch_demand_accepted: int = 0
    ifetch_prefetch_accepted: int = 0
    fpu_stores_accepted: int = 0
    fpu_loads_accepted: int = 0
    input_bus_busy_cycles: int = 0
    input_bus_bytes: int = 0
    output_bus_busy_cycles: int = 0
    acceptance_conflicts: int = 0
    # backend
    branches: int = 0
    branches_taken: int = 0
    stalls: dict[str, int] = field(default_factory=dict)
    # data engine
    loads_issued: int = 0
    stores_issued: int = 0
    fpu_operations: int = 0
    ordering_hazards: int = 0
    queues: dict[str, QueueMetrics] = field(default_factory=dict)
    # IQ occupancy (PIPE frontend)
    iq_pushes: int = 0
    iq_pops: int = 0
    iq_max_depth: int = 0
    iq_max_bytes: int = 0
    iq_depth_sum: int = 0
    iq_depth_samples: int = 0

    # ------------------------------------------------------------------
    # Derived figures (the summary panel)
    # ------------------------------------------------------------------
    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_miss_rate(self) -> float:
        lookups = self.cache_lookups
        return self.cache_misses / lookups if lookups else 0.0

    @property
    def output_port_utilization(self) -> float:
        """Fraction of cycles the output (request) bus accepted a request."""
        return self.output_bus_busy_cycles / self.cycles if self.cycles else 0.0

    @property
    def input_port_utilization(self) -> float:
        """Fraction of cycles the input (return) bus carried data."""
        return self.input_bus_busy_cycles / self.cycles if self.cycles else 0.0

    @property
    def mean_iq_depth(self) -> float:
        """Mean IQ entry count sampled at every push/pop event."""
        if not self.iq_depth_samples:
            return 0.0
        return self.iq_depth_sum / self.iq_depth_samples

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def update(self, record: Mapping) -> None:
        """Fold one event record (parsed JSONL shape) into the counters."""
        self._dispatch(record["o"], record["k"], record)

    def _dispatch(self, component: str, kind: str, fields: Mapping) -> None:
        self.events += 1
        if component == "backend":
            if kind == "issue":
                self.instructions += 1
            elif kind == "stall":
                reason = fields["reason"]
                self.stalls[reason] = self.stalls.get(reason, 0) + 1
            elif kind == "branch":
                self.branches += 1
                if fields["taken"]:
                    self.branches_taken += 1
        elif component == "queue":
            name = fields["queue"]
            metrics = self.queues.get(name)
            if metrics is None:
                metrics = self.queues.setdefault(name, QueueMetrics())
            depth = fields["depth"]
            if kind == "push":
                metrics.pushes += 1
                if depth > metrics.max_occupancy:
                    metrics.max_occupancy = depth
                # Every load pushes the LAQ exactly once at issue (and
                # every store the SAQ), so the issue counters fall out of
                # the queue stream without dedicated events.
                if name == "LAQ":
                    self.loads_issued += 1
                elif name == "SAQ":
                    self.stores_issued += 1
            else:
                metrics.pops += 1
        elif component == "icache":
            if kind == "hit":
                self.cache_hits += 1
            elif kind == "miss":
                self.cache_misses += 1
            elif kind == "fill":
                self.cache_fills += 1
                self.cache_line_replacements += fields["replaced"]
        elif component == "mem":
            if kind == "accept":
                self.output_bus_busy_cycles += 1
                if fields["fpu"]:
                    if fields["kind"] == "store":
                        self.fpu_stores_accepted += 1
                    else:
                        self.fpu_loads_accepted += 1
                elif fields["kind"] == "load":
                    self.loads_accepted += 1
                elif fields["kind"] == "store":
                    self.stores_accepted += 1
                elif fields["demand"]:
                    self.ifetch_demand_accepted += 1
                else:
                    self.ifetch_prefetch_accepted += 1
            elif kind == "deliver":
                self.input_bus_busy_cycles += 1
                self.input_bus_bytes += fields["bytes"]
            elif kind == "conflict":
                self.acceptance_conflicts += 1
        elif component == "fetch":
            if kind == "request":
                if fields["demand"]:
                    self.demand_requests += 1
                else:
                    self.prefetch_requests += 1
            elif kind == "promote":
                self.prefetch_promotions += 1
            elif kind == "complete":
                self.fetch_completes += 1
            elif kind == "cancel":
                self.fetch_cancels += 1
            elif kind == "redirect":
                self.redirects += 1
                self.squashed_instructions += fields["squashed"]
        elif component == "iq":
            depth = fields["depth"]
            if kind == "push":
                self.iq_pushes += 1
                if depth > self.iq_max_depth:
                    self.iq_max_depth = depth
                if fields["bytes"] > self.iq_max_bytes:
                    self.iq_max_bytes = fields["bytes"]
            else:
                self.iq_pops += 1
            self.iq_depth_sum += depth
            self.iq_depth_samples += 1
        elif component == "tib":
            if kind == "hit":
                self.tib_hits += 1
                self.tib_bytes_supplied += fields["bytes"]
            elif kind == "miss":
                self.tib_misses += 1
        elif component == "engine":
            if kind == "hazard":
                self.ordering_hazards += 1
            elif kind == "fpu_op":
                self.fpu_operations += 1
        elif component == "sim":
            if kind == "end":
                self.cycles = fields["cycles"]
                self.halted = fields["halted"]

    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, records: Iterable[Mapping]) -> "TraceMetrics":
        """Aggregate an event stream (e.g. :func:`read_trace` output)."""
        metrics = cls()
        for record in records:
            metrics.update(record)
        return metrics

    # ------------------------------------------------------------------
    # Serialization (results carry their metrics through the simcache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict; :meth:`from_dict` round-trips to equality."""
        out = {
            name: getattr(self, name)
            for name in (
                "events",
                "cycles",
                "instructions",
                "halted",
                "cache_hits",
                "cache_misses",
                "cache_fills",
                "cache_line_replacements",
                "demand_requests",
                "prefetch_requests",
                "prefetch_promotions",
                "fetch_completes",
                "fetch_cancels",
                "redirects",
                "squashed_instructions",
                "tib_hits",
                "tib_misses",
                "tib_bytes_supplied",
                "loads_accepted",
                "stores_accepted",
                "ifetch_demand_accepted",
                "ifetch_prefetch_accepted",
                "fpu_stores_accepted",
                "fpu_loads_accepted",
                "input_bus_busy_cycles",
                "input_bus_bytes",
                "output_bus_busy_cycles",
                "acceptance_conflicts",
                "branches",
                "branches_taken",
                "loads_issued",
                "stores_issued",
                "fpu_operations",
                "ordering_hazards",
                "iq_pushes",
                "iq_pops",
                "iq_max_depth",
                "iq_max_bytes",
                "iq_depth_sum",
                "iq_depth_samples",
            )
        }
        out["stalls"] = dict(self.stalls)
        out["queues"] = {
            name: {
                "pushes": queue.pushes,
                "pops": queue.pops,
                "max_occupancy": queue.max_occupancy,
            }
            for name, queue in self.queues.items()
        }
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "TraceMetrics":
        kwargs = dict(data)
        kwargs["queues"] = {
            name: QueueMetrics(**queue) for name, queue in data["queues"].items()
        }
        kwargs["stalls"] = dict(data["stalls"])
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Cross-checking against the simulator's own accounting
    # ------------------------------------------------------------------
    def verify_against(self, result) -> list[str]:
        """Mismatches between these metrics and a ``SimulationResult``.

        Returns a list of human-readable discrepancy strings; an empty
        list means the trace-derived counters equal the simulator's own
        counters exactly.  Catches silent drift between the two
        accounting paths (an instrumented site whose stats line moved
        without its event, or vice versa).
        """
        problems: list[str] = []

        def check(name: str, ours, theirs) -> None:
            if ours != theirs:
                problems.append(f"{name}: trace={ours!r} result={theirs!r}")

        check("cycles", self.cycles, result.cycles)
        check("instructions", self.instructions, result.instructions)
        check("halted", self.halted, result.halted)
        check("cache.hits", self.cache_hits, result.cache.hits)
        check("cache.misses", self.cache_misses, result.cache.misses)
        check("cache.fills", self.cache_fills, result.cache.fills)
        check(
            "cache.line_replacements",
            self.cache_line_replacements,
            result.cache.line_replacements,
        )
        fetch = result.fetch
        check(
            "fetch.instructions_supplied",
            self.instructions,
            fetch.instructions_supplied,
        )
        check("fetch.demand_requests", self.demand_requests, fetch.demand_requests)
        check(
            "fetch.prefetch_requests", self.prefetch_requests, fetch.prefetch_requests
        )
        check(
            "fetch.prefetch_promotions",
            self.prefetch_promotions,
            fetch.prefetch_promotions,
        )
        check("fetch.redirects", self.redirects, fetch.redirects)
        check(
            "fetch.squashed_instructions",
            self.squashed_instructions,
            fetch.squashed_instructions,
        )
        if hasattr(fetch, "tib_hits"):
            check("tib.hits", self.tib_hits, fetch.tib_hits)
            check("tib.misses", self.tib_misses, fetch.tib_misses)
            check(
                "tib.bytes_supplied", self.tib_bytes_supplied, fetch.tib_bytes_supplied
            )
        memory = result.memory
        for name in (
            "loads_accepted",
            "stores_accepted",
            "ifetch_demand_accepted",
            "ifetch_prefetch_accepted",
            "fpu_stores_accepted",
            "fpu_loads_accepted",
            "input_bus_busy_cycles",
            "input_bus_bytes",
            "output_bus_busy_cycles",
            "acceptance_conflicts",
        ):
            check(f"memory.{name}", getattr(self, name), getattr(memory, name))
        for reason, count in result.stalls.items():
            check(f"stalls.{reason}", self.stalls.get(reason, 0), count)
        for reason in self.stalls:
            if reason not in result.stalls:
                problems.append(f"stalls.{reason}: trace-only stall reason")
        for name, snapshot in result.queues.items():
            queue = self.queues.get(name, QueueMetrics())
            check(f"queues.{name}.pushes", queue.pushes, snapshot.pushes)
            check(f"queues.{name}.pops", queue.pops, snapshot.pops)
            check(
                f"queues.{name}.max_occupancy",
                queue.max_occupancy,
                snapshot.max_occupancy,
            )
        check("branches", self.branches, result.branches)
        check("branches_taken", self.branches_taken, result.branches_taken)
        check("loads", self.loads_issued, result.loads)
        check("stores", self.stores_issued, result.stores)
        check("fpu_operations", self.fpu_operations, result.fpu_operations)
        check("ordering_hazards", self.ordering_hazards, result.ordering_hazards)
        return problems


class MetricsSink(TraceSink):
    """Aggregates the event stream into a :class:`TraceMetrics` live."""

    def __init__(self):
        self.metrics = TraceMetrics()

    def emit(self, cycle: int, component: str, kind: str, fields: Mapping) -> None:
        self.metrics._dispatch(component, kind, fields)
