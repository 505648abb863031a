"""Steady-state loop replay: memoize warm loop iterations.

Once a benchmark loop reaches its steady state, every iteration drives
the machine through the *same* cycle-by-cycle evolution: the same
stalls, the same cache hits, the same bus arbitration — only the data
addresses stride.  This module exploits that by memoizing one
iteration's effect on the machine and then applying it arithmetically,
iteration after iteration, without simulating the cycles in between.

The machine executes nothing: it reads the program's recorded issue
stream (:mod:`repro.cpu.stream`), so an iteration is a slice of that
stream — its PBR outcomes and targets and its data addresses — timed
on the machine.  The protocol is **record → verify → engage**, keyed
by loop backedge target:

1. **Record.**  At a backward redirect (a loop backedge) the controller
   fingerprints the whole machine via the components'
   ``state_signature`` hooks (times relative to ``now``, sequence
   numbers relative to the allocator, LRU stamps reduced to rank order;
   data addresses excluded).  It then records one full iteration: the
   cycle and sequence-number deltas, the delta of *every* simulation
   counter (see :class:`StatsBook`), the iteration's slice of the issue
   stream (branch entries, and each data access's FPU-window address),
   the data-engine event stream, and (when tracing) the raw trace-event
   batch.
2. **Verify.**  The next live iteration is recorded the same way and
   must reproduce the first record *exactly* — same cycles, same
   counter deltas, same stream slice, same event shapes — and return
   the machine to the same signature.  Only then is the loop
   **engaged**, and the record's counter delta is resolved into a
   *plan* of the nonzero counters it moves (:meth:`StatsBook.plan`).
3. **Replay.**  On each further signature match the controller replays
   iterations arithmetically.  Each one is first checked against the
   next slice of the issue stream, by four guards: no stream end inside
   the slice, equal branch entries, equal FPU-window membership and FPU
   address for every data access, and an equal recount of the
   store/load ordering hazards.  If any differs, live simulation
   resumes from the untouched boundary state — divergence never needs
   a rollback.  Otherwise the commit advances the stream cursors,
   rewrites the queued loads' and stores' addresses from the stream,
   shifts all timed state by the iteration's deltas (``replay_shift``),
   and advances every counter by its recorded delta (the plan).

Byte-identity invariants:

* counters are *never* recomputed during replay — the recorded deltas
  are applied arithmetically, so results match the reference engine
  field for field;
* max-style counters (queue ``max_occupancy``, LDQ wait high-water)
  must show a zero delta over the verified iteration, else the loop
  never engages;
* under tracing, a loop engages only if its recorded and verified
  event batches are byte-identical after cycle normalisation; batches
  containing striding payloads (data addresses, sequence numbers)
  never match, so such loops simply stay live and the JSONL output is
  trivially preserved;
* replay refuses to advance past ``max_cycles``, so timeout and
  deadlock errors report true architectural cycles.

The controller serves only the compiled engine: its kernel hands every
loop backedge to :meth:`ReplayController.on_backedge`.  The reference
loop (``skip=False``, ``--no-skip``, or a machine that gets no kernel)
runs without one.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from ..memory.fpu import FPU_BASE, FPU_SIZE

__all__ = ["ReplayController", "StatsBook", "machine_signature"]


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------
def machine_signature(sim, now: int) -> tuple:
    """Fingerprint of everything that determines future *timing*.

    Component signatures make times ``now``-relative and sequence
    numbers allocator-relative, so a steady-state loop produces the
    same tuple at every backedge.  Pure (no component state is
    mutated) and cheap enough to evaluate once per backedge.
    """
    base_seq = sim.seq.value
    return (
        sim.backend.state_signature(now, base_seq),
        sim.frontend.state_signature(now, base_seq),
        sim.engine.state_signature(now, base_seq),
        sim.memory.state_signature(now, base_seq),
        sim.cache.state_signature(),
    )


# ----------------------------------------------------------------------
# The counter ledger
# ----------------------------------------------------------------------
#: counters that track a running maximum rather than a sum; a loop may
#: only engage once these stop moving (delta 0 over an iteration)
MAX_FIELDS = frozenset({"ldq_max_wait_entries", "max_occupancy"})


class StatsBook:
    """Complete ledger of every counter a simulation reports.

    Dataclass-based stats objects are introspected field by field, so a
    newly added counter is picked up automatically — or, if its type is
    not something the replay engine knows how to delta (``int`` or a
    ``str -> int`` dict), :class:`StatsBook` raises at construction
    instead of silently corrupting replayed results.  Plain-attribute
    counters (backend, queues, external memory, timed FPU) are listed
    explicitly; ``tests/test_replay_engine.py`` pins those manifests.
    """

    #: (owner attribute path, counter names) for non-dataclass counters
    PLAIN_COUNTERS = (
        ("backend", ("instructions", "branches", "branches_taken")),
        ("memory.external", ("total_accepted", "busy_cycles")),
        ("memory.fpu", ("operations_started", "results_delivered")),
    )
    QUEUE_COUNTERS = ("total_pushes", "total_pops", "max_occupancy")

    def __init__(self, sim):
        entries: list[tuple[str, str, object, object]] = []

        def add_attr(obj, name: str, label: str) -> None:
            kind = "max" if name in MAX_FIELDS else "add"
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise RuntimeError(
                    f"replay cannot account for counter {label!r} of type "
                    f"{type(value).__name__}; teach StatsBook about it"
                )
            entries.append((label, kind, obj, name))

        def add_dict(obj, name: str, label: str) -> None:
            entries.append((label, "dict", obj, name))

        def add_dataclass(obj, label: str) -> None:
            for field in dataclasses.fields(obj):
                value = getattr(obj, field.name)
                if isinstance(value, dict):
                    add_dict(obj, field.name, f"{label}.{field.name}")
                else:
                    add_attr(obj, field.name, f"{label}.{field.name}")

        backend = sim.backend
        add_dataclass(sim.frontend.stats, "fetch")
        add_dataclass(sim.cache.stats, "cache")
        add_dataclass(sim.memory.stats, "mem")
        add_dataclass(sim.engine.stats, "engine")
        for path, names in self.PLAIN_COUNTERS:
            obj = sim
            for part in path.split("."):
                obj = getattr(obj, part)
            for name in names:
                add_attr(obj, name, f"{path}.{name}")
        add_dict(backend, "stalls", "backend.stalls")
        for queue in (sim.engine.laq, sim.engine.ldq, sim.engine.saq, sim.engine.sdq):
            for name in self.QUEUE_COUNTERS:
                add_attr(queue, name, f"queue.{queue.name}.{name}")
        self._entries = entries
        self.labels = tuple(entry[0] for entry in entries)

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Current value of every counter (dicts canonicalised)."""
        values = []
        for _label, kind, obj, name in self._entries:
            value = getattr(obj, name)
            if kind == "dict":
                values.append(tuple(sorted(value.items())))
            else:
                values.append(value)
        return tuple(values)

    def diff(self, before: tuple, after: tuple) -> tuple:
        """Per-counter delta between two snapshots."""
        deltas = []
        for (_label, kind, _obj, _name), a, b in zip(self._entries, before, after):
            if kind == "dict":
                prior = dict(a)
                deltas.append(
                    tuple(
                        (key, value - prior.get(key, 0))
                        for key, value in b
                        if value != prior.get(key, 0)
                    )
                )
            else:
                deltas.append(b - a)
        return tuple(deltas)

    def max_deltas_zero(self, delta: tuple) -> bool:
        """True when no max-style counter moved over the iteration."""
        for (_label, kind, _obj, _name), d in zip(self._entries, delta):
            if kind == "max" and d != 0:
                return False
        return True

    def plan(self, delta: tuple) -> tuple:
        """Resolve one iteration's delta into what :meth:`apply` writes.

        Returns ``(fields, items)``: the nonzero ``(owner, attribute,
        delta)`` of the summed counters and the nonzero ``(dict, key,
        delta)`` of the dict counters (which are updated in place and
        never rebound).  Zero deltas are left out, and so are max-style
        counters (zero by the engagement precondition).
        """
        fields = []
        items = []
        for (_label, kind, obj, name), d in zip(self._entries, delta):
            if kind == "add":
                if d:
                    fields.append((obj, name, d))
            elif kind == "dict":
                target = getattr(obj, name)
                items.extend((target, key, dv) for key, dv in d)
        return tuple(fields), tuple(items)

    def apply(self, plan: tuple) -> None:
        """Advance every counter by one iteration, as :meth:`plan` resolved it."""
        fields, items = plan
        for obj, name, d in fields:
            setattr(obj, name, getattr(obj, name) + d)
        for target, key, d in items:
            target[key] = target.get(key, 0) + d


# ----------------------------------------------------------------------
# Iteration records
# ----------------------------------------------------------------------
#: one past the FPU register window
_FPU_END = FPU_BASE + FPU_SIZE


def _fpu_tags(addresses) -> tuple:
    """Each data address's FPU-window address, or ``None`` outside the
    window: what timing reads of an address besides its hazards."""
    return tuple(a if FPU_BASE <= a < _FPU_END else None for a in addresses)


@dataclasses.dataclass(slots=True)
class _IterationRecord:
    """One memoized loop iteration: its deltas and its stream slice.

    ``branches`` is the iteration's slice of the stream's branch entries;
    ``loads`` and ``stores`` tag each data access with its FPU-window
    address (:func:`_fpu_tags`).  Two records *match* when they compare
    equal; ``plan`` (:meth:`StatsBook.plan` of ``delta``) is bound when
    the record engages.
    """

    cycles: int
    seqs: int
    delta: tuple
    branches: object  #: an ``array``, compared element by element
    loads: tuple
    stores: tuple
    events: tuple
    trace: tuple | None
    instructions: int = dataclasses.field(compare=False)
    engageable: bool = dataclasses.field(compare=False)
    plan: tuple | None = dataclasses.field(default=None, compare=False)


#: loop-state phases
_RECORD, _VERIFY, _ENGAGED, _DEAD = range(4)

_PHASE_NAMES = {
    _RECORD: "recording",
    _VERIFY: "verifying",
    _ENGAGED: "engaged",
    _DEAD: "abandoned",
}


@dataclasses.dataclass(slots=True)
class _LoopState:
    """Per-backedge-target replay state machine plus statistics."""

    phase: int = _RECORD
    sig: tuple | None = None
    candidate: _IterationRecord | None = None
    record: _IterationRecord | None = None
    fails: int = 0
    restarts: int = 0
    backedges: int = 0
    sig_mismatches: int = 0
    recorded: int = 0
    replayed: int = 0
    replayed_cycles: int = 0
    divergences: int = 0


# ----------------------------------------------------------------------
# The controller
# ----------------------------------------------------------------------
class ReplayController:
    """Memoizes warm loop iterations for one :class:`Simulator` run."""

    #: verify attempts (matching signature, mismatching record) before a
    #: target is abandoned as unstable
    VERIFY_LIMIT = 4
    #: signature changes at a target before it is abandoned
    RESTART_LIMIT = 64
    #: iterations longer than this are never memoized (outer loops)
    MAX_ITERATION_INSTRUCTIONS = 2048

    def __init__(self, sim):
        self.sim = sim
        self.book = StatsBook(sim)
        self.loops: dict[int, _LoopState] = {}
        self.traced = sim.tracer.enabled
        self._recording_target: int | None = None
        self._rec_now = 0
        self._rec_seq = 0
        self._rec_vector: tuple | None = None
        #: the back-end's issue count and stream cursors at the start
        #: of the recording
        self._rec_cursors = (0, 0, 0, 0)
        self._engine_buf: list = []
        self._trace_buf: list = []

    # ------------------------------------------------------------------
    # Entry point from the compiled kernel
    # ------------------------------------------------------------------
    def on_backedge(self, target: int, now: int) -> int:
        """Handle a loop backedge at cycle ``now``; returns the new ``now``.

        A return value greater than ``now`` means iterations were
        replayed arithmetically and the machine state already reflects
        the returned cycle.
        """
        state = self.loops.get(target)
        if state is None:
            state = _LoopState()
            self.loops[target] = state
        state.backedges += 1
        phase = state.phase
        if phase == _DEAD:
            # Dead targets neither record nor disturb an enclosing
            # loop's recording (their backedges are part of it).
            return now
        if phase == _ENGAGED:
            sig = machine_signature(self.sim, now)
            if sig != state.sig:
                state.sig_mismatches += 1
                return now
            self._abort_recording()
            return self._burst(state, now)
        # RECORD / VERIFY
        if self._recording_target == target:
            record, sig = self._finish_recording(now)
            self._advance(state, record, sig)
        else:
            # Innermost wins: a different target's backedge inside the
            # active recording means a nested loop is hotter.
            self._abort_recording()
            sig = machine_signature(self.sim, now)
        if state.phase == _ENGAGED and sig == state.sig:
            return self._burst(state, now)
        if state.phase != _DEAD:
            self._start_recording(target, now, sig)
        return now

    def check_runaway(self) -> None:
        """Abandon a recording that grew past the memoization bound.

        Called from the kernel's periodic snapshot branch so a
        recording for a backedge that never recurs cannot buffer the
        rest of the program.
        """
        target = self._recording_target
        if target is None:
            return
        issued = self.sim.backend.instructions - self._rec_cursors[0]
        if issued > self.MAX_ITERATION_INSTRUCTIONS:
            self.loops[target].phase = _DEAD
            self._abort_recording()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _start_recording(self, target: int, now: int, sig: tuple) -> None:
        sim = self.sim
        backend = sim.backend
        self._recording_target = target
        self._rec_now = now
        self._rec_seq = sim.seq.value
        self._rec_vector = self.book.snapshot()
        self._rec_cursors = (
            backend.instructions,
            backend.next_branch,
            backend.next_load,
            backend.next_store,
        )
        self._engine_buf.clear()
        sim.engine.replay_log = self._engine_buf
        if self.traced:
            self._trace_buf.clear()
            sim.tracer.record = self._trace_buf
        self.loops[target].sig = sig

    def _abort_recording(self) -> None:
        if self._recording_target is None:
            return
        sim = self.sim
        self._recording_target = None
        sim.engine.replay_log = None
        if self.traced:
            sim.tracer.record = None

    def _finish_recording(self, now: int) -> tuple:
        """Close the active recording; returns ``(record|None, end_sig)``."""
        sim = self.sim
        backend = sim.backend
        raw_events = tuple(sim.engine.replay_log)
        raw_trace = tuple(self._trace_buf) if self.traced else None
        self._abort_recording()
        sig_end = machine_signature(sim, now)
        issued, branches_at, loads_at, stores_at = self._rec_cursors
        instructions = backend.instructions - issued
        if instructions > self.MAX_ITERATION_INSTRUCTIONS:
            return None, sig_end
        cycles = now - self._rec_now
        base_seq = self._rec_seq
        base_now = self._rec_now
        events = tuple(
            event if event[0] == "sd" else (event[0], event[1] - base_seq) + event[2:]
            for event in raw_events
        )
        trace = None
        if raw_trace is not None:
            trace = tuple(
                (cycle - base_now, component, kind, fields)
                for cycle, component, kind, fields in raw_trace
            )
        delta = self.book.diff(self._rec_vector, self.book.snapshot())
        stream = backend.stream
        record = _IterationRecord(
            cycles=cycles,
            seqs=sim.seq.value - base_seq,
            delta=delta,
            instructions=instructions,
            branches=stream.branches[branches_at : backend.next_branch],
            loads=_fpu_tags(stream.loads[loads_at : backend.next_load]),
            stores=_fpu_tags(stream.stores[stores_at : backend.next_store]),
            events=events,
            trace=trace,
            engageable=cycles > 0 and self.book.max_deltas_zero(delta),
        )
        return record, sig_end

    def _advance(self, state: _LoopState, record, sig_end: tuple) -> None:
        """Move a target's state machine after a recorded iteration."""
        if record is None:
            state.phase = _DEAD
            return
        state.recorded += 1
        if state.phase == _RECORD:
            if sig_end == state.sig:
                state.candidate = record
                state.phase = _VERIFY
            else:
                state.restarts += 1
                if state.restarts > self.RESTART_LIMIT:
                    state.phase = _DEAD
            return
        # _VERIFY
        if sig_end != state.sig:
            state.restarts += 1
            state.candidate = None
            state.phase = _DEAD if state.restarts > self.RESTART_LIMIT else _RECORD
            return
        if state.candidate == record and record.engageable:
            record.plan = self.book.plan(record.delta)
            state.record = record
            state.phase = _ENGAGED
            return
        state.fails += 1
        state.candidate = record
        if state.fails >= self.VERIFY_LIMIT:
            state.phase = _DEAD

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _burst(self, state: _LoopState, now: int) -> int:
        """Replay as many iterations as the stream guards confirm."""
        record = state.record
        sim = self.sim
        backend = sim.backend
        max_cycles = sim.config.max_cycles
        cycles = record.cycles
        replayed = 0
        while now + cycles <= max_cycles:
            if not (
                self._stream_continues(record, backend)
                and self._branches_match(record, backend)
                and self._fpu_accesses_match(record, backend)
                and self._hazards_match(record, backend)
            ):
                state.divergences += 1
                break
            self._commit(record)
            if self.traced:
                self._emit_batch(record.trace, now)
            now += cycles
            replayed += 1
        state.replayed += replayed
        state.replayed_cycles += replayed * cycles
        return now

    # The four guards on the next iteration's slice of the issue stream.
    # Each reads the stream at the back-end's cursors; none mutates the
    # machine, so a failed guard leaves the boundary state untouched.
    def _stream_continues(self, record: _IterationRecord, backend) -> bool:
        """No stream end (HALT, an error, an instruction that never
        issues) inside the slice: live issue must reach it."""
        limit = backend.instructions + record.instructions
        return not backend.stream.ends_before(limit)

    def _branches_match(self, record: _IterationRecord, backend) -> bool:
        """Every PBR's pc, outcome and target equal the record's: the
        iteration takes the recorded path."""
        at = backend.next_branch
        branches = backend.stream.branches[at : at + len(record.branches)]
        return branches == record.branches

    def _fpu_accesses_match(self, record: _IterationRecord, backend) -> bool:
        """Every data access is in the FPU window where the record's is,
        at the same FPU address: it is routed to the same unit and, for
        a store, starts the same operation."""
        loads_at, stores_at = backend.next_load, backend.next_store
        loads = backend.stream.loads[loads_at : loads_at + len(record.loads)]
        stores = backend.stream.stores[stores_at : stores_at + len(record.stores)]
        return _fpu_tags(loads) == record.loads and _fpu_tags(stores) == record.stores

    def _hazards_match(self, record: _IterationRecord, backend) -> bool:
        """Every load overlaps as many queued store addresses as the
        record's (the ``ordering_hazards`` counter).  The recorded event
        order replays the SAQ each load saw: the queued stores, this
        iteration's pushes, and the recorded departures."""
        loads, stores = backend.stream.loads, backend.stream.stores
        loads_at, stores_at = backend.next_load, backend.next_store
        saq = deque(entry.address for entry in self.sim.engine.saq)
        for event in record.events:
            kind = event[0]
            if kind == "laq":
                if saq.count(loads[loads_at]) != event[2]:
                    return False
                loads_at += 1
            elif kind == "saq":
                saq.append(stores[stores_at])
                stores_at += 1
            elif kind == "sd":
                saq.popleft()
        return True

    def _commit(self, record: _IterationRecord) -> None:
        """Adopt one confirmed iteration into the live machine."""
        sim = self.sim
        engine = sim.engine
        backend = sim.backend
        stream = backend.stream
        seqs = record.seqs
        cycles = record.cycles
        backend.next_branch += len(record.branches)
        loads_at = backend.next_load = backend.next_load + len(record.loads)
        stores_at = backend.next_store = backend.next_store + len(record.stores)
        # The queued loads and stores are the newest ones issued: they
        # take the addresses at the end of this iteration's slice.
        laq = engine.laq._items
        for entry, address in zip(laq, stream.loads[loads_at - len(laq) : loads_at]):
            entry.address = address
            entry.seq += seqs
        saq = engine.saq._items
        for entry, address in zip(
            saq, stream.stores[stores_at - len(saq) : stores_at]
        ):
            entry.address = address
            entry.seq += seqs
        for entry in engine.sdq._items:
            entry.seq += seqs
        # Shift every absolute time/seq in the timing skeleton.
        sim.memory.replay_shift(cycles, seqs)
        sim.frontend.replay_shift(cycles, seqs)
        backend.replay_shift(cycles, seqs)
        sim.seq.value += seqs
        # All counters advance arithmetically by the recorded deltas.
        self.book.apply(record.plan)

    def _emit_batch(self, batch: tuple, base: int) -> None:
        """Re-emit a recorded trace batch shifted to this iteration."""
        tracer = self.sim.tracer
        emit = tracer.emit
        for rel_cycle, component, kind, fields in batch:
            tracer.cycle = base + rel_cycle
            emit(component, kind, **fields)

    # ------------------------------------------------------------------
    # Reporting (the ``profile --engine`` surface)
    # ------------------------------------------------------------------
    def loop_reports(self) -> list[dict]:
        """Per-backedge-target replay statistics, hottest first."""
        reports = []
        for target, state in self.loops.items():
            record = state.record
            reports.append(
                {
                    "target": target,
                    "phase": _PHASE_NAMES[state.phase],
                    "backedges": state.backedges,
                    "live_iterations": state.backedges,
                    "replayed_iterations": state.replayed,
                    "iteration_cycles": record.cycles if record else None,
                    "live_cycles": (
                        state.backedges * record.cycles if record else None
                    ),
                    "replayed_cycles": state.replayed_cycles,
                    "recorded_iterations": state.recorded,
                    "verify_failures": state.fails,
                    "signature_restarts": state.restarts,
                    "signature_mismatches": state.sig_mismatches,
                    "divergences": state.divergences,
                }
            )
        reports.sort(key=lambda r: r["replayed_cycles"], reverse=True)
        return reports

    @property
    def replayed_cycles(self) -> int:
        return sum(state.replayed_cycles for state in self.loops.values())

    @property
    def replayed_iterations(self) -> int:
        return sum(state.replayed for state in self.loops.values())
