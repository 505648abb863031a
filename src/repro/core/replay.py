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
on the machine.  The protocol is **record → engage**, keyed by loop
backedge target:

1. **Record.**  At a backward redirect (a loop backedge) the controller
   fingerprints the whole machine via the components'
   ``state_signature`` hooks (times relative to ``now``, sequence
   numbers relative to the allocator, LRU stamps reduced to rank order;
   data addresses excluded).  It then records one full iteration: the
   cycle and sequence-number deltas, the delta of *every* simulation
   counter (see :class:`StatsBook`), the iteration's slice of the issue
   stream (branch entries, and each data access's FPU-window address)
   and the data-engine event stream.  When the iteration returns the
   machine to the signature it started from (and moved no max-style
   counter), the loop is **engaged**: the counter delta is resolved
   into a *plan* of the nonzero counters it moves
   (:meth:`StatsBook.plan`) and the event stream into each load's SAQ
   window (:func:`_saq_windows`).  Any other outcome records the next
   iteration instead.
2. **Replay.**  At that backedge, and on each further signature match,
   the controller replays a burst of iterations arithmetically.  First
   the four guards check the issue stream from a cursor tuple (issued,
   branch, load, store), a chunk of ``n`` iterations at a time: no
   stream end inside the chunk, branch entries equal to ``n`` copies of
   the record's, likewise the FPU tag of every data access (its
   FPU-window address, else 0), and the store/load ordering hazards
   the record counted.  Each guard answers for the whole chunk with a
   slice comparison (for hazards, a ``translate``) over arrays that the
   stream's pass filled once per program; only a load that met a hazard
   in the record is recounted one iteration at a time.  The chunk
   doubles after a confirmed chunk and halves after a failed one, so
   the walk stops at exactly the first iteration a guard fails.  (So
   the first burst's first chunk is what checks the record against the
   next iteration's slice.)  The guards read only the stream, so the
   machine stays at its boundary state until one of them fails (or
   ``max_cycles`` stops the walk) — divergence never needs a rollback.
   Then one commit applies the ``k`` confirmed iterations at once: it
   advances the stream cursors by ``k`` slices, rewrites the queued
   loads' and stores' addresses from the last slice, shifts all timed
   state by ``k`` times the iteration's deltas (``replay_shift``), and
   advances every counter by ``k`` times its recorded delta (the
   plan).

Byte-identity invariants:

* counters are *never* recomputed during replay — the recorded deltas
  are applied arithmetically, so results match the reference engine
  field for field;
* max-style counters (queue ``max_occupancy``, LDQ wait high-water)
  must show a zero delta over the recorded iteration, else the loop
  records again;
* replay refuses to advance past ``max_cycles``, so timeout and
  deadlock errors report true architectural cycles.

The controller serves only the compiled engine: its kernel hands every
loop backedge to :meth:`ReplayController.on_backedge`.  The reference
loop (``skip=False``, ``--no-skip``, a traced run, or a machine that
gets no kernel) runs without one, so replay never emits trace events.
"""

from __future__ import annotations

import dataclasses

from ..cpu.stream import FAR

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

    def apply(self, plan: tuple, k: int) -> None:
        """Advance every counter by ``k`` iterations, as :meth:`plan`
        resolved one."""
        fields, items = plan
        for obj, name, d in fields:
            setattr(obj, name, getattr(obj, name) + k * d)
        for target, key, d in items:
            target[key] = target.get(key, 0) + k * d


# ----------------------------------------------------------------------
# Iteration records
# ----------------------------------------------------------------------
def _saq_windows(events: list, queued: int) -> tuple:
    """Resolve a record's hazard recount into one ``(offset, start, end,
    count)`` per load.

    At an iteration boundary the SAQ holds the ``queued`` newest stores
    issued, ``stream.stores[store - queued : store]`` at store cursor
    ``store``; each push appends the next store and each departure
    drops the oldest.  So the SAQ the iteration's ``offset``-th load
    saw is ``stream.stores[store + start : store + end]``, and ``count``
    is how many of those addresses the record's load matched.  The
    window ends at the stores issued before the load, so ``count`` is
    also how many of the load's same-address stores were issued at most
    ``end - start`` stores before it; for a window narrower than
    :data:`~repro.cpu.stream.FAR` it is 0 exactly when the stream's
    ``near`` gap exceeds that.
    """
    windows = []
    start, end = -queued, 0
    for event in events:
        kind = event[0]
        if kind == "laq":
            windows.append((len(windows), start, end, event[1]))
        elif kind == "saq":
            end += 1
        elif kind == "sd":
            start += 1
    return tuple(windows)


#: ``_FARTHER[w]`` holds the ``near`` gap values above ``w``.  Deleting
#: them from a chunk's gaps leaves the loads with a same-address store
#: inside a window ``w`` stores wide.  ``_FARTHER[FAR]`` is empty: a
#: window that wide fails the check (the gaps saturate at ``FAR``).
_FARTHER = tuple(bytes(range(w + 1, FAR + 1)) for w in range(FAR + 1))


@dataclasses.dataclass(slots=True)
class _IterationRecord:
    """One memoized loop iteration: its deltas and its stream slice.

    ``branches``, ``loads`` and ``stores`` are the iteration's slices of
    the stream's ``branches``, ``load_tags`` and ``store_tags`` arrays.
    ``plan`` (:meth:`StatsBook.plan` of the counter delta) and
    ``windows`` (:func:`_saq_windows` of the data-engine events) are
    resolved when the recording closes.
    """

    cycles: int
    seqs: int
    instructions: int
    branches: object  #: ``array`` slices, compared element by element
    loads: object
    stores: object
    plan: tuple
    windows: tuple


#: loop-state phases
_RECORD, _ENGAGED, _DEAD = range(3)

_PHASE_NAMES = {
    _RECORD: "recording",
    _ENGAGED: "engaged",
    _DEAD: "abandoned",
}


@dataclasses.dataclass(slots=True)
class _LoopState:
    """Per-backedge-target replay state machine plus statistics."""

    phase: int = _RECORD
    sig: tuple | None = None
    record: _IterationRecord | None = None
    #: bursts that confirmed no iteration
    empty_bursts: int = 0
    restarts: int = 0
    backedges: int = 0
    sig_mismatches: int = 0
    replayed: int = 0
    replayed_cycles: int = 0
    divergences: int = 0


def _cursors(backend) -> tuple:
    """Where the back-end reads the issue stream: (issued, branch, load,
    store)."""
    return (
        backend.instructions,
        backend.next_branch,
        backend.next_load,
        backend.next_store,
    )


# ----------------------------------------------------------------------
# The controller
# ----------------------------------------------------------------------
class ReplayController:
    """Memoizes warm loop iterations for one :class:`Simulator` run."""

    #: recordings at a target that end without engaging it (the
    #: signature changed, or the iteration took no cycles or moved a
    #: max-style counter) before it is abandoned
    RESTART_LIMIT = 64
    #: iterations longer than this are never memoized (outer loops)
    MAX_ITERATION_INSTRUCTIONS = 2048

    def __init__(self, sim):
        #: the machine, until its run ends (:meth:`Simulator.run` then
        #: drops it; the reports below read only ``loops``)
        self.sim = sim
        self.book = StatsBook(sim)
        self.loops: dict[int, _LoopState] = {}
        self._recording_target: int | None = None
        self._rec_now = 0
        self._rec_seq = 0
        self._rec_vector: tuple | None = None
        #: the back-end's issue count and stream cursors at the start
        #: of the recording
        self._rec_cursors = (0, 0, 0, 0)

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
        # RECORD
        if self._recording_target == target:
            sig = self._finish_recording(state, now)
        else:
            # Innermost wins: a different target's backedge inside the
            # active recording means a nested loop is hotter.
            self._abort_recording()
            sig = machine_signature(self.sim, now)
        if state.phase == _ENGAGED:
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
        self._recording_target = target
        self._rec_now = now
        self._rec_seq = sim.seq.value
        self._rec_vector = self.book.snapshot()
        self._rec_cursors = _cursors(sim.backend)
        sim.engine.replay_log = []
        self.loops[target].sig = sig

    def _abort_recording(self) -> None:
        if self._recording_target is None:
            return
        self._recording_target = None
        self.sim.engine.replay_log = None

    def _finish_recording(self, state: _LoopState, now: int) -> tuple:
        """Close the active recording and engage its target when the
        iteration can be replayed; returns the signature at ``now``."""
        sim = self.sim
        backend = sim.backend
        events = sim.engine.replay_log
        self._abort_recording()
        sig_end = machine_signature(sim, now)
        issued, branches_at, loads_at, stores_at = self._rec_cursors
        instructions = backend.instructions - issued
        if instructions > self.MAX_ITERATION_INSTRUCTIONS:
            state.phase = _DEAD
            return sig_end
        cycles = now - self._rec_now
        delta = self.book.diff(self._rec_vector, self.book.snapshot())
        # The max-field check is the backstop for a signature gap.  A
        # replayed iteration follows the recorded one's trajectory from
        # the same signature, and the recording ran live, so that
        # trajectory's peaks are already in the counters (the plan
        # leaves max fields out).  A moved max field can change a result
        # only where the signature misses state that shapes the
        # trajectory; elsewhere the check costs one more recording.
        if sig_end != state.sig or cycles <= 0 or not self.book.max_deltas_zero(delta):
            state.restarts += 1
            if state.restarts > self.RESTART_LIMIT:
                state.phase = _DEAD
            return sig_end
        stream = backend.stream
        state.record = _IterationRecord(
            cycles=cycles,
            seqs=sim.seq.value - self._rec_seq,
            instructions=instructions,
            branches=stream.branches[branches_at : backend.next_branch],
            loads=stream.load_tags[loads_at : backend.next_load],
            stores=stream.store_tags[stores_at : backend.next_store],
            plan=self.book.plan(delta),
            # The SAQ is as full as when the recording started: its
            # length is part of the machine signature.
            windows=_saq_windows(events, len(sim.engine.saq)),
        )
        state.phase = _ENGAGED
        return sig_end

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _burst(self, state: _LoopState, now: int) -> int:
        """Replay as many iterations as the stream guards confirm.

        The guards check the cursors' next ``n`` iterations at once
        without touching the machine.  ``n`` doubles after a confirmed
        chunk and halves after a failed one, so the walk closes in on
        the first failing iteration and stops when a one-iteration
        chunk fails there (the divergence) or the budget is spent.  One
        commit then applies all ``k`` confirmed iterations.
        """
        record = state.record
        sim = self.sim
        backend = sim.backend
        stream = backend.stream
        cycles = record.cycles
        step = (
            record.instructions,
            len(record.branches),
            len(record.loads),
            len(record.stores),
        )
        budget = (sim.config.max_cycles - now) // cycles
        at = _cursors(backend)
        k = 0
        n = 1
        while k < budget:
            n = min(n, budget - k)
            if (
                self._stream_continues(record, stream, at, n)
                and self._branches_match(record, stream, at, n)
                and self._fpu_accesses_match(record, stream, at, n)
                and self._hazards_match(record, stream, at, n)
            ):
                at = tuple(cursor + n * size for cursor, size in zip(at, step))
                k += n
                n *= 2
            elif n > 1:
                n //= 2
            else:
                state.divergences += 1
                break
        if k:
            self._commit(record, k)
        else:
            state.empty_bursts += 1
        state.replayed += k
        state.replayed_cycles += k * cycles
        return now + k * cycles

    # The four guards on the ``n`` iterations' slice of the issue stream
    # that starts at the cursors ``at`` (issued, branch, load, store).
    # Each holds for the chunk exactly when it holds for every iteration
    # in it.  None mutates the machine, so a failed guard leaves the
    # boundary state untouched.
    def _stream_continues(
        self, record: _IterationRecord, stream, at: tuple, n: int
    ) -> bool:
        """No stream end (HALT, an error, an instruction that never
        issues) inside the chunk: live issue must reach it."""
        return not stream.ends_before(at[0] + n * record.instructions)

    def _branches_match(
        self, record: _IterationRecord, stream, at: tuple, n: int
    ) -> bool:
        """Every PBR's pc, outcome and target equal the record's: each
        iteration takes the recorded path."""
        branch = at[1]
        branches = stream.branches[branch : branch + n * len(record.branches)]
        return branches == record.branches * n

    def _fpu_accesses_match(
        self, record: _IterationRecord, stream, at: tuple, n: int
    ) -> bool:
        """Every data access is in the FPU window where the record's is,
        at the same FPU address: it is routed to the same unit and, for
        a store, starts the same operation."""
        _issued, _branch, load, store = at
        loads, stores = record.loads, record.stores
        return (
            stream.load_tags[load : load + n * len(loads)] == loads * n
            and stream.store_tags[store : store + n * len(stores)] == stores * n
        )

    def _hazards_match(
        self, record: _IterationRecord, stream, at: tuple, n: int
    ) -> bool:
        """Every load overlaps as many queued store addresses as the
        record's (the ``ordering_hazards`` counter).  A load's SAQ holds
        the ``end - start`` newest stores issued before it
        (:func:`_saq_windows`), so a count of 0 needs its nearest
        same-address store farther back than that: one strided slice of
        the chunk's ``near`` gaps must be empty once the farther ones
        are deleted (``bytes.translate``, in C).  A nonzero count is
        recounted iteration by iteration."""
        _issued, _branch, load, store = at
        loads, stores, near = stream.loads, stream.stores, stream.near
        per_load, per_store = len(record.loads), len(record.stores)
        stop = load + n * per_load
        for offset, start, end, count in record.windows:
            first = load + offset
            if count == 0:
                farther = _FARTHER[min(end - start, FAR)]
                if near[first:stop:per_load].translate(None, farther):
                    return False
                continue
            for i in range(n):
                at_store = store + i * per_store
                window = stores[at_store + start : at_store + end]
                if window.count(loads[first + i * per_load]) != count:
                    return False
        return True

    def _commit(self, record: _IterationRecord, k: int) -> None:
        """Adopt ``k`` confirmed iterations into the live machine."""
        sim = self.sim
        engine = sim.engine
        backend = sim.backend
        stream = backend.stream
        seqs = k * record.seqs
        cycles = k * record.cycles
        backend.next_branch += k * len(record.branches)
        loads_at = backend.next_load = backend.next_load + k * len(record.loads)
        stores_at = backend.next_store = backend.next_store + k * len(record.stores)
        # The queued loads and stores are the newest ones issued: they
        # take the addresses at the end of the last iteration's slice.
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
        # The SDQ's entries are plain seqs, shifted in place: kernels
        # hoist the deque, so it is never rebound.
        sdq = engine.sdq._items
        for index in range(len(sdq)):
            sdq[index] += seqs
        # Shift every absolute time/seq in the timing skeleton.
        sim.memory.replay_shift(cycles, seqs)
        sim.frontend.replay_shift(cycles, seqs)
        backend.replay_shift(cycles, seqs)
        sim.seq.value += seqs
        # All counters advance arithmetically by the recorded deltas.
        self.book.apply(record.plan, k)

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
                    "live_iterations": state.backedges,
                    "replayed_iterations": state.replayed,
                    "iteration_cycles": record.cycles if record else None,
                    "replayed_cycles": state.replayed_cycles,
                    "verify_failures": state.empty_bursts,
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
