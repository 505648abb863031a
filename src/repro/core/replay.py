"""Steady-state loop replay: memoize warm loop iterations.

Once a benchmark loop reaches its steady state, every iteration drives
the machine through the *same* cycle-by-cycle evolution: the same
stalls, the same cache hits, the same bus arbitration — only the data
values stride.  This module exploits that by memoizing one iteration's
effect on the machine and then applying it arithmetically, iteration
after iteration, without simulating the cycles in between.

The protocol is **record → verify → engage**, keyed by loop backedge
target:

1. **Record.**  At a backward redirect (a loop backedge) the controller
   fingerprints the whole machine via the components'
   ``state_signature`` hooks (times relative to ``now``, sequence
   numbers relative to the allocator, LRU stamps reduced to rank order;
   data values excluded).  It then records one full iteration: the
   cycle and sequence-number deltas, the delta of *every* simulation
   counter (see :class:`StatsBook`), the issued instruction stream with
   outcomes, the data-engine event stream, and (when tracing) the raw
   trace-event batch.
2. **Verify.**  The next live iteration is recorded the same way and
   must reproduce the first record *exactly* — same cycles, same
   counter deltas, same instruction outcomes, same event shapes — and
   return the machine to the same signature.  Only then is the loop
   **engaged**.
3. **Replay.**  When a loop engages, each recorded instruction is
   bound once to a *step* ``(state, env) -> outcome`` — the handler the
   live kernel already used, from the per-instruction-value memo of
   :func:`repro.cpu.dispatch.handler_for` — and the record's counter
   delta is resolved into a *plan*
   of the nonzero counters it moves (:meth:`StatsBook.plan`).  On each
   further signature match the controller replays iterations
   arithmetically: a *shadow functional pass* runs the bound steps
   against copies of the register banks, a memory-write overlay, and
   the FIFO value chain of the load queues, checking every
   timing-relevant data dependence (branch outcomes, FPU-window
   addresses, store/load ordering-hazard counts).
   If anything differs the shadow is discarded and live simulation
   resumes from the untouched boundary state — divergence never needs
   a rollback.  On success the shadow's functional state is committed,
   queue entries are rotated through their FIFO chains, all timed
   state is shifted by the iteration's deltas (``replay_shift``), and
   every counter advances by its recorded delta (the plan).

Byte-identity invariants:

* counters are *never* recomputed during replay — the shadow pass is
  counter-silent and the recorded deltas are applied arithmetically,
  so results match the reference engine field for field;
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

from ..asm.program import WORD_BYTES
from ..cpu.dispatch import handler_for
from ..cpu.state import ArchState
from ..memory.fpu import (
    FPU_BASE,
    FPU_OPERAND_A,
    FPU_RESULT,
    FPU_SIZE,
    TRIGGER_OPERATIONS,
    float32_op,
    is_fpu_address,
)

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

    ``engine.fpu_core.operations_started`` is deliberately absent: the
    semantic FPU core is *functional* state, advanced by the shadow
    pass itself.
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
class _IterationRecord:
    """One memoized loop iteration (deltas plus replay inputs).

    ``steps`` (``(step, recorded outcome)`` per instruction) and
    ``plan`` (:meth:`StatsBook.plan` of ``delta``) are bound when the
    record engages (:meth:`ReplayController._bind`).
    """

    __slots__ = (
        "cycles",
        "seqs",
        "delta",
        "instrs",
        "events",
        "trace",
        "engageable",
        "sd_count",
        "steps",
        "plan",
    )

    def __init__(self, cycles, seqs, delta, instrs, events, trace, engageable):
        self.cycles = cycles
        self.seqs = seqs
        self.delta = delta
        self.instrs = instrs
        self.events = events
        self.trace = trace
        self.engageable = engageable
        self.sd_count = sum(1 for event in events if event[0] == "sd")
        self.steps: tuple | None = None
        self.plan: tuple | None = None

    def matches(self, other: "_IterationRecord") -> bool:
        return (
            self.cycles == other.cycles
            and self.seqs == other.seqs
            and self.delta == other.delta
            and self.instrs == other.instrs
            and self.events == other.events
            and self.trace == other.trace
        )


#: loop-state phases
_RECORD, _VERIFY, _ENGAGED, _DEAD = range(4)

_PHASE_NAMES = {
    _RECORD: "recording",
    _VERIFY: "verifying",
    _ENGAGED: "engaged",
    _DEAD: "abandoned",
}


class _LoopState:
    """Per-backedge-target replay state machine plus statistics."""

    __slots__ = (
        "phase",
        "sig",
        "candidate",
        "record",
        "fails",
        "restarts",
        "backedges",
        "sig_mismatches",
        "recorded",
        "replayed",
        "replayed_cycles",
        "divergences",
    )

    def __init__(self):
        self.phase = _RECORD
        self.sig = None
        self.candidate: _IterationRecord | None = None
        self.record: _IterationRecord | None = None
        self.fails = 0
        self.restarts = 0
        self.backedges = 0
        self.sig_mismatches = 0
        self.recorded = 0
        self.replayed = 0
        self.replayed_cycles = 0
        self.divergences = 0


class _Divergence(Exception):
    """The shadow pass cannot reproduce the recorded iteration."""


# ----------------------------------------------------------------------
# Shadow functional environment
# ----------------------------------------------------------------------
#: one past the FPU register window (:func:`is_fpu_address`, inlined)
_FPU_END = FPU_BASE + FPU_SIZE


class _ShadowEnv:
    """Executor environment for the counter-silent shadow pass.

    Mirrors :class:`~repro.cpu.data_engine.DataQueueEngine`'s functional
    semantics without touching the real engine: memory writes land in
    an overlay, the semantic FPU is a private copy, and LDQ pops are
    served from the FIFO *value chain* (current LDQ contents, then
    in-flight load values, then LAQ entry values, then loads pushed by
    this very iteration — exactly the order the live machine would pop
    them in).
    """

    __slots__ = (
        "memory",
        "overlay",
        "chain",
        "unc_addrs",
        "unc_data",
        "fpu_operand_a",
        "fpu_results",
        "fpu_ops",
        "fpu_last",
        "laq_pushes",
        "saq_pushes",
        "sdq_pushes",
    )

    def __init__(self, engine):
        self.memory = engine.memory
        self.overlay: dict[int, int] = {}
        self.chain: deque[int] = deque(engine.ldq._items)
        self.chain.extend(flight.value for flight in engine._in_flight_loads)
        self.chain.extend(entry.value for entry in engine.laq)
        self.unc_addrs = deque(engine._uncommitted_addresses)
        self.unc_data = deque(engine._uncommitted_data)
        core = engine.fpu_core
        self.fpu_operand_a = core._operand_a
        self.fpu_results = deque(core._results)
        self.fpu_ops = 0
        self.fpu_last: str | None = None
        self.laq_pushes: list[int] = []
        self.saq_pushes: list[int] = []
        self.sdq_pushes: list[int] = []

    # -- functional memory ------------------------------------------------
    # Each access is word-aligned and lies in the FPU window or inside
    # the memory image; anything else diverges.
    def _read(self, address: int) -> int:
        if address % WORD_BYTES:
            raise _Divergence
        if FPU_BASE <= address < _FPU_END:
            if address != FPU_RESULT or not self.fpu_results:
                raise _Divergence
            return self.fpu_results.popleft()
        if address + WORD_BYTES > len(self.memory):
            raise _Divergence
        value = self.overlay.get(address)
        if value is not None:
            return value
        return int.from_bytes(self.memory[address : address + WORD_BYTES], "little")

    def _write(self, address: int, value: int) -> None:
        if address % WORD_BYTES:
            raise _Divergence
        if FPU_BASE <= address < _FPU_END:
            if address == FPU_OPERAND_A:
                self.fpu_operand_a = value & 0xFFFFFFFF
                return
            kind = TRIGGER_OPERATIONS.get(address)
            if kind is None:
                raise _Divergence
            self.fpu_results.append(float32_op(kind, self.fpu_operand_a, value))
            self.fpu_ops += 1
            self.fpu_last = kind
            return
        if address + WORD_BYTES > len(self.memory):
            raise _Divergence
        self.overlay[address] = value & 0xFFFFFFFF

    def _commit_pending(self) -> None:
        while self.unc_addrs and self.unc_data:
            self._write(self.unc_addrs.popleft(), self.unc_data.popleft())

    # -- ExecutionEnv protocol --------------------------------------------
    def pop_ldq(self) -> int:
        if not self.chain:
            raise _Divergence
        return self.chain.popleft()

    def push_laq(self, address: int) -> None:
        if address in self.unc_addrs:
            raise _Divergence  # live execution would raise for real
        value = self._read(address)
        self.chain.append(value)
        self.laq_pushes.append(address)

    def push_saq(self, address: int) -> None:
        self.saq_pushes.append(address)
        self.unc_addrs.append(address)
        self._commit_pending()

    def push_sdq(self, value: int) -> None:
        self.sdq_pushes.append(value)
        self.unc_data.append(value)
        self._commit_pending()


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
        self._issue_buf: list = []
        self._engine_buf: list = []
        self._trace_buf: list = []
        self._shadow_arch = ArchState()

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
        if len(self._issue_buf) > self.MAX_ITERATION_INSTRUCTIONS:
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
        self._issue_buf.clear()
        sim.backend.issue_log = self._issue_buf
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
        sim.backend.issue_log = None
        sim.engine.replay_log = None
        if self.traced:
            sim.tracer.record = None

    def _finish_recording(self, now: int) -> tuple:
        """Close the active recording; returns ``(record|None, end_sig)``."""
        sim = self.sim
        instrs = tuple(sim.backend.issue_log)
        raw_events = tuple(sim.engine.replay_log)
        raw_trace = tuple(self._trace_buf) if self.traced else None
        self._abort_recording()
        sig_end = machine_signature(sim, now)
        if len(instrs) > self.MAX_ITERATION_INSTRUCTIONS:
            return None, sig_end
        cycles = now - self._rec_now
        seqs = sim.seq.value - self._rec_seq
        base_seq = self._rec_seq
        base_now = self._rec_now
        events = []
        for event in raw_events:
            kind = event[0]
            if kind == "laq":
                _kind, address, seq, hazards = event
                fpu = address if is_fpu_address(address) else None
                events.append(("laq", seq - base_seq, fpu, hazards))
            elif kind == "saq":
                _kind, address, seq = event
                fpu = address if is_fpu_address(address) else None
                events.append(("saq", seq - base_seq, fpu))
            elif kind == "sdq":
                events.append(("sdq", event[2] - base_seq))
            else:
                events.append(("sd",))
        trace = None
        if raw_trace is not None:
            trace = tuple(
                (cycle - base_now, component, kind, fields)
                for cycle, component, kind, fields in raw_trace
            )
        delta = self.book.diff(self._rec_vector, self.book.snapshot())
        record = _IterationRecord(
            cycles=cycles,
            seqs=seqs,
            delta=delta,
            instrs=instrs,
            events=tuple(events),
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
        if state.candidate.matches(record) and record.engageable:
            self._bind(record)
            state.record = record
            state.phase = _ENGAGED
            return
        state.fails += 1
        state.candidate = record
        if state.fails >= self.VERIFY_LIMIT:
            state.phase = _DEAD

    def _bind(self, record: _IterationRecord) -> None:
        """Bind an engaging record once for every iteration it replays:
        each instruction to its step, the counter delta to its plan."""
        record.steps = tuple(
            (handler_for(instruction), outcome)
            for _tag, _pc, instruction, outcome in record.instrs
        )
        record.plan = self.book.plan(record.delta)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _burst(self, state: _LoopState, now: int) -> int:
        """Replay as many iterations as the shadow pass can confirm."""
        record = state.record
        sim = self.sim
        max_cycles = sim.config.max_cycles
        cycles = record.cycles
        replayed = 0
        while now + cycles <= max_cycles:
            env = self._shadow_iteration(record)
            if env is None:
                state.divergences += 1
                break
            self._commit(record, env)
            if self.traced:
                self._emit_batch(record.trace, now)
            now += cycles
            replayed += 1
        state.replayed += replayed
        state.replayed_cycles += replayed * cycles
        return now

    def _shadow_iteration(self, record: _IterationRecord):
        """Functionally execute one iteration off to the side by running
        the record's bound steps.

        Returns the shadow environment on success, ``None`` on any
        divergence from the recorded iteration (in which case nothing
        was mutated and live simulation can resume at the boundary).
        """
        sim = self.sim
        engine = sim.engine
        real = sim.backend.state
        shadow = self._shadow_arch
        shadow._foreground[:] = real._foreground
        shadow._background[:] = real._background
        shadow._branch[:] = real._branch
        env = _ShadowEnv(engine)
        try:
            for step, recorded in record.steps:
                outcome = step(shadow, env)
                if outcome is not recorded and outcome != recorded:
                    return None
        except _Divergence:
            return None
        except (ValueError, IndexError, RuntimeError):
            # Live execution would raise for real; let it.
            return None
        if shadow._branch != real._branch:
            # A data-dependent branch-register write: the next
            # iteration would redirect elsewhere.
            return None
        # The boundary queue shapes must be conserved (pushes == pops
        # along every FIFO) for the chain partition below to hold.
        if len(env.chain) != (
            len(engine.ldq) + len(engine._in_flight_loads) + len(engine.laq)
        ):
            return None
        if len(env.unc_addrs) != len(engine._uncommitted_addresses) or len(
            env.unc_data
        ) != len(engine._uncommitted_data):
            return None
        if not self._check_events(record, env):
            return None
        return env

    def _check_events(self, record: _IterationRecord, env: _ShadowEnv) -> bool:
        """Validate the shadow pass against the recorded event stream.

        Checks the timing-relevant data dependences: FPU-window
        addressing (routes to a different unit with different latency)
        and store/load ordering-hazard counts (an exact counter in the
        results).  Store departures are interleaved in recorded order
        to reconstruct the SAQ contents each load saw.
        """
        shadow_saq = deque(entry.address for entry in self.sim.engine.saq)
        laq_pushes = env.laq_pushes
        saq_pushes = env.saq_pushes
        i_laq = i_saq = i_sdq = 0
        for event in record.events:
            kind = event[0]
            if kind == "laq":
                if i_laq >= len(laq_pushes):
                    return False
                address = laq_pushes[i_laq]
                i_laq += 1
                fpu = event[2]
                if is_fpu_address(address):
                    if address != fpu:
                        return False
                elif fpu is not None:
                    return False
                hazards = 0
                for pending in shadow_saq:
                    if pending == address:
                        hazards += 1
                if hazards != event[3]:
                    return False
            elif kind == "saq":
                if i_saq >= len(saq_pushes):
                    return False
                address = saq_pushes[i_saq]
                i_saq += 1
                fpu = event[2]
                if is_fpu_address(address):
                    if address != fpu:
                        return False
                elif fpu is not None:
                    return False
                shadow_saq.append(address)
            elif kind == "sdq":
                i_sdq += 1
            else:  # "sd"
                if not shadow_saq:
                    return False
                shadow_saq.popleft()
        return (
            i_laq == len(laq_pushes)
            and i_saq == len(saq_pushes)
            and i_sdq == len(env.sdq_pushes)
        )

    def _commit(self, record: _IterationRecord, env: _ShadowEnv) -> None:
        """Adopt one confirmed shadow iteration into the live machine."""
        sim = self.sim
        engine = sim.engine
        backend = sim.backend
        seqs = record.seqs
        cycles = record.cycles
        # Functional register state (values copied in place so every
        # live reference to the banks stays valid).
        real = backend.state
        shadow = self._shadow_arch
        real._foreground[:] = shadow._foreground
        real._background[:] = shadow._background
        # Functional memory and the semantic FPU core.
        memory = engine.memory
        for address, value in env.overlay.items():
            memory[address : address + WORD_BYTES] = value.to_bytes(
                WORD_BYTES, "little"
            )
        core = engine.fpu_core
        core._operand_a = env.fpu_operand_a
        core._results = env.fpu_results
        if env.fpu_ops:
            core.operations_started += env.fpu_ops
            core.last_operation = env.fpu_last
        # Rotate the load value chain one iteration forward: the same
        # FIFO positions hold the next iteration's values.
        chain = env.chain
        ldq_items = engine.ldq._items
        for i in range(len(ldq_items)):
            ldq_items[i] = chain.popleft()
        for flight in engine._in_flight_loads:
            flight.value = chain.popleft()
        accepted = len(env.laq_pushes)  # LAQ departures per iteration
        laq_addrs = [entry.address for entry in engine.laq]
        laq_addrs.extend(env.laq_pushes)
        for entry, address in zip(engine.laq, laq_addrs[accepted:]):
            entry.address = address
            entry.value = chain.popleft()
            entry.seq += seqs
        # Rotate the store queues by the recorded departure count.
        departed = record.sd_count
        saq_addrs = [entry.address for entry in engine.saq]
        saq_addrs.extend(env.saq_pushes)
        for entry, address in zip(engine.saq, saq_addrs[departed:]):
            entry.address = address
            entry.seq += seqs
        sdq_values = [entry.value for entry in engine.sdq]
        sdq_values.extend(env.sdq_pushes)
        for entry, value in zip(engine.sdq, sdq_values[departed:]):
            entry.value = value
            entry.seq += seqs
        engine._uncommitted_addresses = env.unc_addrs
        engine._uncommitted_data = env.unc_data
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
