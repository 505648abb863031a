"""Unit tests for the steady-state replay engine's foundations.

Covers the satellite guarantees of the replay work: ``state_signature``
is pure (fingerprinting never perturbs the machine), equal machine
states produce equal (and equal-hashing) signatures, and the
:class:`~repro.core.replay.StatsBook` counter ledger is *complete* —
it covers every counter a simulation reports and fails loudly when a
stats object grows a field it cannot delta.  A second machine on the
same program reads the first one's issue stream and compiles nothing,
and each guard replay takes is shown to be load-bearing: with it
disabled, a program that needs it times wrongly.  That is the four
guards a replayed iteration passes and the machine-signature equality
that lets a loop engage and replay.  More rows give the FPU guard a
trip that differs in a load and the hazard guard trips whose counts go
1 → 0, 2 → 1 and 1 → 2, so its recount of a nonzero count has rows to
fail as well as its gap check for a count of 0, and that check reads a
saturated gap as a hazard in a window too wide to tell.  Every
headline loop engages on its first recording that ends on the signature
it started from.  A burst confirms, a chunk of iterations at a time,
exactly the iterations a walk one iteration at a time confirms, in
O(log k) chunks.  It commits once, and that one commit of ``k``
iterations equals ``k`` commits of one.
"""

import dataclasses
import math
import types
from array import array
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core import replay
from repro.core.compiled import compile_stats
from repro.core.config import MachineConfig
from repro.core.fuzz import FUZZ_CONFIGS, check_workload
from repro.core.replay import MAX_FIELDS, ReplayController, StatsBook, machine_signature
from repro.core.scheduler import ENGINES
from repro.core.simulator import Simulator
from repro.cpu.data_engine import DataQueueEngine
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.stream import FAR
from repro.kernels.serialize import workload_from_json
from repro.kernels.suite import build_livermore_program
from repro.memory.fpu import is_fpu_address
from repro.memory.system import MemorySystem

ROW = dict(ENGINES)

#: the corpus entry that needs the machine-signature guard
SIGNATURE_ENTRY = Path(__file__).parent / "corpus" / "signature-guard.json"


@pytest.fixture(scope="module")
def loop_program():
    return build_livermore_program(scale=0.05, loops=(3,))


@pytest.fixture(scope="module")
def suite_program():
    return build_livermore_program(scale=0.05)


CONFIGS = {
    "pipe": MachineConfig.pipe("16-16", 128, memory_access_time=6),
    "conventional": MachineConfig.conventional(128, memory_access_time=16),
    "tib": MachineConfig.tib(memory_access_time=6),
}

#: the paper's headline machines: conventional and PIPE 16-32 at a 32 B
#: cache on a 4 B bus, and PIPE 16-16 at 128 B
HEADLINE = {
    "conventional-32B": MachineConfig.conventional(
        32, memory_access_time=6, input_bus_width=4
    ),
    "pipe-16-32-32B": MachineConfig.pipe(
        "16-32", 32, memory_access_time=6, input_bus_width=4
    ),
    "pipe-16-16-128B": MachineConfig.pipe("16-16", 128, memory_access_time=6),
}


def _step(sim: Simulator, cycles: int, now: int = 0) -> int:
    """Drive the machine through the reference per-cycle phase order."""
    for _ in range(cycles):
        sim.memory.begin_cycle(now)
        sim.engine.update(now)
        sim.frontend.update(now)
        sim.backend.step(now)
        if sim.backend.halted:
            sim.frontend.halt()
        sim.frontend.post_issue(now)
        sim.memory.end_cycle(now)
        now += 1
    return now


# ----------------------------------------------------------------------
# Signature purity and stability
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_signature_is_pure(name, loop_program):
    """Fingerprinting mid-run must not change any machine state.

    Machine A is fingerprinted every cycle, machine B never; after the
    same number of cycles both machines must be in identical states,
    produce identical counter snapshots and read the issue stream at
    the same places — whose values, at the end of the program, are the
    functional simulator's.
    """
    config = CONFIGS[name]
    sim_a = Simulator(config, loop_program, skip=False)
    sim_b = Simulator(config, loop_program, skip=False)
    book_a, book_b = StatsBook(sim_a), StatsBook(sim_b)
    now_a = now_b = 0
    for _ in range(200):
        now_a = _step(sim_a, 1, now_a)
        machine_signature(sim_a, now_a)
        machine_signature(sim_a, now_a)  # repeated calls included
        now_b = _step(sim_b, 1, now_b)
    assert machine_signature(sim_a, now_a) == machine_signature(sim_b, now_b)
    assert book_a.snapshot() == book_b.snapshot()
    assert _cursors(sim_a) == _cursors(sim_b)
    stream = sim_a.backend.stream
    assert sim_b.backend.stream is stream
    stream.finish()
    functional = FunctionalSimulator(loop_program)
    functional.run()
    assert stream.state.snapshot() == functional.state.snapshot()


def _cursors(sim: Simulator) -> tuple:
    backend = sim.backend
    return (
        backend.instructions,
        backend.next_branch,
        backend.next_load,
        backend.next_store,
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_signature_repeated_calls_equal_and_hashable(name, loop_program):
    """The same state must fingerprint identically, with a stable hash."""
    sim = Simulator(CONFIGS[name], loop_program, skip=False)
    now = _step(sim, 150)
    first = machine_signature(sim, now)
    second = machine_signature(sim, now)
    assert first == second
    assert hash(first) == hash(second)


def test_signature_equal_across_machines(loop_program):
    """Two identically-driven machines fingerprint identically each cycle."""
    config = CONFIGS["pipe"]
    sim_a = Simulator(config, loop_program, skip=False)
    sim_b = Simulator(config, loop_program, skip=False)
    now = 0
    for _ in range(120):
        now_a = _step(sim_a, 1, now)
        now_b = _step(sim_b, 1, now)
        assert now_a == now_b
        now = now_a
        assert machine_signature(sim_a, now) == machine_signature(sim_b, now)


# ----------------------------------------------------------------------
# StatsBook completeness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stats_book_covers_every_result_counter(name, loop_program):
    """Every counter surfaced by SimulationResult must be in the ledger.

    This is the tripwire for new stats: a counter added to a dataclass
    is picked up automatically (or rejected at construction), and this
    test pins the plain-attribute manifests.
    """
    sim = Simulator(CONFIGS[name], loop_program)
    book = StatsBook(sim)
    labels = set(book.labels)
    expected = {
        "backend.instructions",
        "backend.branches",
        "backend.branches_taken",
        "backend.stalls",
        "memory.external.total_accepted",
        "memory.external.busy_cycles",
        "memory.fpu.operations_started",
        "memory.fpu.results_delivered",
        "cache.hits",
        "cache.misses",
        "cache.fills",
        "cache.line_replacements",
        "mem.acceptance_conflicts",
        "mem.by_source_bytes",
        "engine.ordering_hazards",
        "engine.ldq_max_wait_entries",
        "fetch.instructions_supplied",
        "fetch.redirects",
        "fetch.squashed_instructions",
    }
    expected |= {
        f"queue.{q}.{c}"
        for q in ("LAQ", "LDQ", "SAQ", "SDQ")
        for c in ("total_pushes", "total_pops", "max_occupancy")
    }
    missing = expected - labels
    assert not missing, f"StatsBook lost counters: {sorted(missing)}"
    # Every dataclass field of every stats object must be present.
    for prefix, stats in (
        ("fetch", sim.frontend.stats),
        ("cache", sim.cache.stats),
        ("mem", sim.memory.stats),
        ("engine", sim.engine.stats),
    ):
        for field in dataclasses.fields(stats):
            assert f"{prefix}.{field.name}" in labels


def test_stats_book_rejects_unknown_field_type(loop_program):
    """A stats field the book cannot delta must fail construction."""
    sim = Simulator(CONFIGS["pipe"], loop_program)

    @dataclasses.dataclass
    class GrownStats:
        hits: int = 0
        label: str = "not-a-counter"

    sim.cache.stats = GrownStats()
    with pytest.raises(RuntimeError, match="cannot account for counter"):
        StatsBook(sim)


def test_stats_book_rejects_bool_counters(loop_program):
    sim = Simulator(CONFIGS["pipe"], loop_program)

    @dataclasses.dataclass
    class FlagStats:
        warmed_up: bool = False

    sim.cache.stats = FlagStats()
    with pytest.raises(RuntimeError, match="cannot account for counter"):
        StatsBook(sim)


def test_stats_book_diff_apply_roundtrip(loop_program):
    """diff() captures counter movement; applying its plan reproduces it
    exactly.  The plan names only the counters that moved: zero deltas
    and max-style counters are left out."""
    sim = Simulator(CONFIGS["pipe"], loop_program)
    book = StatsBook(sim)
    before = book.snapshot()
    backend = sim.backend
    engine = sim.engine
    by_source = sim.memory.stats.by_source_bytes
    backend.instructions += 7
    backend.stalls["frontend_empty"] += 3
    engine.stats.ordering_hazards += 2
    by_source["icache"] = 64
    engine.laq.total_pushes += 5
    after = book.snapshot()
    delta = book.diff(before, after)
    assert book.max_deltas_zero(delta)
    plan = book.plan(delta)
    fields, items = plan
    assert {(id(obj), name, d) for obj, name, d in fields} == {
        (id(backend), "instructions", 7),
        (id(engine.stats), "ordering_hazards", 2),
        (id(engine.laq), "total_pushes", 5),
    }
    assert {(id(target), key, d) for target, key, d in items} == {
        (id(backend.stalls), "frontend_empty", 3),
        (id(by_source), "icache", 64),
    }
    book.apply(plan, 1)
    doubled = book.snapshot()
    assert book.diff(after, doubled) == delta
    assert backend.instructions == 14
    assert backend.stalls["frontend_empty"] == 6
    assert by_source["icache"] == 128
    # A max-style counter that moved (which blocks engagement) is not
    # in the plan either.
    engine.laq.max_occupancy += 1
    engine.stats.ldq_max_wait_entries += 1
    moved = book.diff(doubled, book.snapshot())
    assert not book.max_deltas_zero(moved)
    assert book.plan(moved) == ((), ())
    # k iterations at once move each counter by k deltas.
    book.apply(plan, 3)
    assert backend.instructions == 35
    assert backend.stalls["frontend_empty"] == 15
    assert by_source["icache"] == 320


def test_stats_book_flags_moving_max_counters(loop_program):
    """A max-style counter that moved blocks engagement."""
    sim = Simulator(CONFIGS["pipe"], loop_program)
    book = StatsBook(sim)
    before = book.snapshot()
    sim.engine.stats.ldq_max_wait_entries += 1
    delta = book.diff(before, book.snapshot())
    assert not book.max_deltas_zero(delta)
    assert "ldq_max_wait_entries" in " ".join(sorted(MAX_FIELDS))


# ----------------------------------------------------------------------
# Controller bookkeeping
# ----------------------------------------------------------------------
def test_loop_reports_shape(suite_program):
    """On each headline machine, every loop engages on the first
    recording that returns the machine to the signature it started from,
    and bursts at that backedge to the loop's end: two live backedges
    (one opens the recording, one closes it), plus one per recording
    that did not engage."""
    keys = {
        "target",
        "phase",
        "live_iterations",
        "replayed_iterations",
        "iteration_cycles",
        "replayed_cycles",
        "verify_failures",
        "signature_restarts",
        "signature_mismatches",
        "divergences",
    }
    for name, config in HEADLINE.items():
        sim = Simulator(config, suite_program, skip=True)
        result = sim.run()
        controller = sim.replay_controller
        assert isinstance(controller, ReplayController)
        reports = controller.loop_reports()
        assert len(reports) == 14, name
        for report in reports:
            assert set(report) == keys
            assert report["phase"] == "engaged", (name, report)
            assert report["live_iterations"] == 2 + report["signature_restarts"], (
                name,
                report,
            )
            assert report["iteration_cycles"] * report["replayed_iterations"] == (
                report["replayed_cycles"]
            )
        assert any(report["signature_restarts"] == 0 for report in reports), name
        replayed = sum(report["replayed_cycles"] for report in reports)
        assert replayed == controller.replayed_cycles < result.cycles, name


# ----------------------------------------------------------------------
# One issue stream per program
# ----------------------------------------------------------------------
def test_second_machine_builds_no_stream_and_compiles_nothing(loop_program):
    """The functional pass runs once per program: a second machine (the
    first one's config family, another cache size) reads the stream the
    first one built, extends it by nothing, and moves only the kernel
    cache-hit counter."""
    config = CONFIGS["pipe"]
    first = Simulator(config, loop_program, **ROW["compiled"])
    result = first.run()
    stream = loop_program.issue_stream
    assert first.backend.stream is stream
    recorded = (stream.length, stream.end, len(stream.loads), len(stream.branches))
    before = compile_stats()
    second = Simulator(
        config.with_overrides(icache_size=64), loop_program, **ROW["compiled"]
    )
    assert second.backend.stream is stream
    assert second.run().cycles != result.cycles
    assert (stream.length, stream.end, len(stream.loads), len(stream.branches)) == (
        recorded
    )
    after = compile_stats()
    moved = {key: after[key] - before[key] for key in after if after[key] != before[key]}
    assert moved == {"kernel_cache_hits": 1}


# ----------------------------------------------------------------------
# The four replay guards are load-bearing
# ----------------------------------------------------------------------
#: the guards a replayed iteration passes, in the order they run
GUARDS = (
    "_stream_continues",
    "_branches_match",
    "_fpu_accesses_match",
    "_hazards_match",
)

GUARD_MACHINE = MachineConfig.pipe("16-16", 128, memory_access_time=6)

#: iterations of each guard program's loop, and the one whose data
#: differs from its neighbours'
TRIPS = 40
ODD_TRIP = 30


def _table(odd: str, entries: int = TRIPS, usual: str | None = None) -> str:
    """A ``.word`` list of ``scratch`` addresses (or of ``usual``), with
    ``odd`` at :data:`ODD_TRIP`."""
    return ", ".join(
        odd if trip == ODD_TRIP else usual or f"scratch + {4 * trip}"
        for trip in range(entries)
    )


#: a loop with no data accesses, then more arithmetic: only the branch
#: entries tell the loop's exit from another trip
BRANCH_PROGRAM = (
    "    li r1, 60\n"
    "    lbr b0, loop\n"
    "loop:\n"
    "    subi r1, r1, 1\n"
    "    pbrne b0, r1, 1\n"
    "    nop\n" + "    addi r2, r2, 1\n" * 12 + "    halt\n"
)

#: each trip stores to the address in its table entry; one entry is the
#: FPU's operand register, which the FPU accepts instead of memory
FPU_PROGRAM = f"""
    li r1, 0
    li r5, {4 * TRIPS}
    lbr b0, loop
loop:
    ld r1, table
    addi r1, r1, 4
    popq r2
    st r2, 0
    pushq r1
    sub r3, r1, r5
    pbrne b0, r3, 1
    nop
    halt
table: .word {_table("0xF000")}
scratch: .space {4 * TRIPS}
"""

#: an FPU operation is started before the loop, and each trip loads
#: from its table entry; one entry is the FPU's result register, so
#: that trip's load is routed to the FPU and takes the result
FPU_LOAD_PROGRAM = f"""
    li r6, 0x7800
    slli r6, r6, 1
    st r6, 0
    pushq r0
    st r6, 4
    pushq r0
    li r1, 0
    li r5, {4 * TRIPS}
    lbr b0, loop
loop:
    ld r1, table
    addi r1, r1, 4
    popq r2
    ld r2, 0
    popq r4
    sub r3, r1, r5
    pbrne b0, r3, 1
    nop
    halt
table: .word {_table("0xF020")}
scratch: .space {4 * TRIPS}
"""


def _hazard_program(table: str) -> str:
    """Each trip queues two stores, then loads from its ``table`` entry
    while the second store, to ``spot``, still waits in the SAQ."""
    return f"""
    li r1, 0
    li r5, {4 * TRIPS}
    lbr b0, loop
    ld r1, table
loop:
    addi r1, r1, 4
    popq r2
    st r0, dummy
    pushq r1
    st r0, spot
    pushq r1
    ld r2, 0
    ld r1, table
    popq r4
    sub r3, r1, r5
    pbrne b0, r3, 1
    nop
    popq r2
    halt
dummy: .word 0
spot: .word 0
table: .word {table}
scratch: .space {4 * TRIPS + 4}
"""


def _two_hazard_program(table: str) -> str:
    """Each trip queues two stores behind a load that holds the memory
    port, the first to ``spot`` and the second to its ``table`` entry,
    then loads from ``spot`` while both still wait in the SAQ."""
    return f"""
    li r1, 0
    li r5, {4 * TRIPS}
    lbr b0, loop
loop:
    ld r1, table
    addi r1, r1, 4
    popq r2
    ld r0, dummy
    st r0, spot
    pushq r1
    st r2, 0
    pushq r1
    ld r0, spot
    popq r4
    popq r4
    sub r3, r1, r5
    pbrne b0, r3, 1
    nop
    halt
dummy: .word 0
spot: .word 0
elsewhere: .word 0
table: .word {table}
"""


#: one entry is ``spot``, so that trip's load is an ordering hazard
HAZARD_PROGRAM = _hazard_program(_table("spot", TRIPS + 1))
#: every entry is ``spot``, for two hazards, but one entry moves the
#: second store elsewhere, and that trip's load overlaps one store
TWO_HAZARD_PROGRAM = _two_hazard_program(_table("elsewhere", usual="spot"))

#: each trip stores to its table entry, the data issuing last, in the
#: delay slot; one entry is unaligned, so that trip's data raises
END_PROGRAM = f"""
    li r1, 0
    li r5, {4 * TRIPS}
    lbr b0, loop
loop:
    nop
    ld r1, table
    addi r1, r1, 4
    popq r2
    sub r3, r1, r5
    st r2, 0
    pbrne b0, r3, 1
    pushq r1
    halt
table: .word {_table("scratch + 2")}
scratch: .space {4 * TRIPS}
"""


#: each guard's program, and the error its run raises (or ``None``)
GUARD_PROGRAMS = {
    "_stream_continues": (END_PROGRAM, "ValueError"),
    "_branches_match": (BRANCH_PROGRAM, None),
    "_fpu_accesses_match": (FPU_PROGRAM, None),
    "_hazards_match": (HAZARD_PROGRAM, None),
}

#: the rows of the load-bearing test: (guard, program, error), one per
#: guard; an FPU row whose odd trip differs in a load, not a store; and
#: more hazard rows, named ``-<hazards>-<odd hazards>`` for the most
#: ordering hazards a recorded load meets and what the odd trip's meets
#: (the first row's are 0 and 1): the gap check for 0 hazards and the
#: recount of 1 or 2 have rows to fail
LOAD_BEARING = {
    **{guard: (guard, *GUARD_PROGRAMS[guard]) for guard in GUARDS},
    "_fpu_accesses_match-load": ("_fpu_accesses_match", FPU_LOAD_PROGRAM, None),
    "_hazards_match-1-0": (
        "_hazards_match",
        _hazard_program(_table("scratch", TRIPS + 1, usual="spot")),
        None,
    ),
    "_hazards_match-2-1": ("_hazards_match", TWO_HAZARD_PROGRAM, None),
    "_hazards_match-1-2": (
        "_hazards_match",
        _two_hazard_program(_table("spot", usual="elsewhere")),
        None,
    ),
}
#: the most hazards a recorded load meets, per hazard row
RECORDED_HAZARDS = {
    "_hazards_match": 0,
    "_hazards_match-1-0": 1,
    "_hazards_match-2-1": 2,
    "_hazards_match-1-2": 1,
}


def _outcome(program, row: str, config: MachineConfig = GUARD_MACHINE):
    """The result dict, or the ``(type, message)`` of the error the run
    raised, plus the simulator.  Those are the errors an instruction
    raises and the machine's own (a deadlock, a timeout, a desync); any
    other, such as a test wrapper called with the wrong arguments,
    propagates."""
    sim = Simulator(config, program, **ROW[row])
    try:
        return sim.run().to_dict(), sim
    except (ValueError, IndexError, RuntimeError) as error:
        return (type(error).__name__, str(error)), sim


@pytest.mark.parametrize("case", list(LOAD_BEARING))
def test_replay_guard_is_load_bearing(case, monkeypatch):
    """Each guard alone keeps replay from timing its program wrongly.

    Guarded, the compiled row replays the loop and matches the
    reference row (the end program raises on both).  With the one guard
    overruled — it still runs, so the stream is still extended, but its
    verdict is ignored — the odd trip is replayed as the recorded one
    and the rows disagree.  Each hazard row's record holds the hazard
    counts its id names.
    """
    guard, source, raises = LOAD_BEARING[case]
    program = assemble(source)
    reference, _sim = _outcome(program, "reference")
    if raises is not None:
        assert reference[0] == raises
    guarded, sim = _outcome(program, "compiled")
    assert guarded == reference
    (top,) = sim.replay_controller.loop_reports()
    assert top["replayed_iterations"] > ODD_TRIP / 2 and top["divergences"] >= 1
    if case in RECORDED_HAZARDS:
        (state,) = sim.replay_controller.loops.values()
        counts = [count for *_window, count in state.record.windows]
        assert max(counts) == RECORDED_HAZARDS[case]

    check = getattr(ReplayController, guard)

    def overruled(self, record, stream, at, n):
        check(self, record, stream, at, n)
        return True

    monkeypatch.setattr(ReplayController, guard, overruled)
    unguarded, _sim = _outcome(program, "compiled")
    assert unguarded != reference


def test_signature_guard_is_load_bearing(monkeypatch):
    """Signature equality alone keeps replay from timing this corpus
    entry wrongly (``test_fuzz`` checks it clean with the guard on).
    With every machine fingerprinting as ``()``, a loop engages and
    replays from backedges whose machine state differs from the recorded
    one, and the case reports the compiled row's cycles and stats
    against the reference loop's."""
    kernel, arrays, _metadata = workload_from_json(SIGNATURE_ENTRY.read_text())
    config = FUZZ_CONFIGS["pipe-16-16-slow-mem"]()
    monkeypatch.setattr(replay, "machine_signature", lambda sim, now: ())
    problems = check_workload(kernel, arrays, config)
    assert problems and all(problem.startswith("[compiled] ") for problem in problems)
    assert any(problem.startswith("[compiled] cycles ") for problem in problems)


def test_saq_windows_follow_the_queue():
    """Each load's SAQ window, relative to the store cursor: it opens on
    the ``queued`` stores below the cursor, each push widens it at the
    top and each departure narrows it at the bottom."""
    events = [("laq", 1), ("saq",), ("laq", 0), ("sd",), ("laq", 2)]
    assert replay._saq_windows(events, 2) == (
        (0, -2, 0, 1),
        (1, -2, 1, 0),
        (2, -1, 1, 2),
    )


@pytest.mark.parametrize("width", [1, FAR - 1, FAR, FAR + 40])
def test_a_saturated_gap_clears_only_a_narrower_window(width):
    """``near`` saturates at ``FAR``, so a load from an address never
    stored to reads ``FAR``.  A window narrower than that passes the
    gap check; one as wide or wider cannot tell a far store from none,
    so it fails it, which stops replay and never mistimes."""
    stream = types.SimpleNamespace(
        loads=array("I", [64]), stores=array("I"), near=bytearray([FAR])
    )
    record = types.SimpleNamespace(loads=[0], stores=[], windows=((0, -width, 0, 0),))
    holds = ReplayController._hazards_match(None, record, stream, (0, 0, 0, 0), 1)
    assert holds == (width < FAR)


def test_saq_holds_the_newest_stores_at_every_burst(suite_program, monkeypatch):
    """The hazard guard's SAQ windows rest on this: at every burst
    entry the SAQ holds the newest stores issued, in issue order, so
    its addresses are the stream's stores just below the store cursor.

    So does the window-end invariant that lets it clear a load of
    hazards from the stream's store gaps: at every load the reference
    loop pushes, the SAQ's stores to the load's address are its nearest
    ones, so the engine counts a hazard exactly when the load's ``near``
    gap is at most the SAQ's length.
    """
    burst = ReplayController._burst
    queued = []

    def checked(self, state, now):
        backend = self.sim.backend
        saq = [entry.address for entry in self.sim.engine.saq]
        at = backend.next_store
        assert saq == list(backend.stream.stores[at - len(saq) : at])
        queued.append(len(saq))
        return burst(self, state, now)

    monkeypatch.setattr(ReplayController, "_burst", checked)
    for name, config in HEADLINE.items():
        count = len(queued)
        Simulator(config, suite_program, **ROW["compiled"]).run()
        assert len(queued) > count, f"{name} never replayed"
    assert any(queued), "no burst started with a store queued"

    push_laq = DataQueueEngine.push_laq
    hazards = {}

    # ``stream`` and ``loads`` (the loads pushed so far) are set per run
    def gapped(self, address):
        index = loads[0]
        loads[0] += 1
        assert stream.loads[index] == address
        count = sum(entry.address == address for entry in self.saq)
        assert (count > 0) == (stream.near[index] <= len(self.saq)), (index, count)
        hazards[count] = hazards.get(count, 0) + 1
        push_laq(self, address)

    monkeypatch.setattr(DataQueueEngine, "push_laq", gapped)
    runs = [(config, suite_program) for config in HEADLINE.values()]
    runs += [
        (GUARD_MACHINE, assemble(LOAD_BEARING[case][1])) for case in RECORDED_HAZARDS
    ]
    for config, program in runs:
        stream = program.issue_stream
        loads = [0]
        _outcome(program, "reference", config)
        assert loads[0] == len(stream.loads)
    assert set(hazards) == {0, 1, 2}


# ----------------------------------------------------------------------
# The gallop confirms what a walk one iteration at a time confirms
# ----------------------------------------------------------------------
def _walk(record, stream, at: tuple, budget: int) -> int:
    """How many iterations from the cursors ``at`` pass the four guards
    checked one iteration at a time, as the walk before the gallop
    checked them: the FPU tags derived from the addresses, and each
    load's hazards recounted over its SAQ window of the stream's
    stores."""
    issued, branch, load, store = at
    loads, stores = stream.loads, stream.stores
    per_branch, per_load, per_store = (
        len(record.branches),
        len(record.loads),
        len(record.stores),
    )

    def tags(addresses):
        return [address if is_fpu_address(address) else 0 for address in addresses]

    k = 0
    while k < budget and not (
        stream.ends_before(issued + record.instructions)
        or stream.branches[branch : branch + per_branch] != record.branches
        or tags(loads[load : load + per_load]) != list(record.loads)
        or tags(stores[store : store + per_store]) != list(record.stores)
        or any(
            stores[store + start : store + end].count(loads[load + offset]) != count
            for offset, start, end, count in record.windows
        )
    ):
        issued += record.instructions
        branch += per_branch
        load += per_load
        store += per_store
        k += 1
    return k


def _most_probes(k: int) -> float:
    """The chunks a burst of ``k`` iterations may probe."""
    return 4 * math.log2(k + 1) + 4


@pytest.mark.parametrize("case", [*HEADLINE, *LOAD_BEARING])
def test_gallop_stops_where_the_walk_stops(case, suite_program, monkeypatch):
    """Every burst replays exactly the iterations that a walk one
    iteration at a time confirms from its entry cursors (:func:`_walk`),
    and counts a divergence exactly when the walk stops short of the
    budget; a guard program's odd trip fails inside a chunk.  It probes
    :func:`_most_probes` chunks at most, and some burst is long enough
    that the walk's ``k + 1`` checks would be more.  The four guards
    hold for a chunk from the entry cursors exactly when the walk
    confirms each of its iterations, at every length up to the
    walk's and past it."""
    if case in HEADLINE:
        config, program = HEADLINE[case], suite_program
    else:
        config, program = GUARD_MACHINE, assemble(LOAD_BEARING[case][1])
    burst = ReplayController._burst
    checks = [getattr(ReplayController, guard) for guard in GUARDS]
    stream_continues = ReplayController._stream_continues
    probes = [0]
    walked = []

    def counted(self, record, stream, at, n):
        probes[0] += 1
        return stream_continues(self, record, stream, at, n)

    def checked(self, state, now):
        record = state.record
        stream = self.sim.backend.stream
        at = _cursors(self.sim)
        budget = (self.sim.config.max_cycles - now) // record.cycles
        k = _walk(record, stream, at, budget)
        for n in range(1, min(k + 2, budget) + 1):
            holds = all(check(self, record, stream, at, n) for check in checks)
            assert holds == (n <= k), (k, n)
        replayed, divergences = state.replayed, state.divergences
        probes[0] = 0
        after = burst(self, state, now)
        assert state.replayed - replayed == k
        assert state.divergences - divergences == (k < budget)
        assert probes[0] <= _most_probes(k), (k, probes[0])
        walked.append(k)
        return after

    monkeypatch.setattr(ReplayController, "_stream_continues", counted)
    monkeypatch.setattr(ReplayController, "_burst", checked)
    _outcome(program, "compiled", config)
    assert any(k + 1 > _most_probes(k) for k in walked), walked


# ----------------------------------------------------------------------
# One commit per burst
# ----------------------------------------------------------------------
def test_burst_commits_once(suite_program, monkeypatch):
    """The guards confirm a burst's iterations without moving the
    machine; one commit then shifts it by all of them: one
    ``replay_shift`` per burst that replayed anything, by that burst's
    cycles."""
    shift = MemorySystem.replay_shift
    burst = ReplayController._burst
    shifts = []
    bursts = []

    def counted_shift(self, cycles, seqs):
        shifts.append(cycles)
        shift(self, cycles, seqs)

    def counted_burst(self, state, now):
        replayed = state.replayed
        after = burst(self, state, now)
        if state.replayed > replayed:
            bursts.append((state.replayed - replayed, after - now))
        return after

    monkeypatch.setattr(MemorySystem, "replay_shift", counted_shift)
    monkeypatch.setattr(ReplayController, "_burst", counted_burst)
    Simulator(HEADLINE["pipe-16-16-128B"], suite_program, **ROW["compiled"]).run()
    assert max(iterations for iterations, _cycles in bursts) > 1
    assert shifts == [cycles for _iterations, cycles in bursts]


@pytest.mark.parametrize("case", [*HEADLINE, *GUARDS])
def test_burst_commit_equals_single_commits(case, suite_program, monkeypatch):
    """Committing a burst's ``k`` iterations at once leaves the machine
    where ``k`` one-iteration commits do: equal results (or the same
    error) and equal per-loop replay reports."""
    if case in HEADLINE:
        config, program = HEADLINE[case], suite_program
    else:
        config, program = GUARD_MACHINE, assemble(GUARD_PROGRAMS[case][0])
    batched, sim = _outcome(program, "compiled", config)
    reports = sim.replay_controller.loop_reports()
    assert sim.replay_controller.replayed_iterations > len(reports)
    commit = ReplayController._commit

    def single_commits(self, record, k):
        for _ in range(k):
            commit(self, record, 1)

    monkeypatch.setattr(ReplayController, "_commit", single_commits)
    single, sim = _outcome(program, "compiled", config)
    assert single == batched
    assert sim.replay_controller.loop_reports() == reports
