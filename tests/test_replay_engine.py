"""Unit tests for the steady-state replay engine's foundations.

Covers the satellite guarantees of the replay work: ``state_signature``
is pure (fingerprinting never perturbs the machine), equal machine
states produce equal (and equal-hashing) signatures, and the
:class:`~repro.core.replay.StatsBook` counter ledger is *complete* —
it covers every counter a simulation reports and fails loudly when a
stats object grows a field it cannot delta.  The shadow pass's bound
steps are checked to be the compiled kernel's own handlers, and its
outcome guard is shown to be load-bearing.
"""

import dataclasses

import pytest

from repro.core.compiled import compile_stats
from repro.core.config import MachineConfig
from repro.core.replay import MAX_FIELDS, ReplayController, StatsBook, machine_signature
from repro.core.scheduler import ENGINES
from repro.core.simulator import Simulator
from repro.cpu.dispatch import handler_for
from repro.kernels.suite import build_livermore_program

ROW = dict(ENGINES)


@pytest.fixture(scope="module")
def loop_program():
    return build_livermore_program(scale=0.05, loops=(3,))


CONFIGS = {
    "pipe": MachineConfig.pipe("16-16", 128, memory_access_time=6),
    "conventional": MachineConfig.conventional(128, memory_access_time=16),
    "tib": MachineConfig.tib(memory_access_time=6),
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
    same number of cycles both machines must be in identical states and
    produce identical counter snapshots.
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
    assert sim_a.backend.state.snapshot() == sim_b.backend.state.snapshot()


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
    book.apply(plan)
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
def test_loop_reports_shape(loop_program):
    sim = Simulator(CONFIGS["pipe"], loop_program, skip=True)
    result = sim.run()
    controller = sim.replay_controller
    assert isinstance(controller, ReplayController)
    reports = controller.loop_reports()
    assert reports, "the loop kernel must produce at least one backedge target"
    top = reports[0]
    assert top["phase"] == "engaged"
    assert top["replayed_cycles"] == controller.replayed_cycles
    assert top["replayed_cycles"] < result.cycles
    assert top["iteration_cycles"] * top["replayed_iterations"] == (
        top["replayed_cycles"]
    )


# ----------------------------------------------------------------------
# The shadow pass's bound steps
# ----------------------------------------------------------------------
def _engaged_records(sim: Simulator) -> list:
    records = [
        state.record
        for state in sim.replay_controller.loops.values()
        if state.record is not None
    ]
    assert records, "replay must engage for the binding to be exercised"
    return records


def test_compiled_row_binds_the_shared_dispatch_handlers(loop_program):
    """On the compiled engine every step is the kernel's own handler.

    Binding goes through the process-wide handler memo the live kernel
    already filled, so it compiles nothing: a rerun of the same point
    moves only the kernel cache-hit counter.
    """
    config = CONFIGS["pipe"]
    first = Simulator(config, loop_program, **ROW["compiled"])
    result = first.run()
    before = compile_stats()
    for record in _engaged_records(first):
        assert len(record.steps) == len(record.instrs)
        for (step, recorded), (_tag, _pc, instruction, outcome) in zip(
            record.steps, record.instrs
        ):
            assert step is handler_for(instruction)
            assert recorded is outcome
    assert compile_stats() == before
    rerun = Simulator(config, loop_program, **ROW["compiled"])
    assert rerun.run() == result
    after = compile_stats()
    moved = {key: after[key] - before[key] for key in after if after[key] != before[key]}
    assert moved == {"kernel_cache_hits": 1}


def test_outcome_guard_is_load_bearing(monkeypatch):
    """Each shadow step's outcome must be checked against the recorded one.

    Forcing every bound step to return its recorded outcome hides the
    loop exit: the exiting iteration's untaken backedge looks taken, so
    it is replayed as one more trip round the loop, past the end of the
    array.  Unpatched, the compiled row matches the reference row.
    """
    program = build_livermore_program(scale=0.05)
    config = MachineConfig.pipe("16-16", 128)
    reference = Simulator(config, program, **ROW["reference"]).run()
    guarded = Simulator(config, program, **ROW["compiled"]).run()
    assert guarded.to_dict() == reference.to_dict()

    bind = ReplayController._bind

    def recorded_outcome(step, recorded):
        def forced(state, env):
            step(state, env)
            return recorded

        return forced, recorded

    def unguarded_bind(self, record):
        bind(self, record)
        record.steps = tuple(recorded_outcome(*pair) for pair in record.steps)

    monkeypatch.setattr(ReplayController, "_bind", unguarded_bind)
    try:
        unguarded = Simulator(config, program, **ROW["compiled"]).run()
    except IndexError as error:
        assert "outside memory" in str(error)
    else:
        assert unguarded.to_dict() != reference.to_dict()
