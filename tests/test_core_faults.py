"""Tests of the deterministic fault-injection harness (repro.core.faults).

The last class is the resilience layer's acceptance test: a sweep with
every injector firing at rate 1.0 must complete unattended, record every
recovery, and produce cycle counts byte-identical to a clean, uncached
reference-engine run.
"""

import json
import os
import time

import pytest

from repro.core import faults
from repro.core.config import MachineConfig
from repro.core.faults import FAULT_KINDS, FaultPlan, InjectedFault
from repro.core.resilience import SweepSupervisor
from repro.core.simcache import SimulationCache
from repro.core.simulator import simulate
from repro.core.sweep import run_cache_sweep


def _pipe(**overrides) -> MachineConfig:
    return MachineConfig.pipe(
        "16-16", 128, memory_access_time=6, input_bus_width=8, **overrides
    )


@pytest.fixture(autouse=True)
def _disarmed(monkeypatch):
    """Every test starts disarmed and cannot leak a plan to later tests."""
    monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
    yield
    faults.deactivate()


class TestFaultPlanParsing:
    def test_bare_seed_enables_every_injector(self):
        plan = FaultPlan.parse("42")
        assert plan.seed == 42
        assert all(plan.rate(kind) == 0.25 for kind in FAULT_KINDS)

    def test_keyed_spec_with_aliases(self):
        plan = FaultPlan.parse(
            "seed=7,kill=0.3,hang=0.1,corrupt=0.5,diverge=1,hang-seconds=2"
        )
        assert plan.seed == 7
        assert plan.worker_kill == 0.3
        assert plan.point_hang == 0.1
        assert plan.cache_corrupt == 0.5
        assert plan.replay_diverge == 1.0
        assert plan.hang_seconds == 2.0

    def test_long_names_accepted_too(self):
        plan = FaultPlan.parse("worker_kill=0.5,point_hang=0.25")
        assert plan.worker_kill == 0.5 and plan.point_hang == 0.25

    @pytest.mark.parametrize("spec", ["", "kill", "bogus=1", "seed=x"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_json_round_trip(self):
        plan = FaultPlan.parse("seed=9,kill=0.5,hang-seconds=1.5")
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestFiring:
    def test_decision_is_a_pure_function_of_seed_kind_key(self):
        a = FaultPlan(seed=3, worker_kill=0.5)
        b = FaultPlan(seed=3, worker_kill=0.5)
        keys = [f"key-{i}" for i in range(64)]
        assert [a.fires("worker_kill", k) for k in keys] == [
            b.fires("worker_kill", k) for k in keys
        ]

    def test_different_seeds_hit_different_points(self):
        keys = [f"key-{i}" for i in range(256)]
        hits = {
            seed: [
                FaultPlan(seed=seed, worker_kill=0.5).fires("worker_kill", k)
                for k in keys
            ]
            for seed in (1, 2)
        }
        assert hits[1] != hits[2]
        # ... and the rate is roughly honored
        assert 64 < sum(hits[1]) < 192

    def test_rate_bounds(self):
        assert not FaultPlan(worker_kill=0.0).fires("worker_kill", "k")
        assert FaultPlan(worker_kill=1.0).fires("worker_kill", "k")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().rate("meteor_strike")

    def test_fires_once_claims_the_marker_exactly_once(self, tmp_path):
        plan = FaultPlan(point_hang=1.0, scratch_dir=str(tmp_path))
        assert plan.fires_once("point_hang", "key-a")
        assert not plan.fires_once("point_hang", "key-a")
        assert plan.fires_once("point_hang", "key-b")

    def test_fires_once_is_inert_without_a_scratch_dir(self):
        plan = FaultPlan(point_hang=1.0)
        assert not plan.fires_once("point_hang", "key-a")


class TestActivation:
    def test_activate_round_trips_through_the_environment(self):
        armed = faults.activate(FaultPlan(seed=5, replay_diverge=0.5))
        assert faults.active_plan() == armed
        faults.deactivate()
        assert faults.active_plan() is None

    def test_activate_provisions_a_scratch_dir_for_once_kinds(self):
        armed = faults.activate(FaultPlan(seed=5, worker_kill=0.5))
        assert armed.scratch_dir is not None

    def test_no_scratch_dir_needed_for_replay_divergence(self):
        armed = faults.activate(FaultPlan(seed=5, replay_diverge=0.5))
        assert armed.scratch_dir is None

    def test_garbled_plan_injects_nothing(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, "{not json")
        assert faults.active_plan() is None

    def test_activate_records_the_supervising_pid(self):
        armed = faults.activate(FaultPlan(seed=5, worker_kill=1.0))
        assert armed.host_pid == os.getpid()

    def test_process_fatal_injectors_stay_inert_in_the_supervisor(self):
        # The serial-fallback path runs points in the arming process;
        # a kill (os._exit) or an untimeboxed hang there would turn the
        # drill into the disaster.  Surviving these calls is the test.
        faults.activate(
            FaultPlan(seed=5, worker_kill=1.0, point_hang=1.0, hang_seconds=60)
        )
        start = time.monotonic()
        faults.maybe_kill_worker("some-point")
        faults.maybe_hang_point("some-point")
        assert time.monotonic() - start < 5.0
        # ... and the once-markers were NOT consumed, so a real worker
        # (different pid) would still see the faults.
        plan = faults.active_plan()
        assert plan.fires_once("worker_kill", "some-point")
        assert plan.fires_once("point_hang", "some-point")


class TestReplayDivergence:
    def test_injected_divergence_crashes_the_fast_path(self, tiny_program):
        faults.activate(FaultPlan(replay_diverge=1.0))
        with pytest.raises(InjectedFault, match="backedge"):
            simulate(_pipe(), tiny_program)

    def test_ladder_recovers_with_identical_numbers(self, tiny_program):
        from repro.core.resilience import FaultReport, ladder_simulate

        reference = simulate(_pipe(), tiny_program, skip=False, replay=False)
        faults.activate(FaultPlan(replay_diverge=1.0))
        report = FaultReport()
        result, rung = ladder_simulate(_pipe(), tiny_program, report=report)
        assert rung == "idle-skip"
        assert result.canonical_json() == reference.canonical_json()
        kinds = report.counts()
        # The divergence hook fires on both replay-enabled rungs
        # (compiled and replay) before idle-skip succeeds.
        assert kinds == {"engine_fault": 2, "degraded": 1}
        assert report.rungs == {"idle-skip": 1}


class TestCacheCorruption:
    def test_corrupted_store_is_quarantined_then_healed(
        self, tiny_program, tmp_path
    ):
        cache = SimulationCache(tmp_path)
        config = _pipe()
        reference = simulate(config, tiny_program)
        faults.activate(FaultPlan(cache_corrupt=1.0))
        cache.store(config, tiny_program, reference)  # truncated in place
        assert cache.lookup(config, tiny_program) is None
        assert cache.stats.quarantined == 1
        assert len(cache.quarantined_entries()) == 1
        # the once-marker is spent: the re-store survives and verifies
        cache.store(config, tiny_program, reference)
        assert cache.lookup(config, tiny_program) == reference


class TestInjectedSweepAcceptance:
    """The ISSUE's acceptance bar: everything injected, nothing wrong."""

    def test_fully_injected_sweep_is_byte_identical_to_reference(
        self, tiny_program, tmp_path
    ):
        strategies = {
            "PIPE 16-16": lambda size, **o: MachineConfig.pipe(
                "16-16", size, **o
            ),
            "conventional": lambda size, **o: MachineConfig.conventional(
                size, **o
            ),
        }
        memory = {"memory_access_time": 6, "input_bus_width": 8}

        # The clean truth: reference engine, no cache, no workers —
        # one result per sweep point, in the sweep's series order.
        reference = [
            simulate(
                factory(64, **memory), tiny_program, skip=False, replay=False
            ).canonical_json()
            for factory in strategies.values()
        ]

        faults.activate(
            FaultPlan(
                seed=7,
                worker_kill=1.0,
                point_hang=1.0,
                cache_corrupt=1.0,
                replay_diverge=1.0,
                hang_seconds=8.0,
            )
        )
        cache = SimulationCache(tmp_path / "cache")
        supervisor = SweepSupervisor(jobs=2, timeout=2.0, max_retries=4)
        injected = run_cache_sweep(
            tiny_program,
            cache_sizes=[64],
            strategies=strategies,
            cache=cache,
            supervisor=supervisor,
            **memory,
        )

        assert [
            s.results[0].canonical_json() for s in injected
        ] == reference
        counts = supervisor.report.counts()
        assert counts.get("worker_crash", 0) >= 1  # kill=1.0 broke the pool
        assert counts.get("degraded", 0) >= 2  # diverge=1.0 hit every point

        # Second pass over the (corrupted) cache: every lookup quarantines,
        # the points are re-simulated, and the numbers still match.
        cache2 = SimulationCache(tmp_path / "cache")
        supervisor2 = SweepSupervisor(jobs=2, timeout=2.0, max_retries=4)
        warm = run_cache_sweep(
            tiny_program,
            cache_sizes=[64],
            strategies=strategies,
            cache=cache2,
            supervisor=supervisor2,
            **memory,
        )
        assert [s.results[0].canonical_json() for s in warm] == reference
        assert cache2.stats.quarantined >= 1
        assert supervisor2.report.counts().get("cache_quarantine", 0) >= 1

        # Third pass: the corrupt once-markers are spent, so the re-stored
        # entries verify and the sweep is answered from the cache.
        cache3 = SimulationCache(tmp_path / "cache")
        final = run_cache_sweep(
            tiny_program,
            cache_sizes=[64],
            strategies=strategies,
            cache=cache3,
            supervisor=SweepSupervisor(jobs=1),
            **memory,
        )
        assert cache3.stats.hits == 2 and cache3.stats.quarantined == 0
        assert [s.results[0].canonical_json() for s in final] == reference


class TestSeededUniform:
    def test_deterministic_and_in_range(self):
        draws = [faults.seeded_uniform(7, "a", str(n)) for n in range(64)]
        assert draws == [faults.seeded_uniform(7, "a", str(n)) for n in range(64)]
        assert all(0.0 <= value < 1.0 for value in draws)

    def test_sensitive_to_every_part(self):
        base = faults.seeded_uniform(7, "kind", "key")
        assert base != faults.seeded_uniform(8, "kind", "key")
        assert base != faults.seeded_uniform(7, "kind", "other")
        assert base != faults.seeded_uniform(7, "other", "key")
