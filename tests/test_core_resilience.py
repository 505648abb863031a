"""Tests of the fault-tolerant execution layer (repro.core.resilience)."""

import json
import os
import time

import pytest

from repro.core import faults
from repro.core.config import MachineConfig
from repro.core.parallel import simulate_many
from repro.core.resilience import (
    CheckpointLockError,
    FaultReport,
    SweepCheckpoint,
    SweepPointError,
    SweepSupervisor,
    ladder_simulate,
    retry_backoff,
    supervised_map,
    supervised_simulate_many,
)
from repro.core.simcache import SimulationCache
from repro.core.simulator import simulate
from repro.core.sweep import run_cache_sweep


def _pipe(**overrides) -> MachineConfig:
    return MachineConfig.pipe(
        "16-16", 128, memory_access_time=6, input_bus_width=8, **overrides
    )


def _size_latency_matrix() -> list[MachineConfig]:
    """PIPE 16-16 at three icache sizes and two latencies, plus conventional."""
    return [
        _pipe().with_overrides(icache_size=64),
        _pipe(),
        MachineConfig.conventional(128, memory_access_time=6, input_bus_width=8),
        _pipe().with_overrides(icache_size=64, memory_access_time=8),
        _pipe().with_overrides(icache_size=256),
    ]


# ----------------------------------------------------------------------
# Worker bodies for the pool tests (module-level: they must pickle).
# Each misbehaves exactly once per item, coordinated through a marker
# file, so the supervisor's retry must succeed.
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def _claim_marker(directory: str, name: str) -> bool:
    try:
        fd = os.open(
            os.path.join(directory, name), os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _fail_once(task) -> int:
    x, directory = task
    if _claim_marker(directory, f"fail-{x}"):
        raise RuntimeError(f"transient failure for {x}")
    return x * x


def _fail_always(task) -> int:
    x, _directory = task
    if x == 2:
        raise ValueError(f"permanently broken item {x}")
    return x * x


def _kill_once(task) -> int:
    x, directory, kill = task
    if kill and _claim_marker(directory, f"kill-{x}"):
        os._exit(33)
    return x * x


def _sleep_once(task) -> int:
    x, directory, hang = task
    if hang and _claim_marker(directory, f"hang-{x}"):
        time.sleep(10.0)
    return x * x


class TestFaultReport:
    def test_starts_clean(self):
        report = FaultReport()
        assert report.clean
        assert "clean" in report.summary()

    def test_record_and_counts(self):
        report = FaultReport()
        report.record("p1", "retry", detail="boom", attempt=1)
        report.record("p2", "retry", attempt=1)
        report.record("p1", "degraded", rung="idle-skip")
        assert not report.clean
        assert report.counts() == {"retry": 2, "degraded": 1}
        summary = report.summary()
        assert "3 recovery action(s)" in summary
        assert "rung idle-skip" in summary

    def test_to_dict_is_json_serializable(self):
        report = FaultReport()
        report.record("p1", "timeout", attempt=2)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["counts"] == {"timeout": 1}
        assert payload["events"][0]["point"] == "p1"


class TestSupervisedMapSerial:
    def test_matches_plain_map(self):
        items = list(range(8))
        assert supervised_map(_square, items, jobs=1) == [x * x for x in items]

    def test_empty_input(self):
        assert supervised_map(_square, [], jobs=1) == []

    def test_on_result_fires_in_completion_order(self):
        seen = []
        supervised_map(
            _square,
            [1, 2, 3],
            jobs=1,
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert seen == [(0, 1), (1, 4), (2, 9)]

    def test_transient_failure_is_retried(self, tmp_path):
        report = FaultReport()
        tasks = [(x, str(tmp_path)) for x in range(4)]
        values = supervised_map(
            _fail_once, tasks, jobs=1, max_retries=2, backoff=0, report=report
        )
        assert values == [x * x for x in range(4)]
        assert report.counts()["retry"] == 4  # every item failed once

    def test_permanent_failure_raises_after_siblings_finish(self, tmp_path):
        report = FaultReport()
        delivered = []
        tasks = [(x, str(tmp_path)) for x in range(4)]
        with pytest.raises(SweepPointError) as excinfo:
            supervised_map(
                _fail_always,
                tasks,
                jobs=1,
                max_retries=1,
                backoff=0,
                report=report,
                labels=[f"item{x}" for x in range(4)],
                on_result=lambda index, value: delivered.append(index),
            )
        # every recoverable sibling completed before the raise
        assert delivered == [0, 1, 3]
        (label, exc), = excinfo.value.failures
        assert label == "item2" and isinstance(exc, ValueError)
        assert report.counts()["gave_up"] == 1

    def test_no_retry_types_fail_on_the_first_attempt(self, tmp_path):
        report = FaultReport()
        tasks = [(x, str(tmp_path)) for x in (2,)]
        with pytest.raises(SweepPointError):
            supervised_map(
                _fail_always,
                tasks,
                jobs=1,
                max_retries=5,
                backoff=0,
                report=report,
                no_retry=(ValueError,),
            )
        gave_up = [e for e in report.events if e.kind == "gave_up"]
        assert len(gave_up) == 1 and gave_up[0].attempt == 1


class TestSupervisedMapPool:
    def test_pool_matches_serial(self, tmp_path):
        tasks = [(x, str(tmp_path), False) for x in range(8)]
        assert supervised_map(_kill_once, tasks, jobs=2) == [
            x * x for x in range(8)
        ]

    def test_worker_crash_respawns_and_requeues(self, tmp_path):
        report = FaultReport()
        tasks = [(x, str(tmp_path), x == 1) for x in range(5)]
        values = supervised_map(
            _kill_once, tasks, jobs=2, max_retries=3, backoff=0, report=report
        )
        assert values == [x * x for x in range(5)]
        counts = report.counts()
        assert counts.get("worker_crash", 0) >= 1
        assert counts.get("pool_respawn", 0) >= 1

    def test_hung_point_times_out_and_recovers(self, tmp_path):
        report = FaultReport()
        tasks = [(x, str(tmp_path), x == 0) for x in range(3)]
        values = supervised_map(
            _sleep_once,
            tasks,
            jobs=2,
            timeout=1.0,
            max_retries=3,
            backoff=0,
            report=report,
        )
        assert values == [x * x for x in range(3)]
        assert report.counts().get("timeout", 0) >= 1


class TestLadderSimulate:
    def test_clean_point_uses_the_top_rung(self, tiny_program):
        report = FaultReport()
        result, rung = ladder_simulate(_pipe(), tiny_program, report=report)
        assert rung == "compiled"
        assert report.clean
        # Satellite: the serving rung is tallied even on full success.
        assert report.rungs == {"compiled": 1}
        assert result == simulate(_pipe(), tiny_program)

    def test_rung_tally_follows_the_escape_hatch(self, tiny_program, monkeypatch):
        monkeypatch.setenv("REPRO_NO_COMPILED", "1")
        report = FaultReport()
        _result, rung = ladder_simulate(_pipe(), tiny_program, report=report)
        assert rung == "compiled"  # top rung tried first ...
        # ... but its kwargs defer to the env, so the run was interpreted;
        # the tally still attributes the point to the serving rung label.
        assert report.rungs == {"compiled": 1}
        assert report.clean


class TestSupervisedSimulateMany:
    def test_matches_unsupervised(self, tiny_program):
        configs = [
            _pipe(),
            _pipe().with_overrides(icache_size=64),
            MachineConfig.conventional(
                128, memory_access_time=6, input_bus_width=8
            ),
        ]
        plain = simulate_many(tiny_program, configs, jobs=1)
        report = FaultReport()
        supervised = supervised_simulate_many(
            tiny_program, configs, jobs=2, report=report
        )
        assert supervised == plain
        assert report.clean

    def test_pool_matches_serial_across_sizes_and_latencies(self, tiny_program):
        configs = _size_latency_matrix()
        serial = simulate_many(tiny_program, configs, jobs=1)
        report = FaultReport()
        supervised = supervised_simulate_many(
            tiny_program, configs, jobs=2, report=report
        )
        assert supervised == serial
        assert report.clean

    def test_worker_kill_converges_byte_identical(
        self, tiny_program, monkeypatch
    ):
        monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
        configs = _size_latency_matrix()
        # worker_kill only fires inside pool workers, so the serial
        # reference is safe to compute after arming.
        serial = simulate_many(tiny_program, configs, jobs=1)
        faults.activate(faults.FaultPlan(seed=11, worker_kill=1.0))
        try:
            report = FaultReport()
            survived = supervised_simulate_many(
                tiny_program, configs, jobs=2, max_retries=4, report=report
            )
        finally:
            faults.deactivate()
        assert survived == serial
        assert report.counts().get("worker_crash", 0) >= 1


class TestSweepCheckpoint:
    def test_round_trip(self, tiny_program, tmp_path):
        result = simulate(_pipe(), tiny_program)
        checkpoint = SweepCheckpoint(tmp_path / "ck.json", interval=100)
        checkpoint.add("key1", result)
        checkpoint.flush()
        reopened = SweepCheckpoint(tmp_path / "ck.json")
        assert reopened.load() == 1
        assert reopened.get("key1") == result
        assert reopened.get("other") is None

    def test_flushes_every_interval(self, tiny_program, tmp_path):
        result = simulate(_pipe(), tiny_program)
        checkpoint = SweepCheckpoint(tmp_path / "ck.json", interval=2)
        checkpoint.add("k1", result)
        assert not (tmp_path / "ck.json").exists()
        checkpoint.add("k2", result)
        assert (tmp_path / "ck.json").exists()

    def test_corrupt_manifest_starts_empty(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{torn write")
        checkpoint = SweepCheckpoint(path)
        assert checkpoint.load() == 0
        assert len(checkpoint) == 0

    def test_wrong_version_starts_empty(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 999, "points": {"k": {}}}))
        assert SweepCheckpoint(path).load() == 0

    def test_no_temp_droppings(self, tiny_program, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "ck.json", interval=1)
        checkpoint.add("k1", simulate(_pipe(), tiny_program))
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


class TestSupervisedSweep:
    def test_matches_unsupervised_and_attaches_report(
        self, tiny_program, tmp_path
    ):
        plain = run_cache_sweep(tiny_program, cache_sizes=[64, 128], jobs=1)
        supervisor = SweepSupervisor(
            jobs=1, checkpoint=SweepCheckpoint(tmp_path / "ck.json")
        )
        supervised = run_cache_sweep(
            tiny_program,
            cache_sizes=[64, 128],
            cache=SimulationCache(tmp_path / "cache"),
            supervisor=supervisor,
        )
        assert [s.cycles for s in supervised] == [s.cycles for s in plain]
        assert all(s.fault_report is supervisor.report for s in supervised)
        assert supervisor.report.clean
        # every completed point was checkpointed
        assert len(supervisor.checkpoint) == sum(
            len(s.cycles) for s in supervised
        )

    def test_checkpoint_manifest_bytes_identical_pool_and_serial(
        self, tiny_program, tmp_path
    ):
        strategies = {
            "PIPE 16-16": lambda size, **o: MachineConfig.pipe("16-16", size, **o),
            "conventional": lambda size, **o: MachineConfig.conventional(
                size, **o
            ),
        }

        def run(path, jobs):
            supervisor = SweepSupervisor(
                jobs=jobs, checkpoint=SweepCheckpoint(path, interval=100)
            )
            series = run_cache_sweep(
                tiny_program,
                cache_sizes=[64, 128],
                strategies=strategies,
                supervisor=supervisor,
                memory_access_time=6,
                input_bus_width=8,
            )
            supervisor.checkpoint.release()
            return [s.as_dict() for s in series]

        assert run(tmp_path / "pool.json", 2) == run(tmp_path / "serial.json", 1)
        assert (tmp_path / "pool.json").read_bytes() == (
            tmp_path / "serial.json"
        ).read_bytes()

    def test_resume_pre_resolves_from_the_checkpoint(
        self, tiny_program, tmp_path
    ):
        first = SweepSupervisor(
            jobs=1, checkpoint=SweepCheckpoint(tmp_path / "ck.json")
        )
        baseline = run_cache_sweep(
            tiny_program, cache_sizes=[64], supervisor=first
        )
        resumer = SweepSupervisor(
            jobs=1,
            checkpoint=SweepCheckpoint(tmp_path / "ck.json"),
            resume=True,
        )
        resumer.checkpoint.load()
        resumed = run_cache_sweep(
            tiny_program, cache_sizes=[64], supervisor=resumer
        )
        assert resumer.resumed == sum(len(s.cycles) for s in baseline)
        assert [s.cycles for s in resumed] == [s.cycles for s in baseline]

    def test_stale_checkpoint_entries_never_match(self, tiny_program, tmp_path):
        # A manifest keyed by different content (another cache size) must
        # not satisfy this sweep's points.
        first = SweepSupervisor(
            jobs=1, checkpoint=SweepCheckpoint(tmp_path / "ck.json")
        )
        run_cache_sweep(tiny_program, cache_sizes=[32], supervisor=first)
        resumer = SweepSupervisor(
            jobs=1,
            checkpoint=SweepCheckpoint(tmp_path / "ck.json"),
            resume=True,
        )
        resumer.checkpoint.load()
        run_cache_sweep(tiny_program, cache_sizes=[256], supervisor=resumer)
        assert resumer.resumed == 0


class TestRetryBackoff:
    def test_deterministic_for_fixed_inputs(self):
        first = retry_backoff(0.25, 3, "point-a", seed=7)
        second = retry_backoff(0.25, 3, "point-a", seed=7)
        assert first == second

    def test_distinct_points_get_distinct_delays(self):
        delays = {
            retry_backoff(0.25, 2, f"point-{n}", seed=7) for n in range(16)
        }
        # Decorrelation is the whole purpose: a respawned pool must not
        # see every interrupted point return in lockstep.
        assert len(delays) > 1

    def test_bounded_by_base_and_cap(self):
        for attempt in range(1, 12):
            delay = retry_backoff(0.25, attempt, "k", seed=3)
            assert 0.0 < delay <= 0.25 * 16.0
        assert retry_backoff(0.25, 9, "k", cap=1.0, seed=3) <= 1.0

    def test_zero_base_or_attempt_disables(self):
        assert retry_backoff(0.0, 3, "k") == 0.0
        assert retry_backoff(0.25, 0, "k") == 0.0

    def test_seed_comes_from_the_active_fault_plan(self):
        from repro.core import faults

        faults.deactivate()
        try:
            disarmed = retry_backoff(0.25, 2, "k")
            assert disarmed == retry_backoff(0.25, 2, "k", seed=0)
            faults.activate(faults.FaultPlan(seed=99))
            armed = retry_backoff(0.25, 2, "k")
            assert armed == retry_backoff(0.25, 2, "k", seed=99)
        finally:
            faults.deactivate()


class TestCheckpointLock:
    def test_acquire_release_round_trip(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "ck.json")
        checkpoint.acquire()
        assert checkpoint.locked
        assert checkpoint.lock_path.exists()
        assert checkpoint.lock_path.read_text() == str(os.getpid())
        checkpoint.release()
        assert not checkpoint.locked
        assert not checkpoint.lock_path.exists()

    def test_acquire_is_idempotent_per_instance(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "ck.json")
        checkpoint.acquire()
        checkpoint.acquire()  # no error, still held
        checkpoint.release()

    def test_live_foreign_holder_raises(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "ck.json")
        # The parent pytest process is alive and is not us.
        checkpoint.lock_path.write_text(str(os.getppid()))
        with pytest.raises(CheckpointLockError):
            checkpoint.acquire()

    def test_stale_lock_from_dead_process_is_broken(self, tmp_path):
        import subprocess
        import sys

        child = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(child.stdout.strip())
        checkpoint = SweepCheckpoint(tmp_path / "ck.json")
        checkpoint.lock_path.write_text(str(dead_pid))
        checkpoint.acquire()  # broken and re-claimed, no error
        assert checkpoint.locked
        checkpoint.release()

    def test_unreadable_lock_is_treated_as_stale(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "ck.json")
        checkpoint.lock_path.write_text("not-a-pid")
        checkpoint.acquire()
        checkpoint.release()

    def test_same_process_reacquire_across_instances(self, tmp_path):
        # Two sequential supervised runs in one process (the CLI does
        # this, and so do tests) must not dead-lock against themselves:
        # the lock excludes other *processes*.
        first = SweepCheckpoint(tmp_path / "ck.json")
        first.acquire()
        second = SweepCheckpoint(tmp_path / "ck.json")
        second.acquire()
        assert second.locked
        second.release()

    def test_context_manager(self, tmp_path):
        with SweepCheckpoint(tmp_path / "ck.json") as checkpoint:
            assert checkpoint.locked
        assert not checkpoint.lock_path.exists()

    def test_supervised_sweep_takes_and_conflicts_on_the_lock(
        self, tiny_program, tmp_path
    ):
        supervisor = SweepSupervisor(
            jobs=1, checkpoint=SweepCheckpoint(tmp_path / "ck.json")
        )
        run_cache_sweep(tiny_program, cache_sizes=[64], supervisor=supervisor)
        # The sweep's claim is still held (the CLI releases at exit);
        # a concurrent run in another process would now fail fast.
        assert supervisor.checkpoint.locked
        foreign = SweepCheckpoint(tmp_path / "ck.json")
        foreign.lock_path.write_text(str(os.getppid()))  # simulate: alive
        with pytest.raises(CheckpointLockError):
            foreign.acquire()
        supervisor.checkpoint.release()
