"""Tests of the fault-tolerant execution layer (repro.core.resilience)."""

import json
import multiprocessing
import os
import tempfile
import time

import pytest

from repro.core import faults
from repro.core import simulator as simulator_module
from repro.core.config import MachineConfig
from repro.core.parallel import simulate_many, sweep_map
from repro.core.resilience import (
    DEFAULT_MAX_RETRIES,
    FaultPolicy,
    FaultReport,
    SweepPointError,
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
# The crashing and hanging ones misbehave exactly once per item,
# coordinated through a marker file, so a retry must succeed.
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
    x, directory = task
    fd, _path = tempfile.mkstemp(prefix=f"call-{x}-", dir=directory)
    os.close(fd)
    if x == 2:
        raise ValueError(f"permanently broken item {x}")
    return x * x


def _calls(directory) -> list[int]:
    """The items :func:`_fail_always` was called for, one per call."""
    return sorted(int(path.name.split("-")[1]) for path in directory.iterdir())


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


def _supervised(
    fn, items, report=None, timeout=None, max_retries=DEFAULT_MAX_RETRIES, **options
):
    """``sweep_map`` under a fault policy built from the keywords."""
    policy = FaultPolicy(timeout, max_retries, report or FaultReport())
    return sweep_map(fn, items, policy=policy, **options)


def _simulate_under_policy(program, configs, jobs, **limits):
    """Every config through ``simulate_many``; the results and the report."""
    policy = FaultPolicy(**limits)
    points = [(program, config) for config in configs]
    return simulate_many(points, jobs=jobs, policy=policy), policy.report


class TestFaultReport:
    def test_starts_clean(self):
        report = FaultReport()
        assert report.clean
        assert report.to_dict() == {"events": [], "counts": {}}

    def test_record_and_counts(self):
        report = FaultReport()
        report.record("p1", "worker_crash", detail="boom", attempt=1)
        report.record("p2", "worker_crash", attempt=1)
        report.record("p1", "gave_up", detail="still broken", attempt=2)
        assert not report.clean
        assert report.counts() == {"worker_crash": 2, "gave_up": 1}
        summary = report.summary()
        assert "3 recovery action(s)" in summary
        assert "[gave_up] point p1 — attempt 2 — still broken" in summary

    def test_to_dict_is_json_serializable(self):
        report = FaultReport()
        report.record("p1", "timeout", attempt=2)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["counts"] == {"timeout": 1}
        assert payload["events"][0]["point"] == "p1"


class TestSupervisedMapSerial:
    def test_matches_plain_map(self):
        items = list(range(8))
        assert _supervised(_square, items, jobs=1) == ([x * x for x in items], {})

    def test_empty_input(self):
        assert _supervised(_square, [], jobs=1) == ([], {})

    def test_on_result_fires_in_completion_order(self):
        seen = []
        _supervised(
            _square,
            [1, 2, 3],
            jobs=1,
            on_result=lambda index, value: seen.append((index, value)),
        )
        assert seen == [(0, 1), (1, 4), (2, 9)]

    def test_transient_failure_is_retried(self, tmp_path):
        """Only a crash or a timeout is retried.  An exception the point
        raised fails it on the first attempt, even one that would not
        recur: the simulator is deterministic, so a point that raised
        once raises again."""
        report = FaultReport()
        tasks = [(x, str(tmp_path)) for x in range(4)]
        values, failed = _supervised(
            _fail_once, tasks, jobs=1, max_retries=2, report=report
        )
        assert values == [None] * 4
        assert sorted(failed) == [0, 1, 2, 3]
        assert all(isinstance(exc, RuntimeError) for exc in failed.values())
        assert report.counts() == {"gave_up": 4}
        assert {event.attempt for event in report.events} == {1}

    def test_permanent_failure_returned_after_siblings(self, tmp_path):
        report = FaultReport()
        delivered = []
        tasks = [(x, str(tmp_path)) for x in range(4)]
        values, failed = _supervised(
            _fail_always,
            tasks,
            jobs=1,
            max_retries=1,
            report=report,
            labels=[f"item{x}" for x in range(4)],
            on_result=lambda index, value: delivered.append(index),
        )
        # every recoverable sibling completed; the broken one is returned
        assert delivered == [0, 1, 3]
        assert values == [0, 1, None, 9]
        (index, exc), = failed.items()
        assert index == 2 and isinstance(exc, ValueError)
        assert report.counts()["gave_up"] == 1
        assert report.events[-1].point == "item2"

    def test_no_retry_types_fail_on_the_first_attempt(self, tmp_path):
        """However many retries the policy allows, a point that raised
        is called exactly once, on a pool too."""
        report = FaultReport()
        tasks = [(x, str(tmp_path)) for x in range(4)]
        values, failed = _supervised(
            _fail_always, tasks, jobs=2, max_retries=5, report=report
        )
        assert _calls(tmp_path) == [0, 1, 2, 3]
        assert values == [0, 1, None, 9]
        assert list(failed) == [2] and isinstance(failed[2], ValueError)
        assert report.counts() == {"gave_up": 1}
        assert report.events[0].attempt == 1


class TestSupervisedMapPool:
    def test_pool_matches_serial(self, tmp_path):
        tasks = [(x, str(tmp_path), False) for x in range(8)]
        assert _supervised(_kill_once, tasks, jobs=2) == (
            [x * x for x in range(8)],
            {},
        )

    def test_worker_crash_respawns_and_requeues(self, tmp_path):
        report = FaultReport()
        tasks = [(x, str(tmp_path), x == 1) for x in range(5)]
        values, failed = _supervised(
            _kill_once, tasks, jobs=2, max_retries=3, report=report
        )
        assert values == [x * x for x in range(5)] and not failed
        counts = report.counts()
        assert counts.get("worker_crash", 0) >= 1
        assert counts.get("pool_respawn", 0) >= 1

    def test_hung_point_times_out_and_recovers(self, tmp_path):
        report = FaultReport()
        tasks = [(x, str(tmp_path), x == 0) for x in range(3)]
        values, failed = _supervised(
            _sleep_once,
            tasks,
            jobs=2,
            timeout=1.0,
            max_retries=3,
            report=report,
        )
        assert values == [x * x for x in range(3)] and not failed
        assert report.counts().get("timeout", 0) >= 1


class TestSupervisedSimulateMany:
    def test_matches_unsupervised(self, tiny_program):
        configs = [
            _pipe(),
            _pipe().with_overrides(icache_size=64),
            MachineConfig.conventional(
                128, memory_access_time=6, input_bus_width=8
            ),
        ]
        plain = simulate_many([(tiny_program, config) for config in configs], jobs=1)
        pooled, report = _simulate_under_policy(
            tiny_program, configs, jobs=2, timeout=120.0
        )
        assert pooled == plain
        assert report.clean

    def test_pool_matches_serial_across_sizes_and_latencies(self, tiny_program):
        configs = _size_latency_matrix()
        serial = simulate_many([(tiny_program, config) for config in configs], jobs=1)
        pooled, report = _simulate_under_policy(tiny_program, configs, jobs=2)
        assert pooled == serial
        assert report.clean

    def test_worker_kill_converges_byte_identical(
        self, tiny_program, monkeypatch
    ):
        monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
        configs = _size_latency_matrix()
        # worker_kill only fires inside pool workers, so the serial
        # reference is safe to compute after arming.
        serial = simulate_many([(tiny_program, config) for config in configs], jobs=1)
        faults.activate(faults.FaultPlan(seed=11, worker_kill=1.0))
        try:
            survived, report = _simulate_under_policy(
                tiny_program, configs, jobs=2, max_retries=4
            )
        finally:
            faults.deactivate()
        assert survived == serial
        assert report.counts().get("worker_crash", 0) >= 1


class TestFastPathFailsLoudly:
    """A fast-path bug is charged like any other point error.

    One point's compiled kernel raises; the sweep must not re-run it on
    a slower engine and report success.  It fails the point on its
    first attempt, finishes and caches every other point, then names
    the broken one by its machine in :class:`SweepPointError`.
    """

    @pytest.mark.parametrize(
        "jobs",
        [
            1,
            pytest.param(
                2,
                marks=pytest.mark.skipif(
                    multiprocessing.get_start_method() != "fork",
                    reason="the patched kernel_for reaches workers only by fork",
                ),
            ),
        ],
    )
    def test_raising_fast_path_fails_its_point(
        self, jobs, tiny_program, tmp_path, monkeypatch
    ):
        doomed = 64
        real_kernel_for = simulator_module.kernel_for

        def kernel_for(sim):
            if sim.config.icache_size == doomed:
                raise RuntimeError("fast-path bug")
            return real_kernel_for(sim)

        # Forked pool workers inherit the patched module.
        monkeypatch.setattr(simulator_module, "kernel_for", kernel_for)
        strategies = {
            "PIPE 16-16": lambda size, **o: MachineConfig.pipe("16-16", size, **o),
        }
        sizes = [32, doomed, 128]
        policy = FaultPolicy(max_retries=1)
        with pytest.raises(SweepPointError) as excinfo:
            run_cache_sweep(
                tiny_program,
                cache_sizes=sizes,
                strategies=strategies,
                jobs=jobs,
                cache=SimulationCache(tmp_path),
                policy=policy,
                memory_access_time=6,
                input_bus_width=8,
            )

        configs = [_pipe().with_overrides(icache_size=size) for size in sizes]
        (label, exc), = excinfo.value.failures
        assert label == configs[1].label()
        assert label == "PIPE 16-16 line=16 cache=64B T=6 bus=8B"
        assert isinstance(exc, RuntimeError) and "fast-path bug" in str(exc)
        # The completed points are in the cache as they finished; the
        # broken one is not.
        cache = SimulationCache(tmp_path)
        for size, config in zip(sizes, configs):
            hit = cache.lookup(config, tiny_program)
            if size == doomed:
                assert hit is None
            else:
                assert hit == simulate(config, tiny_program)
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        assert policy.report.counts() == {"gave_up": 1}
        assert policy.report.events[0].point == label


class TestSupervisedSweep:
    def test_matches_unsupervised_and_attaches_report(
        self, tiny_program, tmp_path
    ):
        plain = run_cache_sweep(tiny_program, cache_sizes=[64, 128], jobs=1)
        policy = FaultPolicy(timeout=120.0)
        cache = SimulationCache(tmp_path / "cache")
        supervised = run_cache_sweep(
            tiny_program,
            cache_sizes=[64, 128],
            cache=cache,
            policy=policy,
        )
        assert [s.cycles for s in supervised] == [s.cycles for s in plain]
        assert policy.report.clean
        # every completed point was cached, and nothing else was written:
        # no manifest, no lockfile, no temp file
        written = sorted(p for p in (tmp_path / "cache").rglob("*") if p.is_file())
        assert written == cache.entries()
        assert len(written) == sum(len(s.cycles) for s in supervised)

    def test_rerun_answers_every_point_from_the_cache(
        self, tiny_program, tmp_path
    ):
        first = run_cache_sweep(
            tiny_program,
            cache_sizes=[64],
            cache=SimulationCache(tmp_path),
        )
        cache = SimulationCache(tmp_path)
        rerun = run_cache_sweep(
            tiny_program,
            cache_sizes=[64],
            cache=cache,
        )
        points = sum(len(s.cycles) for s in first)
        assert (cache.stats.hits, cache.stats.misses) == (points, 0)
        assert [s.cycles for s in rerun] == [s.cycles for s in first]
