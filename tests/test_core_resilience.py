"""Tests of the fault-tolerant execution layer (repro.core.resilience)."""

import json
import multiprocessing
import os
import time

import pytest

from repro.core import faults
from repro.core import simulator as simulator_module
from repro.core.config import MachineConfig
from repro.core.parallel import simulate_many, sweep_map
from repro.core.resilience import FaultReport, SweepPointError, SweepSupervisor
from repro.core.simcache import SimulationCache, sweep_point_keys
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


def _supervised(fn, items, report=None, **policy):
    """``sweep_map`` with its fault policy on: a report, and so no raise."""
    return sweep_map(
        fn, items, report=report if report is not None else FaultReport(), **policy
    )


def _simulate_supervised(program, configs, **knobs):
    """Every config through ``SweepSupervisor.simulate_points``."""
    supervisor = SweepSupervisor(**knobs)
    results = supervisor.simulate_points(
        program, configs, sweep_point_keys(program, configs)
    )
    return results, supervisor.report


class TestFaultReport:
    def test_starts_clean(self):
        report = FaultReport()
        assert report.clean
        assert "clean" in report.summary()

    def test_record_and_counts(self):
        report = FaultReport()
        report.record("p1", "retry", detail="boom", attempt=1)
        report.record("p2", "retry", attempt=1)
        report.record("p1", "gave_up", detail="still broken", attempt=2)
        assert not report.clean
        assert report.counts() == {"retry": 2, "gave_up": 1}
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
        report = FaultReport()
        tasks = [(x, str(tmp_path)) for x in range(4)]
        values, failed = _supervised(
            _fail_once, tasks, jobs=1, max_retries=2, backoff=0, report=report
        )
        assert values == [x * x for x in range(4)] and not failed
        assert report.counts()["retry"] == 4  # every item failed once

    def test_retry_pause_is_linear_in_the_attempt(self, tmp_path, monkeypatch):
        pauses = []
        monkeypatch.setattr(time, "sleep", pauses.append)
        tasks = [(x, str(tmp_path)) for x in (2,)]
        _values, failed = _supervised(
            _fail_always, tasks, jobs=1, max_retries=3, backoff=0.5
        )
        assert list(failed) == [0]
        assert pauses == [0.5, 1.0, 1.5]  # backoff * attempt

    def test_permanent_failure_returned_after_siblings(self, tmp_path):
        report = FaultReport()
        delivered = []
        tasks = [(x, str(tmp_path)) for x in range(4)]
        values, failed = _supervised(
            _fail_always,
            tasks,
            jobs=1,
            max_retries=1,
            backoff=0,
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
        report = FaultReport()
        tasks = [(x, str(tmp_path)) for x in (2,)]
        _values, failed = _supervised(
            _fail_always,
            tasks,
            jobs=1,
            max_retries=5,
            backoff=0,
            report=report,
            no_retry=(ValueError,),
        )
        assert list(failed) == [0]
        gave_up = [e for e in report.events if e.kind == "gave_up"]
        assert len(gave_up) == 1 and gave_up[0].attempt == 1


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
            _kill_once, tasks, jobs=2, max_retries=3, backoff=0, report=report
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
            backoff=0,
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
        plain = simulate_many(tiny_program, configs, jobs=1)
        supervised, report = _simulate_supervised(tiny_program, configs, jobs=2)
        assert supervised == plain
        assert report.clean

    def test_pool_matches_serial_across_sizes_and_latencies(self, tiny_program):
        configs = _size_latency_matrix()
        serial = simulate_many(tiny_program, configs, jobs=1)
        supervised, report = _simulate_supervised(tiny_program, configs, jobs=2)
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
            survived, report = _simulate_supervised(
                tiny_program, configs, jobs=2, max_retries=4
            )
        finally:
            faults.deactivate()
        assert survived == serial
        assert report.counts().get("worker_crash", 0) >= 1


class TestFastPathFailsLoudly:
    """A fast-path bug is charged like any other point error.

    One point's compiled kernel raises; the supervised sweep must not
    re-run it on a slower engine and report success.  It retries the
    point, finishes and caches every other point, then names the broken
    one in :class:`SweepPointError`.
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
        delivered = []
        supervisor = SweepSupervisor(jobs=jobs, max_retries=1, backoff=0)
        simulate_points = supervisor.simulate_points

        def spy(program, configs, keys, on_result=None):
            def record(index, result):
                delivered.append(configs[index].icache_size)
                on_result(index, result)

            return simulate_points(program, configs, keys, on_result=record)

        supervisor.simulate_points = spy
        with pytest.raises(SweepPointError) as excinfo:
            run_cache_sweep(
                tiny_program,
                cache_sizes=sizes,
                strategies=strategies,
                cache=SimulationCache(tmp_path),
                supervisor=supervisor,
                memory_access_time=6,
                input_bus_width=8,
            )

        configs = [_pipe().with_overrides(icache_size=size) for size in sizes]
        keys = dict(zip(sizes, sweep_point_keys(tiny_program, configs)))
        (label, exc), = excinfo.value.failures
        assert label == keys[doomed][:12]
        assert isinstance(exc, RuntimeError) and "fast-path bug" in str(exc)
        assert sorted(delivered) == [32, 128]
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
        kinds = supervisor.report.counts()
        assert "degraded" not in kinds and "engine_fault" not in kinds
        assert kinds == {"retry": 2, "gave_up": 1}


class TestSupervisedSweep:
    def test_matches_unsupervised_and_attaches_report(
        self, tiny_program, tmp_path
    ):
        plain = run_cache_sweep(tiny_program, cache_sizes=[64, 128], jobs=1)
        supervisor = SweepSupervisor(jobs=1)
        cache = SimulationCache(tmp_path / "cache")
        supervised = run_cache_sweep(
            tiny_program,
            cache_sizes=[64, 128],
            cache=cache,
            supervisor=supervisor,
        )
        assert [s.cycles for s in supervised] == [s.cycles for s in plain]
        assert supervisor.report.clean
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
            supervisor=SweepSupervisor(jobs=1),
        )
        cache = SimulationCache(tmp_path)
        rerun = run_cache_sweep(
            tiny_program,
            cache_sizes=[64],
            cache=cache,
            supervisor=SweepSupervisor(jobs=1),
        )
        points = sum(len(s.cycles) for s in first)
        assert (cache.stats.hits, cache.stats.misses) == (points, 0)
        assert [s.cycles for s in rerun] == [s.cycles for s in first]
