"""Tests of the parallel simulation fan-out."""

import os
import tempfile
import warnings

import pytest

from repro.core.config import MachineConfig
from repro.core.parallel import (
    JOBS_ENV,
    POOL_FAILURE_LIMIT,
    parallel_map,
    resolve_jobs,
    simulate_many,
)
from repro.core.resilience import FaultPolicy, SweepPointError
from repro.core.simulator import simulate


def _square(x: int) -> int:
    return x * x


def _logged_square(task) -> int:
    """Square ``x``, leaving one marker file per call; item 3 raises."""
    x, directory, error = task
    fd, _path = tempfile.mkstemp(prefix=f"call-{x}-", dir=directory)
    os.close(fd)
    if x == 3:
        raise error(f"item {x} is broken")
    return x * x


def _square_killing_workers(task) -> int:
    """Square ``x``, killing any process but the one that mapped."""
    x, parent_pid = task
    if os.getpid() != parent_pid:
        os._exit(33)
    return x * x


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_environment_beats_cpu_count(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_bad_environment_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.warns(UserWarning, match="non-integer"):
            assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_parallel_preserves_input_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_unpicklable_fn_falls_back_to_serial(self):
        policy = FaultPolicy()
        result = parallel_map(lambda x: x + 1, [1, 2, 3], jobs=2, policy=policy)
        assert result == [2, 3, 4]
        assert policy.report.counts() == {"serial_fallback": 1}

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(SweepPointError, match="boom") as excinfo:
            parallel_map(boom, [1], jobs=1)
        ((label, exc),) = excinfo.value.failures
        assert label == "0" and isinstance(exc, RuntimeError)

    @pytest.mark.parametrize("error", [TypeError, AttributeError])
    def test_item_error_propagates_once_without_serial_rerun(
        self, tmp_path, error
    ):
        # Regression: an item's own TypeError/AttributeError was taken
        # for a pickling failure, so the whole map re-ran serially in
        # the parent.  It is the item's failure, raised once every
        # sibling has finished.
        tasks = [(x, str(tmp_path), error) for x in range(6)]
        policy = FaultPolicy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SweepPointError, match="item 3 is broken") as excinfo:
                parallel_map(_logged_square, tasks, jobs=2, policy=policy)
        ((label, exc),) = excinfo.value.failures
        assert label == "3" and isinstance(exc, error)
        called = sorted(path.name.split("-")[1] for path in tmp_path.iterdir())
        assert called == ["0", "1", "2", "3", "4", "5"]  # each item ran once
        assert policy.report.counts() == {"gave_up": 1}

    def test_pool_that_keeps_dying_finishes_serially(self):
        """Every point kills its worker: each crash charges both points
        in flight, the pool is respawned until it has died
        POOL_FAILURE_LIMIT times, and the map finishes in this process."""
        tasks = [(x, os.getpid()) for x in range(4)]
        policy = FaultPolicy(max_retries=2)
        values = parallel_map(_square_killing_workers, tasks, jobs=2, policy=policy)
        assert values == [0, 1, 4, 9]
        assert POOL_FAILURE_LIMIT == 4
        assert policy.report.counts() == {
            "worker_crash": 8,
            "pool_respawn": 3,
            "serial_fallback": 1,
        }


class TestSimulateMany:
    def test_parallel_matches_serial_for_all_strategies(self, tiny_program):
        memory = {"memory_access_time": 6, "input_bus_width": 8}
        configs = [
            MachineConfig.pipe("8-8", 128, **memory),
            MachineConfig.pipe("16-16", 128, **memory),
            MachineConfig.pipe("16-32", 128, **memory),
            MachineConfig.pipe("32-32", 128, **memory),
            MachineConfig.conventional(128, **memory),
        ]
        points = [(tiny_program, config) for config in configs]
        serial = simulate_many(points, jobs=1)
        parallel = simulate_many(points, jobs=2)
        assert [r.cycles for r in serial] == [r.cycles for r in parallel]
        assert serial == parallel

    def test_pool_matches_serial_across_sizes_and_latencies(self, tiny_program):
        """PIPE points at several icache sizes share cached kernel source."""
        memory = {"memory_access_time": 6, "input_bus_width": 8}
        configs = [
            MachineConfig.pipe("16-16", 64, **memory),
            MachineConfig.pipe("16-16", 128, **memory),
            MachineConfig.conventional(128, **memory),
            MachineConfig.pipe("16-16", 64, memory_access_time=8, input_bus_width=8),
            MachineConfig.pipe("16-16", 256, **memory),
        ]
        points = [(tiny_program, config) for config in configs]
        serial = simulate_many(points, jobs=1)
        pooled = simulate_many(points, jobs=2)
        assert pooled == serial

    def test_results_align_with_configs(self, tiny_program):
        configs = [
            MachineConfig.conventional(size, memory_access_time=1)
            for size in (32, 64, 128)
        ]
        results = simulate_many([(tiny_program, config) for config in configs], jobs=2)
        for config, result in zip(configs, results):
            assert result.config == config
            assert result == simulate(config, tiny_program)
