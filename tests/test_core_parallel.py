"""Tests of the parallel simulation fan-out."""

import os
import tempfile
import warnings

import pytest

from repro.core.config import MachineConfig
from repro.core.parallel import (
    JOBS_ENV,
    parallel_map,
    resolve_jobs,
    simulate_many,
)
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


def _square_dying_in_worker(task) -> int:
    """Square ``x``; item 1 kills any process but the one that mapped."""
    x, parent_pid = task
    if x == 1 and os.getpid() != parent_pid:
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = parallel_map(lambda x: x + 1, [1, 2, 3], jobs=2)
        assert result == [2, 3, 4]

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(boom, [1], jobs=1)

    @pytest.mark.parametrize("error", [TypeError, AttributeError])
    def test_item_error_propagates_once_without_serial_rerun(
        self, tmp_path, error
    ):
        # Regression: an item's own TypeError/AttributeError was taken
        # for a pickling failure, so the whole map re-ran serially in
        # the parent and warned "parallel execution unavailable".
        tasks = [(x, str(tmp_path), error) for x in range(6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="item 3 is broken"):
                parallel_map(_logged_square, tasks, jobs=2)
        called = [path.name.split("-")[1] for path in tmp_path.iterdir()]
        assert called.count("3") == 1
        assert len(called) == len(set(called))  # no item ran twice

    def test_broken_pool_finishes_serially(self):
        tasks = [(x, os.getpid()) for x in range(4)]
        with pytest.warns(UserWarning, match="BrokenProcessPool"):
            assert parallel_map(_square_dying_in_worker, tasks, jobs=2) == [
                0, 1, 4, 9,
            ]


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
        serial = simulate_many(tiny_program, configs, jobs=1)
        parallel = simulate_many(tiny_program, configs, jobs=2)
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
        serial = simulate_many(tiny_program, configs, jobs=1)
        pooled = simulate_many(tiny_program, configs, jobs=2)
        assert pooled == serial

    def test_results_align_with_configs(self, tiny_program):
        configs = [
            MachineConfig.conventional(size, memory_access_time=1)
            for size in (32, 64, 128)
        ]
        results = simulate_many(tiny_program, configs, jobs=2)
        for config, result in zip(configs, results):
            assert result.config == config
            assert result == simulate(config, tiny_program)
