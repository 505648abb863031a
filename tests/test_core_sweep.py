"""Tests of the cache-size sweep driver."""

import pytest

from repro.core import simulator
from repro.core.config import FetchStrategy, MachineConfig
from repro.core.simcache import SimulationCache
from repro.core.sweep import (
    SweepSeries,
    resolve_points,
    run_cache_sweep,
    standard_strategies,
)


class TestStrategies:
    def test_five_curves(self):
        strategies = standard_strategies()
        assert list(strategies) == [
            "PIPE 8-8",
            "PIPE 16-16",
            "PIPE 16-32",
            "PIPE 32-32",
            "conventional",
        ]

    def test_factories_bind_their_configuration(self):
        strategies = standard_strategies()
        config = strategies["PIPE 16-32"](128)
        assert config.line_size == 32 and config.iq_size == 16
        conv = strategies["conventional"](64)
        assert conv.fetch_strategy is FetchStrategy.CONVENTIONAL


class TestSweep:
    def test_sweep_shape(self, tiny_program):
        series = run_cache_sweep(
            tiny_program,
            cache_sizes=(32, 128),
            memory_access_time=1,
            input_bus_width=8,
        )
        assert len(series) == 5
        for curve in series:
            assert len(curve.cache_sizes) == len(curve.cycles)
            assert all(cycles > 0 for cycles in curve.cycles)

    def test_undersized_caches_skipped(self, tiny_program):
        """A 32-byte-line configuration cannot have a 16-byte cache."""
        series = run_cache_sweep(
            tiny_program,
            cache_sizes=(16, 32, 64),
            memory_access_time=1,
            input_bus_width=8,
        )
        by_label = {curve.label: curve for curve in series}
        assert 16 not in by_label["PIPE 32-32"].cache_sizes
        assert 16 in by_label["PIPE 8-8"].cache_sizes

    def test_overrides_forwarded(self, tiny_program):
        series = run_cache_sweep(
            tiny_program,
            cache_sizes=(64,),
            memory_access_time=6,
            input_bus_width=4,
            memory_pipelined=True,
        )
        result = series[0].results[0]
        assert result.config.memory_access_time == 6
        assert result.config.memory_pipelined

    def test_series_helpers(self):
        series = SweepSeries("x", [32, 64, 128], [300, 200, 100])
        assert series.as_dict() == {32: 300, 64: 200, 128: 100}
        assert series.flatness == 3.0

    def test_flatness_of_empty_series(self):
        """A curve with no surviving points must not crash flatness."""
        assert SweepSeries("empty", [], []).flatness == 1.0

    def test_flatness_of_singleton_series(self):
        assert SweepSeries("one", [64], [1234]).flatness == 1.0

    def test_parallel_sweep_matches_serial(self, tiny_program):
        serial = run_cache_sweep(
            tiny_program,
            cache_sizes=(32, 128),
            memory_access_time=1,
            input_bus_width=8,
            jobs=1,
        )
        parallel = run_cache_sweep(
            tiny_program,
            cache_sizes=(32, 128),
            memory_access_time=1,
            input_bus_width=8,
            jobs=2,
        )
        assert [s.label for s in serial] == [s.label for s in parallel]
        for a, b in zip(serial, parallel):
            assert a.cache_sizes == b.cache_sizes
            assert a.cycles == b.cycles


class TestResolvePoints:
    def test_unsupervised_points_are_stored_as_they_complete(
        self, tiny_program, tmp_path, monkeypatch
    ):
        """The cache is the checkpoint without a supervisor too: when the
        third point fails, the two finished before it are already
        stored, and a rerun answers them from the cache."""
        configs = [
            MachineConfig.pipe("16-16", size, memory_access_time=1)
            for size in (32, 64, 128)
        ]
        simulate = simulator.simulate

        def failing(config, program, *args, **kwargs):
            if config is configs[2]:
                raise RuntimeError("third point fails")
            return simulate(config, program, *args, **kwargs)

        monkeypatch.setattr(simulator, "simulate", failing)
        cache = SimulationCache(tmp_path)
        with pytest.raises(RuntimeError, match="third point fails"):
            resolve_points(tiny_program, configs, jobs=1, cache=cache)
        stored = [cache.lookup(config, tiny_program) for config in configs]
        assert stored[2] is None
        for config, result in zip(configs[:2], stored):
            assert result == simulate(config, tiny_program)
