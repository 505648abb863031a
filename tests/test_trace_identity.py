"""Determinism identities: traces survive parallelism and the simcache.

Two properties the trace layer guarantees on top of the simulator's own
determinism:

* ``simulate_many_traced`` produces a **byte-identical** merged trace
  file no matter how many worker processes fan the points out (each
  point streams to its own part file; parts merge in submission order);
* a simcache *hit* on an entry stored from a traced run returns the
  same aggregated ``trace_metrics`` as the cold run that populated it.
"""

import hashlib

from repro.core.config import MachineConfig
from repro.core.parallel import simulate_many_traced
from repro.core.simcache import SimulationCache
from repro.core.simulator import simulate, simulate_traced
from repro.core.trace import TraceMetrics
from repro.kernels.suite import build_livermore_program


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sweep_configs() -> list[MachineConfig]:
    return [
        MachineConfig.pipe("16-16", size, memory_access_time=6)
        for size in (64, 128, 256)
    ] + [MachineConfig.conventional(128, memory_access_time=6)]


class TestSerialParallelIdentity:
    def test_merged_trace_is_jobs_invariant(self, tmp_path):
        program = build_livermore_program(scale=0.05, loops=(3,))
        configs = _sweep_configs()
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial = simulate_many_traced(program, configs, serial_path, jobs=1)
        parallel = simulate_many_traced(program, configs, parallel_path, jobs=2)
        assert _sha256(serial_path) == _sha256(parallel_path)
        assert [r.cycles for r in serial] == [r.cycles for r in parallel]
        assert [r.trace_metrics for r in serial] == [
            r.trace_metrics for r in parallel
        ]
        assert all(r.trace_metrics is not None for r in serial)

    def test_traced_run_matches_untraced_timing(self, tmp_path):
        """Attaching sinks must observe, never perturb, the simulation."""
        program = build_livermore_program(scale=0.05, loops=(3,))
        config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
        untraced = simulate(config, program)
        traced = simulate_traced(
            config, program, trace_path=tmp_path / "trace.jsonl"
        )
        assert traced.cycles == untraced.cycles
        assert traced.instructions == untraced.instructions
        assert traced.stalls == untraced.stalls
        assert traced.memory.input_bus_bytes == untraced.memory.input_bus_bytes


class TestSimcacheTracedIdentity:
    def test_hit_returns_cold_runs_metrics(self, tmp_path):
        program = build_livermore_program(scale=0.05, loops=(3,))
        config = MachineConfig.pipe("16-16", 128, memory_access_time=6)
        cache = SimulationCache(tmp_path)
        cold = simulate_traced(config, program)
        cache.store(config, program, cold)
        warm = SimulationCache(tmp_path).lookup(config, program)
        assert warm.trace_metrics == cold.trace_metrics is not None
        assert warm.cycles == cold.cycles
        metrics = TraceMetrics.from_dict(warm.trace_metrics)
        assert metrics.verify_against(warm) == []
