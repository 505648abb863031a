"""Determinism identities: tracing observes, and survives the simcache.

Two properties the trace layer guarantees on top of the simulator's own
determinism:

* attaching sinks never perturbs the run: a traced run reports the
  same timing as an untraced one;
* a simcache *hit* on an entry stored from a traced run returns the
  same aggregated ``trace_metrics`` as the cold run that populated it.
"""

from repro.core.config import MachineConfig
from repro.core.simcache import SimulationCache
from repro.core.simulator import simulate, simulate_traced
from repro.core.trace import TraceMetrics
from repro.kernels.suite import build_livermore_program


class TestSerialParallelIdentity:
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
