"""Simulator core: configuration, the cycle-level machine, and results.

Public names are imported lazily (PEP 562, like the top-level package)
so that low-level modules — the queues, the instruction cache, the
frontends — can import :mod:`repro.core.trace` without dragging the
whole simulator in and creating an import cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "DeadlockError": ("repro.core.simulator", "DeadlockError"),
    "FaultPlan": ("repro.core.faults", "FaultPlan"),
    "FaultReport": ("repro.core.resilience", "FaultReport"),
    "FetchStrategy": ("repro.core.config", "FetchStrategy"),
    "SweepCheckpoint": ("repro.core.resilience", "SweepCheckpoint"),
    "SweepPointError": ("repro.core.resilience", "SweepPointError"),
    "SweepSupervisor": ("repro.core.resilience", "SweepSupervisor"),
    "ladder_simulate": ("repro.core.resilience", "ladder_simulate"),
    "supervised_map": ("repro.core.resilience", "supervised_map"),
    "MachineConfig": ("repro.core.config", "MachineConfig"),
    "PAPER_CACHE_SIZES": ("repro.core.config", "PAPER_CACHE_SIZES"),
    "PIPE_CONFIGURATIONS": ("repro.core.config", "PIPE_CONFIGURATIONS"),
    "PipeConfiguration": ("repro.core.config", "PipeConfiguration"),
    "QueueSnapshot": ("repro.core.results", "QueueSnapshot"),
    "SimulationResult": ("repro.core.results", "SimulationResult"),
    "SimulationTimeout": ("repro.core.simulator", "SimulationTimeout"),
    "Simulator": ("repro.core.simulator", "Simulator"),
    "simulate": ("repro.core.simulator", "simulate"),
    "simulate_traced": ("repro.core.simulator", "simulate_traced"),
    "MetricsSink": ("repro.core.trace", "MetricsSink"),
    "TraceMetrics": ("repro.core.trace", "TraceMetrics"),
    "Tracer": ("repro.core.trace", "Tracer"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
