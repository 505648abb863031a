"""Shared fixtures for the benchmark/reproduction harness.

Each ``benchmarks/test_*.py`` module regenerates one table or figure of
the paper: it runs the sweep behind it, prints the same rows the paper
reports, writes the rendered text to ``benchmarks/results/``, asserts
the paper's qualitative claims, and hands one representative simulation
to pytest-benchmark for timing.

Workload scale
--------------
``REPRO_BENCH_SCALE`` (default ``0.1``) scales the benchmark's
iteration counts.  The qualitative claims hold from ~0.05 upward; use
``REPRO_BENCH_SCALE=1.0`` for the full paper-fidelity run (the numbers
recorded in EXPERIMENTS.md).  ``REPRO_BENCH_SCALE=1.0 pytest benchmarks/
--benchmark-only -s`` took 16 minutes on a shared 2-vCPU VM with
Python 3.11; EXPERIMENTS.md ("Harness performance") times the paper
report itself.
"""

from __future__ import annotations

import pytest

from _harness import RESULTS_DIR, bench_cache_sizes, bench_scale
from repro.analysis.experiments import ExperimentContext
from repro.kernels.suite import cached_livermore_suite


@pytest.fixture(scope="session")
def suite():
    return cached_livermore_suite(scale=bench_scale())


@pytest.fixture(scope="session")
def context(suite):
    return ExperimentContext(
        program=suite.program,
        cache_sizes=bench_cache_sizes(),
        suite=suite,
        scale=bench_scale(),
    )


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
