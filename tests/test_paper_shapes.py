"""Integration: the paper's qualitative findings at reduced scale.

These are the same claim checks the full-fidelity benchmark harness
runs, executed at workload scale 0.10 with three cache sizes so the
whole module stays inside a couple of minutes.  The shapes the paper
reports are robust to scale (the loops' code footprints do not change),
so these must pass here too.
"""

import pytest

from repro.analysis.claims import (
    by_label,
    check_figure4a,
    check_figure5,
    check_figure6,
    check_headline,
    check_line_size_reversal,
)
from repro.analysis.experiments import ExperimentContext

CACHE_SIZES = (32, 128, 512)

#: the memory design points the checks below sweep
SWEEPS = (
    {"memory_access_time": 1, "input_bus_width": 4},
    {"memory_access_time": 6, "input_bus_width": 4},
    {"memory_access_time": 6, "input_bus_width": 8},
    {"memory_access_time": 6, "input_bus_width": 8, "memory_pipelined": True},
)


@pytest.fixture(scope="module")
def context(small_suite):
    """A context whose memo holds every sweep below, resolved in one
    fan-out (a sweep reads only the memo, as the experiments do)."""
    context = ExperimentContext(
        program=small_suite.program,
        cache_sizes=CACHE_SIZES,
        suite=small_suite,
        scale=0.10,
    )
    context.resolve(context.sweep_points(*SWEEPS))
    return context


class TestFigure4Shapes:
    def test_conventional_wins_somewhere_only_at_t1_bus4(self, context):
        series = context.sweep(memory_access_time=1, input_bus_width=4)
        checks = check_figure4a(series)
        assert all(check.passed for check in checks), "\n".join(map(str, checks))

    def test_line_size_8_wins_with_fast_memory(self, context):
        fast = context.sweep(memory_access_time=1, input_bus_width=4)
        slow = context.sweep(
            memory_access_time=6, input_bus_width=8, memory_pipelined=True
        )
        checks = check_line_size_reversal(fast, slow)
        assert all(check.passed for check in checks), "\n".join(map(str, checks))


class TestFigure5Shapes:
    def test_every_pipe_configuration_beats_conventional_at_t6(self, context):
        wide = context.sweep(memory_access_time=6, input_bus_width=8)
        narrow = context.sweep(memory_access_time=6, input_bus_width=4)
        checks = check_figure5(wide, series_narrow_bus=narrow)
        assert all(check.passed for check in checks), "\n".join(map(str, checks))
        checks_narrow = check_figure5(narrow)
        assert all(check.passed for check in checks_narrow)


class TestFigure6Shapes:
    def test_pipelined_memory_compresses_curves(self, context):
        base = context.sweep(memory_access_time=6, input_bus_width=8)
        piped = context.sweep(
            memory_access_time=6, input_bus_width=8, memory_pipelined=True
        )
        checks = check_figure6(base, piped)
        assert all(check.passed for check in checks), "\n".join(map(str, checks))


class TestHeadlineShape:
    def test_up_to_twice_as_fast(self, context):
        series = context.sweep(memory_access_time=6, input_bus_width=4)
        checks = check_headline(series)
        assert all(check.passed for check in checks), "\n".join(map(str, checks))

    def test_speedup_magnitude(self, context):
        """The 32-byte-cache speedup should be near the paper's 'twice'."""
        curves = by_label(context.sweep(memory_access_time=6, input_bus_width=4))
        conventional = curves["conventional"].as_dict()[32]
        best_pipe = min(
            curves[label].as_dict()[32]
            for label in curves
            if label != "conventional"
        )
        assert conventional / best_pipe > 1.6


class TestKneeOfTheCurve:
    def test_all_curves_flatten_past_128_bytes(self, context):
        """Section 6: 'an initial large performance improvement followed
        by a flattening of the curves ... the knee corresponds to the
        size of most of the inner loops' (half fit in 128 bytes)."""
        series = context.sweep(memory_access_time=6, input_bus_width=8)
        for curve in series:
            cycles = curve.as_dict()
            if 32 not in cycles:
                continue
            drop_to_knee = cycles[32] - cycles[128]
            drop_past_knee = cycles[128] - cycles[512]
            assert drop_to_knee > 0
            assert drop_past_knee < drop_to_knee, curve.label
