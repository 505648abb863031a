"""Self-tests of the benchmark's own arithmetic and hygiene.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import ast
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans as spanlib  # noqa: E402
import workload  # noqa: E402


def _span(id, parent, layer, start, end, name="x"):
    return spanlib.Span(id, parent, layer, name, start, end)


class TestSelfTime:
    def test_parent_minus_children(self):
        spans = [
            _span(0, None, "experiments", 0.0, 10.0),
            _span(1, 0, "sweep", 1.0, 4.0),
            _span(2, 0, "simulator", 5.0, 6.5),
        ]
        assert spanlib.self_times(spans)[0] == pytest.approx(10.0 - 3.0 - 1.5)

    def test_overlapping_children_count_once(self):
        # children of one parent recorded in different workers may overlap
        spans = [
            _span(0, None, "parallel", 0.0, 10.0),
            _span(1, 0, "sweep", 2.0, 6.0),
            _span(2, 0, "sweep", 4.0, 8.0),
        ]
        assert spanlib.self_times(spans)[0] == pytest.approx(10.0 - 6.0)

    def test_children_clipped_to_parent(self):
        spans = [_span(0, None, "a", 1.0, 3.0), _span(1, 0, "b", 0.0, 2.0)]
        assert spanlib.self_times(spans)[0] == pytest.approx(1.0)

    def test_grandchildren_do_not_count_twice(self):
        spans = [
            _span(0, None, "simulator", 0.0, 10.0),
            _span(1, 0, "replay", 2.0, 8.0),
            _span(2, 1, "compiled", 3.0, 4.0),
        ]
        selfs = spanlib.self_times(spans)
        assert selfs[0] == pytest.approx(4.0)
        assert selfs[1] == pytest.approx(5.0)

    def test_same_layer_nesting_counted_once_in_layer_time(self):
        spans = [
            _span(0, None, "parallel", 0.0, 5.0),  # simulate_many
            _span(1, 0, "parallel", 1.0, 4.0),  # its parallel_map
            _span(2, None, "parallel", 6.0, 7.0),
        ]
        assert spanlib.layer_totals(spans) == {"parallel": pytest.approx(6.0)}
        assert [s.id for s in spanlib.outermost(spans)] == [0, 2]


class TestTailPercentile:
    def test_exactly_ten_beyond(self):
        samples = [float(v) for v in range(1, 101)]
        pct, value = spanlib.tail_percentile(samples)
        assert value == 90.0
        assert pct == pytest.approx(90.0)
        assert sum(s > value for s in samples) == 10

    def test_order_does_not_matter(self):
        samples = [float(v) for v in range(400, 0, -1)]
        pct, value = spanlib.tail_percentile(samples)
        assert sum(s > value for s in samples) == 10
        assert pct == pytest.approx(97.5)

    def test_smallest_sample_that_has_a_tail(self):
        assert spanlib.tail_percentile([float(v) for v in range(11)]) == (
            pytest.approx(100.0 / 11),
            0.0,
        )

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            spanlib.tail_percentile([1.0] * 10)


class TestRefClock:
    def test_unit_scaled_by_the_probes_around_it(self, monkeypatch):
        probes = iter([0.002, 0.004])  # one before the unit, one inside
        monkeypatch.setattr(workload, "probe", lambda timer=None: next(probes))
        clock = workload.RefClock()
        ticks = iter([10.0, 10.5])
        monkeypatch.setattr(workload.time, "perf_counter", lambda: next(ticks))

        def unit():
            clock._probe(None, None)  # as if the timer fired mid-unit
            return "done"

        took, result = clock.measure(unit)
        assert result == "done"
        # the probe inside is not the unit's work; the host ran the
        # probes three times slower than the reference on average
        ref = workload.REFERENCE_PROBE_S
        assert took == pytest.approx((0.5 - 0.004) * ref / 0.003)

    def test_timer_stops(self):
        import signal

        clock = workload.RefClock()
        clock.start()
        clock.stop()
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


class TestWrappers:
    def test_install_and_restore_leave_originals(self):
        from repro.core import replay, simulator, sweep
        from repro.core.parallel import simulate_many

        targets, counters = workload.trace_targets()
        # every binding of every target, in classes and in repro modules
        bindings = {}
        for owner, attr, *_ in targets:
            if isinstance(owner, type):
                bindings[(owner, attr)] = owner.__dict__[attr]
                continue
            original = getattr(owner, attr)
            for name, module in list(sys.modules.items()):
                if module is not None and name.startswith("repro"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            bindings[(module, key)] = original
        recorder = spanlib.SpanRecorder(counters=counters)
        patches = spanlib.install(recorder, targets)
        try:
            assert len(patches) == len(bindings)
            assert sweep.simulate_many is not simulate_many  # a from-import
            assert sweep.simulate_many.__wrapped__ is simulate_many
            on_backedge = replay.ReplayController.__dict__["on_backedge"]
            assert on_backedge is not bindings[(replay.ReplayController, "on_backedge")]
        finally:
            spanlib.restore(patches)
        for (owner, attr), original in bindings.items():
            current = vars(owner)[attr]
            assert current is original, f"{owner}.{attr} not restored"
        assert simulator.Simulator.__dict__["run"].__name__ == "run"

    def test_wrapped_calls_are_recorded_with_parents(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # codegen store
        from repro.core.config import MachineConfig
        from repro.core.simulator import simulate
        from repro.kernels import suite
        from repro.kernels.generate import generate_workload

        targets, counters = workload.trace_targets()
        recorder = spanlib.SpanRecorder(counters=counters)
        patches = spanlib.install(recorder, targets)
        try:
            generated = generate_workload(3, "tiny")
            program = suite.build_kernel_suite(
                [generated.kernel], list(generated.arrays)
            ).program
            result = simulate(MachineConfig.pipe("16-16", 128), program)
        finally:
            spanlib.restore(patches)
        layers = [span.layer for span in recorder.spans]
        assert layers[:3] == ["kernels", "simulator.init", "simulator"]
        run = recorder.spans[2]
        assert run.attrs["cycles"] == result.cycles
        for span in recorder.spans[3:]:
            assert span.parent == run.id  # replay/compiled spans nest in run
        metrics = workload.layer_metrics([(recorder.spans, {})], owner=0)
        assert metrics["simulator.points"] == 1
        assert metrics["kernels.programs"] == 1
        assert metrics["simulator.run_self_s"] <= metrics["simulator.run_s"]


def _imports(path: str) -> list[tuple[str, bool]]:
    """``(module, guarded)`` for every import in ``path``; guarded means
    inside a ``try`` that handles ``ImportError``."""
    tree = ast.parse(open(path).read(), path)
    guarded_nodes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            isinstance(h.type, ast.Name) and h.type.id in ("ImportError", "ModuleNotFoundError")
            for h in node.handlers
        ):
            for inner in node.body:
                for sub in ast.walk(inner):
                    guarded_nodes.add(id(sub))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.name, id(node) in guarded_nodes))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                found.append((f"{base}.{alias.name}", id(node) in guarded_nodes))
    return found


BENCH_FILES = [
    os.path.join(HERE, name)
    for name in sorted(os.listdir(HERE))
    if name.endswith(".py") and not name.startswith("test_")
]


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_imports_stay_off_modules_slated_for_deletion(path):
    for module, guarded in _imports(path):
        parts = module.split(".")
        for banned in ("service", "resilience", "codegen_store"):
            assert banned not in parts, f"{module} imported by {path}"
        if "compiled" in parts:
            assert guarded, f"{module} imported without an ImportError guard"


def test_import_scan_sees_the_guarded_compiled_import():
    imports = _imports(os.path.join(HERE, "workload.py"))
    assert ("repro.core.compiled", True) in imports
