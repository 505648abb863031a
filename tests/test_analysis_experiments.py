"""Tests for the experiment runners (reduced scale, reduced sizes).

The full-fidelity claim checks run in the benchmark harness; here we
verify every experiment runs end to end, produces reports, and that the
shape checks *pass at a representative reduced scale* for the
table-style experiments.  The figure-level claims at reduced scale are
exercised in test_paper_shapes.py.
"""

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    run_experiment,
)
from repro.core.resilience import SweepCheckpoint, SweepSupervisor
from repro.core.simcache import result_key

CACHE_SIZES = (32, 128, 512)


@pytest.fixture(scope="module")
def context(small_suite):
    return ExperimentContext(
        program=small_suite.program,
        cache_sizes=CACHE_SIZES,
        suite=small_suite,
        scale=0.10,
    )


class TestTableExperiments:
    def test_table1(self, context):
        report = run_experiment("table1", context)
        assert "Table I" in report.text
        assert report.all_passed, report.render_checks()

    def test_table2(self, context):
        report = run_experiment("table2", context)
        assert "Table II" in report.text
        assert report.all_passed, report.render_checks()


class TestExperimentPlumbing:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table2",
            "figure4",
            "figure5",
            "figure6",
            "headline",
            "ablations",
            "hill",
            "tib",
            "queues",
            "assoc",
            "delays",
        }

    def test_unknown_experiment_rejected(self, context):
        with pytest.raises(KeyError):
            run_experiment("figure9", context)

    def test_supervisor_covers_ad_hoc_points(
        self, tiny_suite, tmp_path, monkeypatch
    ):
        """``simulate_many`` (queues) and ``simulate`` (delays) run under
        the context's supervisor: every point they simulate is
        checkpointed, and the reports match an unsupervised context."""
        from repro.core import simulator

        simulated = []
        real_simulate = simulator.simulate

        def spy(config, program, **engine):
            simulated.append(result_key(config, program))
            return real_simulate(config, program, **engine)

        def fresh_context(supervisor=None):
            return ExperimentContext(
                program=tiny_suite.program,
                suite=tiny_suite,
                scale=0.03,
                supervisor=supervisor,
            )

        experiments = ("queues", "delays")
        supervisor = SweepSupervisor(
            jobs=1, checkpoint=SweepCheckpoint(tmp_path / "ck.json")
        )
        supervised = fresh_context(supervisor)
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "simulate", spy)
            reports = [run_experiment(name, supervised) for name in experiments]
        supervisor.checkpoint.release()
        plain = fresh_context()
        for report, name in zip(reports, experiments):
            reference = run_experiment(name, plain)
            assert report.text == reference.text
            assert report.render_checks() == reference.render_checks()

        manifest = SweepCheckpoint(tmp_path / "ck.json")
        assert manifest.load() == len(set(simulated)) > 0
        assert all(manifest.get(key) is not None for key in simulated)
        assert supervisor.report.clean

    def test_sweep_memoisation(self, context):
        """Two experiments sharing a parameter point reuse the sweep."""
        before = dict(context._sweeps)
        series_one = context.sweep(memory_access_time=6, input_bus_width=8)
        series_two = context.sweep(memory_access_time=6, input_bus_width=8)
        assert series_one is series_two
        assert len(context._sweeps) == len(before) + 1


class TestHeadlineExperiment:
    def test_runs_and_reports(self, context):
        report = run_experiment("headline", context)
        assert "speedup" in report.text
        assert report.checks
        assert report.all_passed, report.render_checks()


class TestExtensionExperiments:
    """The extension experiments (Hill policies, TIB, queue sizes,
    associativity) must run and their findings must hold at reduced
    scale just like the paper's own figures."""

    def test_hill(self, context):
        report = run_experiment("hill", context)
        assert "always" in report.text
        assert report.all_passed, report.render_checks()

    def test_tib(self, context):
        report = run_experiment("tib", context)
        assert "TIB" in report.text
        assert report.all_passed, report.render_checks()

    def test_queues(self, context):
        report = run_experiment("queues", context)
        assert "IQ" in report.text
        assert report.all_passed, report.render_checks()

    def test_associativity(self, context):
        report = run_experiment("assoc", context)
        assert "1-way" in report.text
        assert report.all_passed, report.render_checks()

    def test_delay_slots(self, context):
        report = run_experiment("delays", context)
        assert "delay" in report.text
        assert report.all_passed, report.render_checks()
