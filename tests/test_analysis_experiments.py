"""Tests for the experiment runners (reduced scale, reduced sizes).

The full-fidelity claim checks run in the benchmark harness; here we
verify every experiment runs end to end, produces reports, and that the
shape checks *pass at a representative reduced scale* for the
table-style experiments.  The figure-level claims at reduced scale are
exercised in test_paper_shapes.py.
"""

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentContext,
    experiment_points,
    run_experiment,
)
from repro.core.config import PAPER_CACHE_SIZES
from repro.core.resilience import FaultPolicy
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

    def test_supervisor_covers_ad_hoc_points(self, tiny_suite, monkeypatch):
        """The ad-hoc points of queues (seven machines) and delays (one)
        are simulated under the context's fault policy: every point goes
        through the sweep path with it, and the reports match a context
        with a default policy."""
        from repro.core import simulator, sweep

        simulated = []
        covered = []
        real_simulate = simulator.simulate
        real_simulate_many = sweep.simulate_many

        def spy(config, program, **engine):
            simulated.append(result_key(config, program))
            return real_simulate(config, program, **engine)

        def simulate_many(points, policy=None, **options):
            assert policy is policed_context.policy
            covered.extend(result_key(config, program) for program, config in points)
            return real_simulate_many(points, policy=policy, **options)

        def fresh_context(policy):
            return ExperimentContext(
                program=tiny_suite.program,
                suite=tiny_suite,
                scale=0.03,
                policy=policy,
            )

        experiments = ("queues", "delays")
        policed_context = fresh_context(FaultPolicy(timeout=120.0))
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "simulate", spy)
            patch.setattr(sweep, "simulate_many", simulate_many)
            reports = [
                run_experiment(name, policed_context) for name in experiments
            ]
        plain = fresh_context(FaultPolicy())
        for report, name in zip(reports, experiments):
            reference = run_experiment(name, plain)
            assert report.text == reference.text
            assert report.render_checks() == reference.render_checks()

        assert sorted(covered) == sorted(simulated)
        assert len(set(simulated)) > 0
        assert policed_context.policy.report.clean

    def test_sweep_memoisation(self, context, monkeypatch):
        """Two experiments sharing a parameter point share its results:
        points already in the memo make no second fan-out, and every
        read of the sweep gets the same result objects."""
        memory = {"memory_access_time": 6, "input_bus_width": 8}
        context.resolve(context.sweep_points(memory))

        def fan_out(*args, **kwargs):
            raise AssertionError("a resolved point was resolved again")

        monkeypatch.setattr(experiments, "resolve_points", fan_out)
        context.resolve(context.sweep_points(memory))
        series_one = context.sweep(**memory)
        series_two = context.sweep(**memory)
        assert [s.cycles for s in series_one] == [s.cycles for s in series_two]
        for one, two in zip(series_one, series_two):
            assert all(a is b for a, b in zip(one.results, two.results))

    def test_a_point_missing_from_the_list_raises(self, tiny_suite, monkeypatch):
        """``run`` reads only the memo: a point that ``points`` left out
        raises, naming its machine, and is not simulated on the side."""
        from repro.analysis.experiments import tib
        from repro.core import sweep

        fan_outs = []
        real_simulate_many = sweep.simulate_many

        def simulate_many(points, **options):
            fan_outs.append(len(points))
            return real_simulate_many(points, **options)

        monkeypatch.setattr(sweep, "simulate_many", simulate_many)
        listed = tib.points
        monkeypatch.setattr(tib, "points", lambda context: listed(context)[:-1])
        context = ExperimentContext(
            program=tiny_suite.program, suite=tiny_suite, scale=0.03
        )
        with pytest.raises(KeyError, match="PIPE 16-16 line=16 cache=32B T=6 bus=8B"):
            run_experiment("tib", context)
        assert fan_outs == [6]

    def test_every_report_point_has_its_own_label(self, small_suite):
        """The report's distinct points have distinct labels, so one
        fault report for the whole report names each machine apart."""
        context = ExperimentContext(
            program=small_suite.program,
            cache_sizes=PAPER_CACHE_SIZES,
            suite=small_suite,
            scale=0.10,
        )
        distinct = {
            (id(program), config): config
            for program, config in experiment_points(EXPERIMENTS, context)
        }
        labels = {config.label() for config in distinct.values()}
        assert len(labels) == len(distinct) == 211
        # the one-line description alone leaves out what tells them apart
        assert len({config.describe() for config in distinct.values()}) < 211


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
