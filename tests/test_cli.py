"""Tests for the repro-sim command-line interface."""

import gc
import json
import multiprocessing
import os

import pytest

from repro.cli import build_parser, main
from repro.core.faults import FaultPlan
from repro.core.results import SimulationResult
from repro.core.simcache import SimulationCache
from repro.core.simulator import Simulator
from repro.isa.encoding import InstructionFormat
from repro.kernels.suite import cached_livermore_suite

#: the report's distinct points: 7 sweeps of 25, and 36 ad-hoc points
REPORT_POINTS = 211


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        for argv in (
            ["run", "--cache", "64"],
            ["table", "1"],
            ["figure", "5b"],
            ["experiment", "table2"],
            ["report"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_bad_panel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7a"])

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nope"])


class TestNoSkip:
    @pytest.mark.parametrize("before", [None, "1"], ids=["unset", "set"])
    def test_no_skip_lasts_one_command(self, before, monkeypatch, capsys):
        """``--no-skip`` selects the reference loop for its own command
        only and leaves the environment alone; the retired
        ``REPRO_NO_SKIP``, set or not, selects nothing."""
        if before is None:
            monkeypatch.delenv("REPRO_NO_SKIP", raising=False)
        else:
            monkeypatch.setenv("REPRO_NO_SKIP", before)
        engines = []
        run = Simulator.run

        def spy(sim):
            engines.append(sim.skip)
            return run(sim)

        monkeypatch.setattr(Simulator, "run", spy)
        argv = ["run", "--scale", "0.03", "--cache", "64"]
        assert main(["--no-skip", *argv]) == 0
        assert main(argv) == 0
        assert engines == [False, True]
        assert os.environ.get("REPRO_NO_SKIP") == before

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched module reaches pool workers only by fork",
    )
    def test_no_skip_reaches_pool_workers(self, monkeypatch, tmp_path, capsys):
        """``--no-skip`` travels with a ``--jobs 2`` sweep's pool: here
        building a kernel fails its point, on the workers too, and the
        flagged sweep runs all five points there without one."""
        from repro.core import simulator

        def kernel_for(sim):
            raise AssertionError("a compiled kernel was built")

        monkeypatch.setattr(simulator, "kernel_for", kernel_for)
        faults = tmp_path / "faults.json"
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--jobs", "2", "--no-cache", "--fault-report", str(faults),
        ]
        assert main(["--no-skip", *argv]) == 0
        # no serial fallback: the pool's workers ran every point
        assert json.loads(faults.read_text())["counts"] == {}
        capsys.readouterr()
        assert main(argv) == 1
        assert json.loads(faults.read_text())["counts"] == {"gave_up": 5}
        assert "a compiled kernel was built" in capsys.readouterr().err


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_table1_tiny(self, capsys):
        assert main(["table", "1", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "paper" in out

    def test_run_pipe(self, capsys):
        code = main(
            ["run", "--scale", "0.03", "--cache", "64", "--access", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "icache" in out

    def test_run_conventional(self, capsys):
        code = main(
            [
                "run",
                "--scale",
                "0.03",
                "--strategy",
                "conventional",
                "--cache",
                "64",
            ]
        )
        assert code == 0
        assert "conventional" in capsys.readouterr().out

    def test_figure_csv(self, capsys):
        code = main(
            [
                "figure",
                "4b",
                "--scale",
                "0.03",
                "--sizes",
                "32",
                "128",
                "--csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("strategy,32,128")
        assert "conventional" in out

    def test_figure_table(self, capsys):
        code = main(
            ["figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot"]
        )
        assert code == 0
        assert "Figure 4b" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_figure_uses_the_result_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 5" in out
        # the warm rerun must answer from the cache, bit-identically
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "Figure 4b" in warm
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 5" in out

    def test_no_cache_leaves_no_entries(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32",
            "--no-plot", "--no-cache",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries   : 0" in capsys.readouterr().out

    def test_experiment_accepts_jobs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(
            ["experiment", "table2", "--scale", "0.03", "--jobs", "2"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out


class TestResilienceCli:
    def test_parser_accepts_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "figure", "5b", "--timeout", "30",
                "--max-retries", "3",
                "--inject-faults", "seed=7,kill=0.3",
                "--fault-report", "fr.json",
            ]
        )
        assert args.timeout == 30.0 and args.max_retries == 3
        assert args.inject_faults == FaultPlan(seed=7, worker_kill=0.3)
        assert args.fault_report == "fr.json"

    @pytest.mark.parametrize("flag", ["--resume", "--checkpoint=ck.json"])
    def test_removed_checkpoint_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["figure", "5b", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_supervised_flag_is_rejected(self, capsys):
        """Every sweep runs under one fault policy: there is no
        supervised mode to ask for."""
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "4b", "--supervised"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --supervised" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        ["seed=x", "bogus=1", "kill=7", "hang=-0.5", "hang-seconds=0"],
    )
    def test_malformed_fault_spec_is_a_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "4b", "--inject-faults", spec])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--inject-faults" in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_timeout_must_be_positive_and_finite(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "4b", "--timeout", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--timeout" in err

    @pytest.mark.parametrize("value", ["-3", "-1", "1.5", "two"])
    def test_max_retries_must_be_a_non_negative_integer(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "4b", f"--max-retries={value}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--max-retries" in err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "small"])
    def test_scale_must_be_positive_and_finite(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "1", f"--scale={value}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--scale" in err

    def test_permanently_failed_point_exits_cleanly(
        self, capsys, monkeypatch, tmp_path
    ):
        """A point that stays broken ends the run with status 1 and one
        stderr line naming its machine, after the fault report on
        stderr: no traceback, and stdout carries no fault report."""
        from repro.core import simulator

        simulate = simulator.simulate

        def failing(config, program, *args, **kwargs):
            if config.fetch_strategy.value == "conventional":
                raise RuntimeError("injected point failure")
            return simulate(config, program, *args, **kwargs)

        monkeypatch.setattr(simulator, "simulate", failing)
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--jobs", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "fault report" not in captured.out
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert lines[0] == "fault report  : 1 recovery action(s)"
        assert lines[-1] == (
            "sweep point conventional line=16 cache=32B T=1 bus=8B failed: "
            "RuntimeError: injected point failure"
        )
        # the four points that finished are in the cache
        assert len(SimulationCache(tmp_path).entries()) == 4

    def test_supervised_figure_reports_clean(self, capsys, tmp_path):
        """A clean run prints no fault report, on stdout or stderr, even
        with a policy option set."""
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--timeout", "120", "--jobs", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Figure 4b" in captured.out
        assert "fault report" not in captured.out
        assert captured.err == ""
        # the cache entries are the only record of the finished points
        written = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        assert written == SimulationCache(tmp_path).entries()
        assert len(written) == 5

    def test_rerun_answers_from_the_cache(self, capsys, monkeypatch, tmp_path):
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--jobs", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        hits = []
        lookup = SimulationCache.lookup

        def spy(self, config, program):
            result = lookup(self, config, program)
            hits.append(result is not None)
            return result

        monkeypatch.setattr(SimulationCache, "lookup", spy)
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert hits == [True] * 5

    def test_supervised_no_cache_writes_nothing(
        self, capsys, monkeypatch, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--timeout", "120", "--jobs", "1", "--no-cache",
        ]
        assert main(argv) == 0
        assert "Figure 4b" in capsys.readouterr().out
        assert not cache_dir.exists()

    def test_fault_report_file_written(self, capsys, tmp_path):
        report_path = tmp_path / "fr.json"
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--jobs", "1", "--no-cache",
            "--fault-report", str(report_path),
        ]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(report_path.read_text())
        assert payload == {"events": [], "counts": {}}

    def test_fault_report_implies_supervision(
        self, capsys, monkeypatch, tmp_path
    ):
        """``--fault-report`` writes the run's ledger whatever happened:
        here the gave-up event of a failed point, named by its machine."""
        from repro.core import simulator

        simulate = simulator.simulate

        def failing(config, program, *args, **kwargs):
            if config.fetch_strategy.value == "conventional":
                raise RuntimeError("injected point failure")
            return simulate(config, program, *args, **kwargs)

        monkeypatch.setattr(simulator, "simulate", failing)
        report_path = tmp_path / "fr.json"
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--no-cache", "--jobs", "1",
            "--fault-report", str(report_path),
        ]
        assert main(argv) == 1
        payload = json.loads(report_path.read_text())
        assert payload["counts"] == {"gave_up": 1}
        (event,) = payload["events"]
        assert event["point"] == "conventional line=16 cache=32B T=1 bus=8B"
        assert event["attempt"] == 1

    def test_supervised_parallel_report_sweeps_under_the_supervisor(
        self, capsys, monkeypatch
    ):
        """``report --jobs N --no-cache --timeout S`` runs every sweep
        through the pool loop under the one policy the flags built."""
        import repro.cli
        from repro.core import parallel

        monkeypatch.setattr(repro.cli, "EXPERIMENTS", ("headline",))
        calls = []
        sweep_map = parallel.sweep_map

        def spy(fn, items, **options):
            items = list(items)
            calls.append((len(items), options["policy"]))
            return sweep_map(fn, items, **options)

        monkeypatch.setattr(parallel, "sweep_map", spy)
        argv = [
            "report", "--scale", "0.03", "--jobs", "2", "--no-cache",
            "--timeout", "120",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Experiment: headline" in captured.out
        assert "fault report" not in captured.out + captured.err
        assert calls and sum(count for count, _policy in calls) > 0
        (policy,) = {id(policy): policy for _count, policy in calls}.values()
        assert (policy.timeout, policy.max_retries) == (120.0, 2)
        assert policy.report.clean

    def test_run_without_injection_has_no_rung_banner(self, capsys):
        assert main(["run", "--scale", "0.03", "--cache", "64"]) == 0
        assert "engine rung" not in capsys.readouterr().out


def _live_results() -> int:
    return sum(isinstance(obj, SimulationResult) for obj in gc.get_objects())


@pytest.fixture(scope="module")
def report_runs(tmp_path_factory):
    """A cold ``report --jobs 2`` into a fresh cache, then a warm one,
    with every pool call and cache lookup recorded."""
    from repro.core import parallel

    cache_dir = tmp_path_factory.mktemp("report-cache")
    argv = ["report", "--scale", "0.03", "--jobs", "2", "--cache-dir", str(cache_dir)]
    programs = [
        cached_livermore_suite(fmt=fmt, scale=0.03).program
        for fmt in InstructionFormat
    ]
    for program in programs:
        program._issue_stream = None  # built before the fork, or not at all
    runs = {}
    sweep_map = parallel.sweep_map
    lookup = SimulationCache.lookup
    with pytest.MonkeyPatch.context() as patch:

        def spy_sweep_map(fn, items, **options):
            items = list(items)
            pooled, _skip = options["initargs"]
            runs["calls"].append(
                {
                    "items": len(items),
                    "programs": len(pooled),
                    "streams": [program.issue_stream.end for program in programs],
                }
            )
            return sweep_map(fn, items, **options)

        def spy_lookup(self, config, program):
            runs["lookups"] += 1
            return lookup(self, config, program)

        patch.setattr(parallel, "sweep_map", spy_sweep_map)
        patch.setattr(SimulationCache, "lookup", spy_lookup)
        for run in ("cold", "warm"):
            runs["calls"], runs["lookups"] = [], 0
            gc.collect()
            baseline = _live_results()
            gc.disable()  # what the report leaves for the collector stays put
            try:
                code = main(argv)
                returned = _live_results()
            finally:
                gc.enable()
            gc.collect()
            runs[run] = {
                "code": code,
                "calls": runs["calls"],
                "lookups": runs["lookups"],
                "results": (baseline, returned, _live_results()),
            }
    return runs


class TestOneFanOut:
    """A report lists every experiment's points, resolves them in one
    fan-out over one pool, and only then renders."""

    def test_cold_report_makes_one_pool_call(self, report_runs):
        cold = report_runs["cold"]
        assert cold["code"] == 0
        (call,) = cold["calls"]
        assert call["items"] == REPORT_POINTS
        assert call["programs"] == 2  # the fixed-32 and the parcel program
        assert cold["lookups"] == REPORT_POINTS

    def test_streams_are_finished_before_the_fork(self, report_runs):
        (call,) = report_runs["cold"]["calls"]
        assert None not in call["streams"]

    def test_warm_report_looks_each_point_up_once(self, report_runs):
        warm = report_runs["warm"]
        assert warm["code"] == 0
        assert warm["calls"] == []
        assert warm["lookups"] == REPORT_POINTS

    @pytest.mark.parametrize("run", ["cold", "warm"])
    def test_report_leaves_no_result_to_the_collector(self, report_runs, run):
        """The memo dies with the command, by reference counting: no
        cycle keeps a result alive after ``main`` returns."""
        baseline, returned, collected = report_runs[run]["results"]
        assert returned == collected == baseline


class TestTrace:
    def test_parser_accepts_trace(self):
        args = build_parser().parse_args(
            ["trace", "--loop", "3", "--out", "t.jsonl"]
        )
        assert callable(args.func) and args.loop == 3

    def test_bad_loop_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--loop", "15"])

    def test_trace_single_loop(self, capsys, tmp_path):
        out_path = tmp_path / "ll3.jsonl"
        code = main(
            ["trace", "--loop", "3", "--scale", "0.05", "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "cross-check   : trace metrics match simulator counters" in out
        assert out_path.stat().st_size > 0
        first = out_path.read_text().splitlines()[0]
        assert first.startswith('{"c":0,"o":"sim","k":"begin"')

    @pytest.mark.parametrize("strategy", ["conventional", "tib"])
    def test_trace_other_strategies(self, capsys, strategy):
        code = main(
            ["trace", "--strategy", strategy, "--loop", "3", "--scale", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "cross-check" in out

    def test_run_with_trace_out(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        code = main(
            ["run", "--scale", "0.03", "--trace-out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert f"trace written : {out_path}" in out
        assert out_path.stat().st_size > 0


class TestCacheStatsRobustness:
    def test_stats_on_missing_dir(self, capsys, tmp_path):
        missing = tmp_path / "never-created"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out
        assert "size      : 0.0 KiB" in out
        assert not missing.exists()  # stats must not create the directory

    def test_stats_on_empty_dir(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "entries   : 0" in capsys.readouterr().out

    def test_stats_when_root_is_a_file(self, capsys, tmp_path):
        bogus = tmp_path / "cachefile"
        bogus.write_text("not a directory")
        assert main(["cache", "stats", "--cache-dir", str(bogus)]) == 0
        assert "entries   : 0" in capsys.readouterr().out

    def test_clear_on_missing_dir(self, capsys, tmp_path):
        missing = tmp_path / "never-created"
        assert main(["cache", "clear", "--cache-dir", str(missing)]) == 0
        assert "removed 0" in capsys.readouterr().out


class TestDisasm:
    def test_full_listing(self, capsys):
        from repro.cli import main

        assert main(["disasm", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "halt" in out and "pbrne" in out

    def test_single_loop(self, capsys):
        from repro.cli import main

        assert main(["disasm", "--scale", "0.03", "--loop", "3"]) == 0
        out = capsys.readouterr().out
        assert "inner loop of ll3" in out
        assert "ld r6, 32" in out  # the FPU result pickup


class TestCacheQuarantineCli:
    def test_clear_quarantine_only(self, capsys, tmp_path):
        qdir = tmp_path / "quarantine"
        qdir.mkdir(parents=True)
        (qdir / "bad.json").write_text("{torn")
        (tmp_path / "aaaa.json").write_text("{}")  # a live entry survives
        assert main(
            ["cache", "clear", "--quarantine", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "removed 1 quarantined entry" in out
        assert (tmp_path / "aaaa.json").exists()
        assert list(qdir.glob("*.json")) == []

    def test_clear_quarantine_empty(self, capsys, tmp_path):
        assert main(
            ["cache", "clear", "--quarantine", "--cache-dir", str(tmp_path)]
        ) == 0
        assert "removed 0 quarantined entries" in capsys.readouterr().out

    def test_stats_reports_the_cap(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "cap 4096 KiB / 7 days" in capsys.readouterr().out
