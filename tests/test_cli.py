"""Tests for the repro-sim command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


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
                "figure", "5b", "--supervised", "--timeout", "30",
                "--max-retries", "3", "--resume", "--checkpoint", "ck.json",
                "--inject-faults", "seed=7,kill=0.3",
                "--fault-report", "fr.json",
            ]
        )
        assert args.supervised and args.resume
        assert args.timeout == 30.0 and args.max_retries == 3
        assert args.checkpoint == "ck.json"
        assert args.inject_faults == "seed=7,kill=0.3"
        assert args.fault_report == "fr.json"

    def test_supervised_figure_reports_clean(self, capsys, tmp_path):
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--supervised", "--jobs", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Figure 4b" in out
        assert "fault report  : clean" in out
        assert (tmp_path / "sweep-checkpoint.json").exists()

    def test_resume_answers_from_the_checkpoint(self, capsys, tmp_path):
        base = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--jobs", "1", "--no-cache",
            "--checkpoint", str(tmp_path / "ck.json"),
        ]
        assert main(base + ["--supervised"]) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed       : 5 point(s)" in out

    def test_fault_report_file_written(self, capsys, tmp_path):
        report_path = tmp_path / "fr.json"
        argv = [
            "figure", "4b", "--scale", "0.03", "--sizes", "32", "--no-plot",
            "--supervised", "--jobs", "1", "--no-cache",
            "--checkpoint", str(tmp_path / "ck.json"),
            "--fault-report", str(report_path),
        ]
        assert main(argv) == 0
        payload = json.loads(report_path.read_text())
        assert payload["events"] == []
        assert payload["counts"] == {}
        # Satellite: a clean sweep still reports which rung served each
        # point, so the compiled rung's engagement rate is observable.
        assert set(payload["rungs"]) == {"compiled"}
        assert sum(payload["rungs"].values()) >= 1

    def test_run_with_injected_replay_divergence(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        code = main(
            [
                "run", "--scale", "0.03", "--cache", "64",
                "--inject-faults", "diverge=1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine rung   : idle-skip" in out
        assert "degraded" in out
        # the injectors must be disarmed again afterwards
        import os

        assert "REPRO_FAULT_PLAN" not in os.environ

    def test_run_without_injection_has_no_rung_banner(self, capsys):
        assert main(["run", "--scale", "0.03", "--cache", "64"]) == 0
        assert "engine rung" not in capsys.readouterr().out


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
