"""``repro-sim`` — command-line front door to the reproduction.

Subcommands::

    repro-sim run        simulate one machine configuration
    repro-sim table      print Table I or Table II
    repro-sim figure     regenerate one figure panel (4a/4b/5a/5b/6a/6b)
    repro-sim experiment run a named experiment with its claim checks
    repro-sim profile    per-loop cycle attribution for one machine
    repro-sim disasm     disassemble the generated benchmark program
    repro-sim report     run every experiment (the EXPERIMENTS.md content)
    repro-sim cache      manage the on-disk simulation result cache

The ``--scale`` option shrinks the benchmark's iteration counts for
quick looks (e.g. ``--scale 0.15``); the paper-fidelity run is scale 1.

Sweep-heavy commands (``figure``, ``experiment``, ``report``) accept
``--jobs N`` to fan independent simulation points out over worker
processes (default: ``REPRO_JOBS`` or the CPU count) and use a
content-addressed result cache under ``.repro_cache/`` (bypass with
``--no-cache``; relocate with ``--cache-dir`` or ``REPRO_CACHE_DIR``).

``report`` runs the experiments one after another in this process;
each sweep or list of points resolves through
:func:`repro.core.sweep.resolve_points`, which fans its cache misses out
over the ``--jobs`` workers.

They also accept the resilience options ``--supervised``,
``--timeout``, ``--max-retries``, ``--resume``, ``--checkpoint`` and
``--fault-report``; any of them but ``--max-retries`` turns supervision
on.  Supervised runs retry failed points, survive worker crashes and
hangs, checkpoint progress for ``--resume``, and print a fault report
of every recovery action — with numbers byte-identical to a clean run.
``--inject-faults SPEC`` (which also implies supervision) arms the
deterministic fault injectors (see :mod:`repro.core.faults`) to
rehearse exactly those recoveries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis.experiments import EXPERIMENTS, ExperimentContext, run_experiment
from .analysis.figures import FIGURES, render_figure, run_figure
from .analysis.tables import (
    render_series_csv,
    render_table1,
    render_table2,
    render_trace_summary,
)
from .core import faults
from .core.config import PAPER_CACHE_SIZES, PIPE_CONFIGURATIONS, MachineConfig
from .core.parallel import resolve_jobs
from .core.resilience import SweepCheckpoint, SweepSupervisor
from .core.scheduler import NO_SKIP_ENV
from .core.simcache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, SimulationCache
from .core.simulator import simulate, simulate_traced
from .core.trace import TraceMetrics
from .kernels.suite import cached_livermore_suite

__all__ = ["main"]


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="benchmark workload scale (1.0 = paper fidelity)",
    )


def _add_perf(parser: argparse.ArgumentParser) -> None:
    """Options shared by the sweep-heavy commands."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent simulation points "
        "(default: REPRO_JOBS or the CPU count; 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk simulation result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="simulation cache directory "
        "(default: REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--supervised",
        action="store_true",
        help="run the sweep under the fault supervisor (retries, crash "
        "recovery, checkpointing); implied by the other resilience "
        "options",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock limit; a point past it is charged a "
        "retry and its hung worker is killed (implies --supervised)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="attempts per point beyond the first before the sweep "
        "gives the point up (default: 2)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="pre-resolve points from the sweep checkpoint left by an "
        "interrupted supervised run (implies --supervised)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="sweep checkpoint manifest "
        "(default: <cache-dir>/sweep-checkpoint.json; implies --supervised)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="arm the deterministic fault injectors: a bare seed, or "
        "'seed=7,kill=0.3,hang=0.1,corrupt=0.5,hang-seconds=2' "
        "(implies --supervised)",
    )
    parser.add_argument(
        "--fault-report",
        default=None,
        metavar="PATH",
        help="also write the supervised run's fault report as JSON "
        "(implies --supervised)",
    )


def _make_cache(args: argparse.Namespace) -> SimulationCache | None:
    if args.no_cache:
        return None
    return SimulationCache(args.cache_dir)


def _make_supervisor(args: argparse.Namespace) -> SweepSupervisor | None:
    """Build the sweep supervisor the resilience options describe.

    Every resilience option but ``--max-retries`` implies supervision;
    with none present the command runs the plain unsupervised path.
    """
    wanted = (
        args.supervised
        or args.resume
        or args.timeout is not None
        or args.checkpoint is not None
        or args.inject_faults is not None
        or args.fault_report is not None
    )
    if not wanted:
        return None
    if args.inject_faults is not None:
        faults.activate(faults.FaultPlan.parse(args.inject_faults))
    checkpoint_path = args.checkpoint
    if checkpoint_path is None:
        root = (
            args.cache_dir
            or os.environ.get(CACHE_DIR_ENV)
            or DEFAULT_CACHE_DIR
        )
        checkpoint_path = os.path.join(root, "sweep-checkpoint.json")
    checkpoint = SweepCheckpoint(checkpoint_path)
    if args.resume:
        checkpoint.load()
    return SweepSupervisor(
        jobs=resolve_jobs(args.jobs),
        timeout=args.timeout,
        max_retries=args.max_retries,
        checkpoint=checkpoint,
        resume=args.resume,
    )


def _finish_supervised(
    args: argparse.Namespace, supervisor: SweepSupervisor | None
) -> None:
    """Print the recovery ledger and disarm any fault injectors."""
    if supervisor is None:
        return
    if supervisor.resumed:
        print(
            f"resumed       : {supervisor.resumed} point(s) from "
            f"{supervisor.checkpoint.path}"
        )
    print(supervisor.report.summary())
    if args.fault_report is not None:
        with open(args.fault_report, "w") as handle:
            json.dump(supervisor.report.to_dict(), handle, indent=2)
        print(f"fault report written : {args.fault_report}")
    if args.inject_faults is not None:
        faults.deactivate()
    if supervisor.checkpoint is not None:
        supervisor.checkpoint.release()  # manifest lock (no-op if unheld)


def _machine_config(args: argparse.Namespace, **extra) -> MachineConfig:
    """Build the machine the run/profile/trace commands describe."""
    common = dict(
        memory_access_time=args.access,
        input_bus_width=args.bus,
        memory_pipelined=getattr(args, "pipelined", False),
        **extra,
    )
    if args.strategy == "pipe":
        return MachineConfig.pipe(args.config, icache_size=args.cache, **common)
    if args.strategy == "tib":
        return MachineConfig.tib(**common)
    return MachineConfig.conventional(icache_size=args.cache, **common)


def _cmd_run(args: argparse.Namespace) -> int:
    suite = cached_livermore_suite(scale=args.scale)
    config = _machine_config(args)
    if args.trace_out is not None:
        result = simulate_traced(config, suite.program, trace_path=args.trace_out)
        print(result.summary())
        print()
        print(render_trace_summary(TraceMetrics.from_dict(result.trace_metrics)))
        print(f"trace written : {args.trace_out}")
    else:
        result = simulate(config, suite.program)
        print(result.summary())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    loops = (args.loop,) if args.loop is not None else None
    suite = cached_livermore_suite(scale=args.scale, loops=loops)
    config = _machine_config(args)
    result = simulate_traced(config, suite.program, trace_path=args.out)
    metrics = TraceMetrics.from_dict(result.trace_metrics)
    print(render_trace_summary(metrics))
    if args.out is not None:
        print(f"trace written : {args.out}")
    problems = metrics.verify_against(result)
    if problems:
        print("trace/result mismatch:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("cross-check   : trace metrics match simulator counters")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        print(render_table1(cached_livermore_suite(scale=args.scale)))
    else:
        print(render_table2())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    suite = cached_livermore_suite(scale=args.scale)
    sizes = args.sizes or list(PAPER_CACHE_SIZES)
    supervisor = _make_supervisor(args)
    try:
        series = run_figure(
            args.panel,
            suite.program,
            cache_sizes=sizes,
            jobs=resolve_jobs(args.jobs),
            cache=_make_cache(args),
            supervisor=supervisor,
        )
    finally:
        _finish_supervised(args, supervisor)
    if args.csv:
        print(render_series_csv(series, sizes))
    else:
        print(render_figure(args.panel, series, sizes, plot=not args.no_plot))
    return 0


def _make_context(
    scale: float,
    jobs: int = 1,
    cache: SimulationCache | None = None,
    supervisor: SweepSupervisor | None = None,
) -> ExperimentContext:
    suite = cached_livermore_suite(scale=scale)
    return ExperimentContext(
        program=suite.program,
        suite=suite,
        scale=scale,
        jobs=jobs,
        cache=cache,
        supervisor=supervisor,
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    from .analysis.profile import (
        profile_engine,
        profile_program,
        render_codegen_stats,
        render_engine_profile,
        render_profile,
    )

    suite = cached_livermore_suite(scale=args.scale)
    config = _machine_config(args)
    if args.engine:
        print(render_engine_profile(
            profile_engine(config, suite.program, suite.regions())
        ))
    else:
        report = profile_program(config, suite.program, suite.regions())
        print(render_profile(report))
    print(render_codegen_stats())
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    suite = cached_livermore_suite(scale=args.scale)
    if args.loop is not None:
        label = f"ll{args.loop}"
        begin = suite.program.marker(f"{label}.inner.begin")
        end = suite.program.marker(f"{label}.inner.end")
        print(f"; inner loop of {label} ({end - begin} bytes)")
        print(suite.program.disassemble(begin, end))
    else:
        print(suite.program.disassemble())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    supervisor = _make_supervisor(args)
    context = _make_context(
        args.scale,
        jobs=resolve_jobs(args.jobs),
        cache=_make_cache(args),
        supervisor=supervisor,
    )
    try:
        report = run_experiment(args.name, context)
    finally:
        _finish_supervised(args, supervisor)
    print(report.text)
    print()
    print(report.render_checks())
    return 0 if report.all_passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    jobs = resolve_jobs(args.jobs)
    cache = _make_cache(args)
    supervisor = _make_supervisor(args)
    print(
        f"repro-sim report: scale={args.scale} jobs={jobs} "
        f"cache={'off' if cache is None else cache.root}"
    )
    print()
    failed = False
    # The experiments run one after another in this process and each
    # sweep or point list fans its misses out over `jobs` workers.  The
    # context's sweep memo shares whole sweeps between experiments, and
    # the result cache shares single points.
    context = _make_context(
        args.scale, jobs=jobs, cache=cache, supervisor=supervisor
    )
    try:
        for experiment_id in EXPERIMENTS:
            report = run_experiment(experiment_id, context)
            print(f"{'=' * 70}")
            print(f"Experiment: {experiment_id}")
            print(f"{'=' * 70}")
            print(report.text)
            print()
            print(report.render_checks())
            print()
            failed = failed or not report.all_passed
    finally:
        _finish_supervised(args, supervisor)
    if cache is not None:
        print(
            f"simulation cache: {cache.stats.hits} hits, "
            f"{cache.stats.misses} misses ({cache.root})"
        )
    return 1 if failed else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = SimulationCache(args.cache_dir)
    if args.action == "stats":
        print(cache.describe())
    else:  # clear
        if args.quarantine:
            removed = cache.clear_quarantine()
            print(
                f"removed {removed} quarantined entr"
                f"{'y' if removed == 1 else 'ies'} from "
                f"{cache.root / 'quarantine'}"
            )
            return 0
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .core.fuzz import run_corpus, run_fuzz

    configs = args.configs.split(",") if args.configs else None
    engines = args.engines.split(",") if args.engines else None
    progress = None if args.quiet else print
    if args.corpus is not None:
        report = run_corpus(
            args.corpus, configs=configs, progress=progress, engines=engines
        )
    else:
        report = run_fuzz(
            start_seed=args.seed,
            count=args.count,
            budget=args.budget,
            configs=configs,
            failures_dir=args.save_failures,
            shrink=not args.no_shrink,
            progress=progress,
            engines=engines,
        )
    print(report.summary())
    for failure in report.failures:
        print(f"  seed {failure.seed} [{failure.config_name}]:")
        for problem in failure.problems:
            print(f"    {problem}")
        if failure.reproducer_path:
            print(f"    reproducer: {failure.reproducer_path}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Reproduction of Farrens & Pleszkun (ISCA 1989)",
    )
    parser.add_argument(
        "--no-skip",
        action="store_true",
        help="run the reference cycle-by-cycle loop: no idle-cycle "
        "skipping, and so no loop replay or compiled kernel either "
        "(results are identical; equivalent to REPRO_NO_SKIP=1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate one configuration")
    run_parser.add_argument(
        "--strategy", choices=("pipe", "conventional", "tib"), default="pipe"
    )
    run_parser.add_argument(
        "--config", choices=sorted(PIPE_CONFIGURATIONS), default="16-16"
    )
    run_parser.add_argument("--cache", type=int, default=128)
    run_parser.add_argument("--access", type=int, default=6)
    run_parser.add_argument("--bus", type=int, default=8)
    run_parser.add_argument("--pipelined", action="store_true")
    run_parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also capture a JSONL event trace to PATH (with summary panel)",
    )
    _add_scale(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    trace_parser = sub.add_parser(
        "trace", help="capture a cycle-level event trace of one run"
    )
    trace_parser.add_argument(
        "--strategy", choices=("pipe", "conventional", "tib"), default="pipe"
    )
    trace_parser.add_argument(
        "--config", choices=sorted(PIPE_CONFIGURATIONS), default="16-16"
    )
    trace_parser.add_argument("--cache", type=int, default=128)
    trace_parser.add_argument("--access", type=int, default=6)
    trace_parser.add_argument("--bus", type=int, default=8)
    trace_parser.add_argument("--pipelined", action="store_true")
    trace_parser.add_argument(
        "--loop", type=int, choices=range(1, 15), default=None,
        help="trace only this Livermore loop (a much smaller program)",
    )
    trace_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSONL event stream to PATH (omit for summary only)",
    )
    _add_scale(trace_parser)
    trace_parser.set_defaults(func=_cmd_trace)

    table_parser = sub.add_parser("table", help="print Table I or II")
    table_parser.add_argument("number", type=int, choices=(1, 2))
    _add_scale(table_parser)
    table_parser.set_defaults(func=_cmd_table)

    figure_parser = sub.add_parser("figure", help="regenerate a figure panel")
    figure_parser.add_argument("panel", choices=sorted(FIGURES))
    figure_parser.add_argument("--sizes", type=int, nargs="*", default=None)
    figure_parser.add_argument("--csv", action="store_true")
    figure_parser.add_argument("--no-plot", action="store_true")
    _add_scale(figure_parser)
    _add_perf(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    profile_parser = sub.add_parser("profile", help="per-loop cycle profile")
    profile_parser.add_argument(
        "--strategy", choices=("pipe", "conventional"), default="pipe"
    )
    profile_parser.add_argument(
        "--config", choices=sorted(PIPE_CONFIGURATIONS), default="16-16"
    )
    profile_parser.add_argument("--cache", type=int, default=128)
    profile_parser.add_argument("--access", type=int, default=6)
    profile_parser.add_argument("--bus", type=int, default=8)
    profile_parser.add_argument(
        "--engine",
        action="store_true",
        help="profile the replay engine instead: per-loop live vs "
        "replayed cycle fractions and signature-match statistics",
    )
    _add_scale(profile_parser)
    profile_parser.set_defaults(func=_cmd_profile)

    disasm_parser = sub.add_parser("disasm", help="disassemble the benchmark")
    disasm_parser.add_argument(
        "--loop", type=int, choices=range(1, 15), default=None,
        help="show only this Livermore loop's inner loop",
    )
    _add_scale(disasm_parser)
    disasm_parser.set_defaults(func=_cmd_disasm)

    experiment_parser = sub.add_parser("experiment", help="run one experiment")
    experiment_parser.add_argument("name", choices=EXPERIMENTS)
    _add_scale(experiment_parser)
    _add_perf(experiment_parser)
    experiment_parser.set_defaults(func=_cmd_experiment)

    report_parser = sub.add_parser("report", help="run every experiment")
    _add_scale(report_parser)
    _add_perf(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    cache_parser = sub.add_parser(
        "cache", help="manage the simulation result cache"
    )
    cache_parser.add_argument("action", choices=("stats", "clear"))
    cache_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    cache_parser.add_argument(
        "--quarantine",
        action="store_true",
        help="clear only the quarantined (corrupt) entries, keep "
        "everything else",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential-fuzz the four engines with generated kernels",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0, help="first seed of the range"
    )
    fuzz_parser.add_argument(
        "--count", type=int, default=100, help="number of seeded cases"
    )
    fuzz_parser.add_argument(
        "--budget",
        default="default",
        help="shape budget name (see repro.kernels.generate.BUDGETS)",
    )
    fuzz_parser.add_argument(
        "--configs",
        default=None,
        help="comma-separated machine configs to cycle through "
        "(default: all fuzz configs)",
    )
    fuzz_parser.add_argument(
        "--engines",
        default=None,
        help="comma-separated engines to compare, from reference, "
        "idle-skip, skip+replay and compiled (the reference baseline is "
        "always included; default: all four)",
    )
    fuzz_parser.add_argument(
        "--corpus",
        default=None,
        help="instead of generating, re-check every JSON reproducer in "
        "this directory on every config",
    )
    fuzz_parser.add_argument(
        "--save-failures",
        default="test-reports/fuzz",
        help="directory for minimized JSON reproducers of failing cases",
    )
    fuzz_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="save failing workloads as generated, without minimizing",
    )
    fuzz_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress lines"
    )
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.no_skip:
        # Via the environment so parallel sweep workers inherit it too.
        os.environ[NO_SKIP_ENV] = "1"
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
