"""Record one point of the benchmark trajectory (``BENCH_<n>.json``).

Runs the repository benchmark, ``python3 e2ebench/run.py``, in a
checkout: each workload untraced once per seed, then traced once on the
first seed.  It writes one JSON file naming the commit, the host and
the Python version, and, per workload, the median, the quartiles and
every run of each end-to-end metric ``BENCHMARK.json`` declares, each
run's ``correct``/``attempted``/``failed``, and the traced run's
per-layer metrics.  Standard library only.

From the repository root::

    python3 benchmarks/bench_trajectory.py --out BENCH_25.json
    python3 benchmarks/bench_trajectory.py --root <other checkout> \\
        --commit <sha> --out BENCH_24.json
    python3 benchmarks/bench_trajectory.py --workloads headline-points \\
        --seeds 301 --seconds 2 --out bench.json

The runs are sequential: the benchmark times wall clock, so two runs
at once would slow each other.  The exit status is 1 when any run
exits badly or counts a failed operation (the file is written anyway).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEEDS = (301, 302, 303, 304, 305)


def _git(root: str, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def _commit(root: str) -> str | None:
    """HEAD of ``root``'s git repository, with ``-dirty`` appended when
    tracked files differ from it, or ``None`` outside a repository."""
    try:
        head = _git(root, "rev-parse", "HEAD")
        dirty = _git(root, "status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return f"{head}-dirty" if dirty else head


def _host() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": model,
        "cpus": os.cpu_count(),
    }


def run_benchmark(
    root: str, workload: str, seed: int, seconds: int, trace: bool
) -> dict:
    """One ``e2ebench/run.py`` invocation in ``root``: its JSON result
    (``correct``, ``attempted``, ``failed``, ``metrics`` as name →
    value), or an ``error`` entry when it exits badly."""
    command = [
        sys.executable,
        "e2ebench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
    ]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    run = {"seed": seed, "wall_s": round(time.monotonic() - started, 1)}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        run.update(correct=False, failed=None, error=proc.stderr[-2000:])
        return run
    result = json.loads(lines[-1])
    run.update(
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={name: entry["value"] for name, entry in result["metrics"].items()},
    )
    return run


def summarise(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def measure_workload(root: str, workload: str, metrics: list[str], args) -> dict:
    runs = []
    for seed in args.seeds:
        runs.append(run_benchmark(root, workload, seed, args.seconds, trace=False))
        print(f"{workload} seed {seed}: {_brief(runs[-1])}", file=sys.stderr)
    traced = run_benchmark(root, workload, args.seeds[0], args.seconds, trace=True)
    print(f"{workload} seed {args.seeds[0]} traced: {_brief(traced)}", file=sys.stderr)
    end_to_end = {}
    for name in metrics:
        values = [run["metrics"][name] for run in runs if "metrics" in run]
        if values:
            end_to_end[name] = summarise(values)
    everything = [*runs, traced]
    return {
        "correct": all(run["correct"] for run in everything),
        "failed": sum(run["failed"] or 0 for run in everything),
        "errors": sum("error" in run for run in everything),
        "end_to_end": end_to_end,
        "runs": runs,
        "traced": traced,
    }


def _brief(run: dict) -> str:
    if "error" in run:
        return "exited badly"
    return f"correct={run['correct']} failed={run['failed']} ({run['wall_s']} s)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument(
        "--root", default=REPO, help="checkout to measure (default: this one)"
    )
    parser.add_argument(
        "--commit", help="commit to record (default: the checkout's git HEAD)"
    )
    parser.add_argument(
        "--workloads", nargs="+", help="default: every workload BENCHMARK.json declares"
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=list(DEFAULT_SEEDS))
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declaration = json.load(handle)
    metrics = [metric["name"] for metric in declaration["end_to_end"]]
    workloads = args.workloads or [w["name"] for w in declaration["workloads"]]
    document = {
        "commit": args.commit or _commit(root),
        "host": _host(),
        "python": platform.python_version(),
        "command": declaration["command"],
        "seeds": args.seeds,
        "seconds": args.seconds,
        "units": {m["name"]: m["unit"] for m in declaration["end_to_end"]},
        "workloads": {
            workload: measure_workload(root, workload, metrics, args)
            for workload in workloads
        },
    }
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    ok = all(
        w["correct"] and w["failed"] == 0 and w["errors"] == 0
        for w in document["workloads"].values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
