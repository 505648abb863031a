"""The repository benchmark: time of the paper report, the headline
points and generated programs on the default engine stack, in host
seconds scaled to a reference host speed.

Run from the repository root::

    python3 e2ebench/run.py --workload headline-points --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload generated-mix --seed 7 --seconds 20 --trace 1
    python3 e2ebench/run.py --write-goldens

Every measurement runs the workload in a fresh interpreter
(``workload.py``) with a fresh ``REPRO_CACHE_DIR`` under
``.e2ebench_work/`` in the current directory, which is removed
afterwards.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload untraced and then traced over the same passes and
prints the per-layer metrics with the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and the
metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import tail_percentile  # noqa: E402
from workload import REFERENCE_PROBE_S, REPORT_SCALE  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-report", "headline-points", "generated-mix")
DEFAULT_SEED = 1
#: set-up is timed in at least SETUP_REPEATS fresh processes, and in
#: more (up to SETUP_MAX_REPEATS) while they take under SETUP_SPAN_S in
#: all; ``setup_s`` is their median
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 12
SETUP_SPAN_S = 6.0
#: a run must end within 180 s; children share this budget
RUN_BUDGET_S = 170.0
GOLDENS = os.path.join(HERE, "goldens.json")
#: the metric declarations (names and units) this runner must report
DECLARATION = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORK_ROOT = ".e2ebench_work"
#: "up to twice as fast": conventional over best PIPE cycles at a 32 B
#: cache, T=6, 4 B bus, as EXPERIMENTS.md records it
PAPER_HEADLINE_SPEEDUP = 2.08



class ChildFailed(RuntimeError):
    """A workload process exited badly or overran the run budget."""


class Runner:
    """Starts workload processes for one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: int, work: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0

    def spawn(self, **options) -> dict:
        """One fresh interpreter; returns its output plus ``setup_s``."""
        self.count += 1
        work = os.path.join(self.work, f"child-{self.count}")
        cache = os.path.join(work, "cache")
        os.makedirs(cache)
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "work_dir": work,
            **options,
        }
        spec_path = os.path.join(work, "spec.json")
        out_path = os.path.join(work, "out.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=os.path.abspath("src"),
            # one string-hash layout for every process, so dict and set
            # layouts do not add run-to-run variance
            PYTHONHASHSEED="0",
            REPRO_CACHE_DIR=cache,
            TMPDIR=work,
        )
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("run budget exhausted before the next process")
        started = time.perf_counter()
        # its own process group, so an overrun also ends its pool workers
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workload.py"), spec_path, out_path],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed("workload process overran the run budget")
        if proc.returncode != 0:
            raise ChildFailed(f"workload process exited {proc.returncode}:\n{stderr[-4000:]}")
        with open(out_path) as handle:
            out = json.load(handle)
        # perf_counter is the system-wide monotonic clock here, so the
        # child's mark and this process's start time are comparable
        host_s = out["ready_at"] - started - out["setup_probes_s"]
        out["setup_s"] = host_s * out["setup_scale"]
        return out


# ----------------------------------------------------------------------
# Correctness: every output against the goldens (or the reference loop)
# ----------------------------------------------------------------------
def check(workload: str, out: dict, goldens: dict) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one workload process."""
    if workload == "paper-report":
        golden = goldens["report"]
        claims = golden["pass"] + golden["fail"]
        attempted = failed = 0
        for record in out["report_passes"]:
            attempted += claims
            if (
                record.get("rc") != 0
                or record.get("digest") != golden["digest"]
                or record.get("pass") != golden["pass"]
            ):
                failed += claims
            else:
                failed += record["fail"]
        return attempted, failed
    if workload == "headline-points":
        golden = goldens["headline"]
        points = [pair for round_ in out["headline_rounds"] for pair in round_]
        failed = sum(
            record != golden[name] or not record.get("halted")
            for name, record in points
        )
        failed += out["model"] != goldens["model"]
        return len(points) + 1, failed
    records = out["generated_records"]
    expected = out.get("generated_reference")
    if expected is None:
        expected = goldens["generated"]
    attempted = sum(len(row) for row in records) + out["warm_points"]
    failed = out["warm_mismatches"]
    for row, want in zip(records, expected):
        failed += sum(a != b or not a.get("halted") for a, b in zip(row, want))
    failed += sum(len(row) for row in records[len(expected):])
    return attempted, failed


def end_to_end(outs: list[dict]) -> dict:
    """``outs`` are every process of the run, the measured one last; the
    headline processes also time their cold warm-up round in set-up."""
    main = outs[-1]
    return {
        "setup_s": statistics.median(out["setup_s"] for out in outs),
        "cold_pass_s": statistics.median(
            out["cold_pass_s"] for out in outs if "cold_pass_s" in out
        ),
        "warm_pass_s": main["warm_pass_s"],
        "point_p50_s": main["point_p50_s"],
        "sim_minstr_per_s": main["sim_minstr_per_s"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced["layers"])
    for name, value in traced.get("model", {}).items():
        metrics[f"model.{name}"] = value
    plain = untraced["timed_wall"]
    overhead = traced["timed_wall"] - plain
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / plain
    return metrics


def declared(trace: bool) -> dict[str, str]:
    """Name → unit of every metric BENCHMARK.json declares for this mode."""
    with open(DECLARATION) as handle:
        declaration = json.load(handle)
    section = declaration["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def describe(out: dict) -> list[str]:
    """Human-readable lines printed above the JSON result."""
    probes = out["probes"]
    lines = [
        f"host speed: median probe {probes['median_s'] * 1e3:.2f} ms over "
        f"{probes['count']} probes (reference {REFERENCE_PROBE_S * 1e3:.0f} ms); "
        "times are in reference seconds"
    ]
    times = out.get("point_times") or []
    if times:
        lines.append(
            f"points timed one by one: {len(times)}, "
            f"p50 {statistics.median(times):.6f} s"
        )
        try:
            pct, value = tail_percentile(times)
            lines.append(f"point tail: p{pct:.2f} = {value:.6f} s (>= 10 samples beyond)")
        except ValueError:
            lines.append("point tail: fewer than 11 timed points, none reported")
    model = out.get("model")
    if model:
        lines.append(
            f"model.headline_speedup {model['headline_speedup']:.4f}x "
            f"(conventional {model['conv_cycles']} / PIPE 16-32 "
            f"{model['pipe_best_cycles']} cycles at 32 B, T=6, 4 B bus) beside "
            f"the paper's 'up to twice as fast' ({PAPER_HEADLINE_SPEEDUP}x in "
            "EXPERIMENTS.md); absolute cycle counts are unvalidated against "
            "the paper, whose compiler is lost: only the shapes are reproduced"
        )
    passes = out.get("report_passes", [])
    tallies = sorted({(r["pass"], r["fail"]) for r in passes if "pass" in r})
    if passes:
        lines.append(
            f"report passes: {len(passes)}; claim tallies: "
            + ", ".join(f"{p} PASS / {f} FAIL" for p, f in tallies)
        )
    return lines


def measure(runner: Runner, trace: bool, goldens: dict) -> dict:
    reference = runner.workload == "generated-mix" and runner.seed != DEFAULT_SEED
    attempted = failed = 0
    if not trace:
        outs: list[dict] = []
        while len(outs) < SETUP_REPEATS - 1 or (
            len(outs) < SETUP_MAX_REPEATS - 1
            and sum(out["setup_s"] for out in outs) < SETUP_SPAN_S
        ):
            outs.append(runner.spawn(setup_only=True))
        out = runner.spawn(verify_reference=reference)
        outs.append(out)
        attempted, failed = check(runner.workload, out, goldens)
        metrics = end_to_end(outs)
        lines = describe(out)
    else:
        untraced = runner.spawn(verify_reference=reference)
        traced = runner.spawn(trace=True, plan=untraced["plan"])
        if reference:  # one reference pass serves both processes
            traced["generated_reference"] = untraced["generated_reference"]
        for out in (untraced, traced):
            a, f = check(runner.workload, out, goldens)
            attempted += a
            failed += f
        metrics = per_layer(untraced, traced)
        lines = describe(traced)
        lines.append(f"spans recorded: {traced['traced_spans']}")
    for line in lines:
        print(line)
    units = declared(trace)
    for name in units:
        if name.startswith("model."):
            metrics.setdefault(name, 0)  # only headline-points simulates them
    return {
        "correct": failed == 0 and all(metrics[name] is not None for name in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def write_goldens(work: str) -> None:
    """Record the default seed's outputs as the goldens."""
    goldens: dict = {"default_seed": DEFAULT_SEED, "report_scale": REPORT_SCALE}
    for workload in WORKLOADS:
        out = Runner(workload, DEFAULT_SEED, 0, os.path.join(work, workload)).spawn()
        if workload == "paper-report":
            first = out["report_passes"][0]
            goldens["report"] = {key: first[key] for key in ("digest", "pass", "fail")}
        elif workload == "headline-points":
            goldens["headline"] = dict(out["headline_rounds"][0])
            goldens["model"] = out["model"]
        else:
            goldens["generated"] = out["generated_records"]
    with open(GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-goldens",
        action="store_true",
        help="record the default seed's outputs as the goldens and exit",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print("e2ebench: run from a repository root (src/repro not found)", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_goldens:
        parser.error("--workload is required")
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    try:
        if args.write_goldens:
            write_goldens(work)
            return 0
        with open(GOLDENS) as handle:
            goldens = json.load(handle)
        result = measure(
            Runner(args.workload, args.seed, args.seconds, work),
            bool(args.trace),
            goldens,
        )
    except ChildFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
