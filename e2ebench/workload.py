"""One benchmark workload, run inside a fresh interpreter.

The runner (``run.py``) starts this script once per measurement::

    PYTHONPATH=src python3 e2ebench/workload.py SPEC.json OUT.json

``SPEC`` names the workload, the seed, the run length, whether to stop
right after set-up (so set-up can be timed in several fresh processes)
and whether to record layer spans.  ``OUT`` receives the set-up mark,
every pass's and point's time in reference seconds (see
:class:`RefClock`), the digests the runner checks
against the goldens and, for a traced run, the per-layer metrics.

Every run uses the default engine stack: no ``REPRO_NO_*`` variable is
set and no fast path is turned off, except in the untimed reference pass
that checks generated programs at a seed without goldens.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spans as spanlib  # noqa: E402

#: ``report`` scale: small enough for a cold report to fit in one run,
#: large enough for every claim check to pass (at 0.01 the TIB one fails)
REPORT_SCALE = "0.02"
REPORT_JOBS = 2
#: report lines that name the cache directory or count cache hits; they
#: differ between a cold and a warm pass and are left out of the digest
REPORT_VOLATILE = ("repro-sim report:", "simulation cache:")

#: generated programs per budget and run, after one warm-up program per
#: budget.  Program ``j`` of a budget comes from generator seed
#: ``--seed + j``, so neighbouring ``--seed`` values share programs.
GENERATED_PROGRAMS = 40
GENERATED_BUDGETS = ("default", "deep")
#: a generated program that runs more instructions than this is skipped:
#: lengths span 50 to 2,300 with a long tail, which made a run's total
#: work vary by 20% between distant ``--seed`` values
GENERATED_MAX_INSTRUCTIONS = 1000

#: iterations of the host-speed probe, the probe's time on a quiet host
#: (about its fastest on a 2-vCPU x86-64 VM, Python 3.11), and how often
#: the clock runs it
PROBE_ITERATIONS = 8_000
REFERENCE_PROBE_S = 0.001
PROBE_PERIOD_S = 0.05


def probe(timer=time.perf_counter) -> float:
    """Seconds of a fixed pure-Python loop that calls nothing in
    ``repro``: how fast this CPU runs the interpreter right now."""
    started = timer()
    total = 0
    table = {}
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return timer() - started


class RefClock:
    """Turns host seconds into reference seconds.

    The host's CPUs are shared, and the interpreter runs up to twice as
    slow in some stretches as in others, CPU time included.  So while the
    clock runs, a ``SIGALRM`` every ``PROBE_PERIOD_S`` runs a
    :func:`probe` in this process's main thread, between two bytecodes of
    whatever it is doing.  A unit of work's host seconds, less the probes
    run inside it, are scaled by ``REFERENCE_PROBE_S`` over the mean of
    those probes and the one before them.  A change to the program moves
    the units' time and not the probes'.  Pool workers inherit no timer.
    """

    def __init__(self):
        self.probes = [probe()]
        self.timer = time.perf_counter

    def start(self, cpu: bool = False) -> None:
        """With ``cpu``, probes count only their own CPU time: for work in
        pool workers that keep the CPUs busy, where a probe's wall time
        would include waiting for them."""
        self.timer = time.thread_time if cpu else time.perf_counter
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self, signum, frame) -> None:
        self.probes.append(probe(self.timer))

    def measure(self, fn, *args, **kwargs):
        """``(reference seconds, result)`` of ``fn(*args, **kwargs)``."""
        first = len(self.probes)
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        host_s = time.perf_counter() - started
        inside = self.probes[first:]
        return self.scale(host_s - sum(inside), first - 1), result

    def scale(self, host_s: float, first: int = 0) -> float:
        """Reference seconds of ``host_s`` measured while ``probes[first:]``
        ran."""
        return host_s * REFERENCE_PROBE_S / statistics.mean(self.probes[first:])


def _headline_machines():
    from repro.core.config import MachineConfig

    return {
        "conventional-32B": MachineConfig.conventional(
            32, memory_access_time=6, input_bus_width=4
        ),
        "pipe-16-32-32B": MachineConfig.pipe(
            "16-32", 32, memory_access_time=6, input_bus_width=4
        ),
        "pipe-16-16-128B": MachineConfig.pipe("16-16", 128, memory_access_time=6),
    }


def point_record(result) -> dict:
    """What a golden pins for one point: headline counts plus a digest of
    every simulated statistic (stall, cache, fetch, memory, queue...)."""
    payload = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "halted": result.halted,
        "digest": hashlib.sha256(payload.encode()).hexdigest()[:16],
    }


def run_point(clock, config, program, **engine) -> tuple[float | None, dict, object]:
    """``(reference seconds, record, result)``; a raising point records
    its error and no time."""
    from repro.core.simulator import simulate

    try:
        took, result = clock.measure(simulate, config, program, **engine)
    except Exception as exc:  # noqa: BLE001 — a failed point is counted, not fatal
        return None, {"error": f"{type(exc).__name__}: {exc}"}, None
    return took, point_record(result), result


def timed_passes(run_pass, seconds: float, minimum: int, plan: int | None) -> list:
    """Run ``run_pass(index)`` until ``seconds`` have passed and at least
    ``minimum`` passes are done, or exactly ``plan`` passes; returns what
    each pass returned (its time)."""
    walls = []
    started = time.perf_counter()
    while True:
        done = len(walls)
        if plan is not None:
            if done >= plan:
                break
        elif done >= minimum and time.perf_counter() - started >= seconds:
            break
        walls.append(run_pass(done))
    return walls


# ----------------------------------------------------------------------
# Workloads: set-up (imports, program builds, warm-up), then a timed phase
# ----------------------------------------------------------------------
class PaperReport:
    """``repro-sim report`` over all 12 experiments: a cold pass into an
    empty result cache, then warm passes reading it back."""

    #: one cold pass, then 40 warm ones (a warm pass takes ~0.2 s)
    MIN_PASSES = 41

    def __init__(self, spec: dict, clock: RefClock):
        self.spec = spec
        self.clock = clock
        self.cache_dir = os.environ["REPRO_CACHE_DIR"]
        self.passes: list[dict] = []

    def setup(self) -> dict:
        from repro.kernels.suite import cached_livermore_suite

        cached_livermore_suite(scale=float(REPORT_SCALE))
        return {}

    def run(self, seconds: float, plan: int | None) -> int:
        self.walls = timed_passes(self._pass, seconds, self.MIN_PASSES, plan)
        return len(self.walls)

    def _pass(self, index: int) -> float:
        """One report; its reference seconds."""
        if index > 0:  # warm: this process does the work
            return self.clock.measure(self._report)[0]
        self.clock.start(cpu=True)  # cold: pool workers do it
        took = self.clock.measure(self._report)[0]
        self.clock.start()
        return took

    def _report(self) -> None:
        import repro.cli

        argv = [
            "report",
            "--scale", REPORT_SCALE,
            "--jobs", str(REPORT_JOBS),
            "--cache-dir", self.cache_dir,
        ]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = repro.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 — counted as a failed pass
            self.passes.append({"error": f"{type(exc).__name__}: {exc}"})
            return
        lines = out.getvalue().splitlines()
        kept = [line for line in lines if not line.startswith(REPORT_VOLATILE)]
        self.passes.append(
            {
                "rc": rc,
                "digest": hashlib.sha256("\n".join(kept).encode()).hexdigest(),
                "pass": sum(line.startswith("[PASS]") for line in lines),
                "fail": sum(line.startswith("[FAIL]") for line in lines),
            }
        )

    def _fresh_points(self) -> dict:
        """Points the cold pass simulated: the entries it stored (warm
        passes store none)."""
        points = instructions = 0
        for name in os.listdir(self.cache_dir):
            shard = os.path.join(self.cache_dir, name)
            if len(name) != 2 or not os.path.isdir(shard):
                continue
            for entry in os.listdir(shard):
                if entry.endswith(".json"):
                    with open(os.path.join(shard, entry)) as handle:
                        payload = json.load(handle)
                    points += 1
                    instructions += payload["result"]["instructions"]
        return {"points": points, "instructions": instructions}

    def summary(self) -> dict:
        cold_s = self.walls[0]
        warm = self.walls[1:]
        fresh = self._fresh_points()
        points = fresh["points"]
        return {
            "timed_wall": cold_s + sum(warm),
            "cold_pass_s": cold_s,
            "warm_pass_s": statistics.median(warm),
            # points run inside pool workers and are not timed one by one
            # with tracing off: worker-seconds per point of the cold pass
            "point_p50_s": cold_s * REPORT_JOBS / points if points else None,
            "sim_minstr_per_s": fresh["instructions"] / cold_s / 1e6,
            "point_times": [],
            "report_passes": self.passes,
        }


class HeadlinePoints:
    """The paper's headline machines at scale 1.0, simulated directly
    with no result cache, in rounds after one warm-up round."""

    MIN_PASSES = 3

    def __init__(self, spec: dict, clock: RefClock):
        self.spec = spec
        self.clock = clock
        self.rounds: list[list] = []
        self.times: dict[str, list[float]] = {}
        self.results = {}

    def setup(self) -> dict:
        from repro.kernels.suite import build_livermore_suite

        self.program = build_livermore_suite(scale=1.0, seed=self.spec["seed"]).program
        self.machines = _headline_machines()
        return {"cold_pass_s": self._round(None)}

    def run(self, seconds: float, plan: int | None) -> int:
        self.walls = timed_passes(self._round, seconds, self.MIN_PASSES, plan)
        return len(self.walls)

    def _round(self, index: int | None) -> float:
        """One point per machine; the round's reference seconds."""
        records = []
        round_s = 0.0
        for name, config in self.machines.items():
            took, record, result = run_point(self.clock, config, self.program)
            if took is not None:
                round_s += took
            records.append([name, record])
            if result is not None:
                self.results[name] = result
                if index is not None:
                    self.times.setdefault(name, []).append(took)
        self.rounds.append(records)
        return round_s

    def summary(self) -> dict:
        round_s = statistics.median(self.walls)
        times = [t for per_machine in self.times.values() for t in per_machine]
        return {
            "timed_wall": sum(self.walls),
            "warm_pass_s": round_s,
            "point_p50_s": statistics.median(times) if times else None,
            "sim_minstr_per_s": sum(r.instructions for r in self.results.values())
            / round_s
            / 1e6,
            "point_times": times,
            "headline_rounds": self.rounds,
            "model": self.model(),
        }

    def model(self) -> dict:
        """Simulated (not host) figures of the headline comparison."""
        conv = self.results.get("conventional-32B")
        pipe = self.results.get("pipe-16-32-32B")
        if conv is None or pipe is None:
            return {}
        lookups = pipe.cache.hits + pipe.cache.misses
        return {
            "conv_cycles": conv.cycles,
            "pipe_best_cycles": pipe.cycles,
            "headline_speedup": conv.cycles / pipe.cycles,
            "ipc": pipe.ipc,
            "icache_hit_ratio": pipe.cache.hits / lookups if lookups else 0.0,
            "stall_cycle_frac": pipe.total_stalls / pipe.cycles,
            "input_bus_busy_frac": pipe.memory.input_bus_busy_cycles / pipe.cycles,
        }


class GeneratedMix:
    """Seeded generated programs (``default`` and ``deep`` budgets), each
    new to the process, run cold on the four fuzz machines, then warm.

    Programs run in batches: a batch cold once, then warm again until its
    share of the run is spent (at least ``MIN_WARM_REPEATS`` times), so
    cold and warm samples spread over the whole run instead of sitting
    in one stretch of it.
    """

    BATCHES = 6
    MIN_WARM_REPEATS = 2

    def __init__(self, spec: dict, clock: RefClock):
        self.spec = spec
        self.clock = clock
        self.records: list[list] = []  # per program, per machine (cold)
        self.cold_times: list[float] = []
        self.cold_walls: list[float] = []
        self.warm_walls: list[list[float]] = []
        self.warm_mismatches = 0
        self.warm_points = 0
        self.instructions = 0

    def setup(self) -> dict:
        from repro.core.fuzz import FUZZ_CONFIGS

        self.machines = [factory() for factory in FUZZ_CONFIGS.values()]
        per_budget = [self._programs(budget) for budget in GENERATED_BUDGETS]
        # one program of each budget in turn, the warm-up ones first
        self.programs = [program for row in zip(*per_budget) for program in row]
        # warm-up: builds each machine's kernels once, so the timed points
        # pay only what a program new to the process costs
        self.warmup = len(GENERATED_BUDGETS)
        for program in self.programs[: self.warmup]:
            self.records.append(
                [run_point(self.clock, config, program)[1] for config in self.machines]
            )
        return {}

    def _programs(self, budget: str) -> list:
        from repro.cpu.functional import run_functional
        from repro.kernels.generate import generate_workload
        from repro.kernels.suite import build_kernel_suite

        programs = []
        seed = self.spec["seed"]
        while len(programs) < GENERATED_PROGRAMS + 1:
            workload = generate_workload(seed, budget)
            seed += 1
            program = build_kernel_suite([workload.kernel], list(workload.arrays)).program
            if run_functional(program).instructions <= GENERATED_MAX_INSTRUCTIONS:
                programs.append(program)
        return programs

    def run(self, seconds: float, plan: list[int] | None) -> list[int]:
        size = -(-(len(self.programs) - self.warmup) // self.BATCHES)
        started = time.perf_counter()
        for number in range(self.BATCHES):
            first = self.warmup + number * size
            batch = range(first, min(first + size, len(self.programs)))
            self.cold_walls.append(self._batch(batch, cold=True))
            due = started + seconds * (number + 1) / self.BATCHES
            walls: list[float] = []
            while (
                len(walls) < plan[number]
                if plan is not None
                else len(walls) < self.MIN_WARM_REPEATS or time.perf_counter() < due
            ):
                walls.append(self._batch(batch, cold=False))
            self.warm_walls.append(walls)
        return [len(walls) for walls in self.warm_walls]

    def _batch(self, batch: range, cold: bool) -> float:
        """The batch's programs on every machine; its reference seconds."""
        batch_s = 0.0
        for index in batch:
            row = []
            for config in self.machines:
                took, record, result = run_point(self.clock, config, self.programs[index])
                row.append(record)
                if result is not None:
                    batch_s += took
                    if cold:
                        self.instructions += result.instructions
                        self.cold_times.append(took)
            if cold:
                self.records.append(row)
            else:
                self.warm_points += len(row)
                self.warm_mismatches += sum(
                    a != b for a, b in zip(row, self.records[index])
                )
        return batch_s

    def reference(self) -> list[list]:
        """The same points on the reference loop, every fast path off."""
        return [
            [
                run_point(
                    self.clock, config, program, skip=False, replay=False, compiled=False
                )[1]
                for config in self.machines
            ]
            for program in self.programs
        ]

    def summary(self) -> dict:
        warm = sum(statistics.median(walls) for walls in self.warm_walls)
        summary = {
            "timed_wall": sum(self.cold_walls) + sum(map(sum, self.warm_walls)),
            "cold_pass_s": sum(self.cold_walls),
            "warm_pass_s": warm,
            "point_p50_s": (
                statistics.median(self.cold_times) if self.cold_times else None
            ),
            "sim_minstr_per_s": self.instructions / warm / 1e6,
            "point_times": self.cold_times,
            "generated_records": self.records,
            "warm_points": self.warm_points,
            "warm_mismatches": self.warm_mismatches,
        }
        if self.spec.get("verify_reference"):
            summary["generated_reference"] = self.reference()
        return summary


WORKLOADS = {
    "paper-report": PaperReport,
    "headline-points": HeadlinePoints,
    "generated-mix": GeneratedMix,
}


# ----------------------------------------------------------------------
# Traced runs: which calls are wrapped, and what the spans add up to
# ----------------------------------------------------------------------
def _describe_run(args, result) -> dict:
    controller = args[0].replay_controller
    reports = controller.loop_reports() if controller is not None else []
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "replayed_cycles": sum(r["replayed_cycles"] for r in reports),
        "loops": len(reports),
        "engaged": sum(r["phase"] == "engaged" for r in reports),
        "divergences": sum(r["divergences"] for r in reports),
        "verify_failures": sum(r["verify_failures"] for r in reports),
    }


def trace_targets() -> tuple[list, object]:
    """The wrapped boundaries, plus the codegen counter source (``None``
    once the compiled engine no longer exists)."""
    from repro.analysis import experiments
    from repro.core import parallel, replay, simcache, simulator, sweep
    from repro.kernels import suite

    try:
        from repro.core import compiled
    except ImportError:
        compiled = None

    targets = [
        (suite, "build_kernel_suite", "kernels", None, None),
        (simulator.Simulator, "__init__", "simulator.init", None, None),
        (simulator.Simulator, "run", "simulator", None, _describe_run),
        (replay.ReplayController, "on_backedge", "replay", None, None),
        (
            simcache.SimulationCache, "lookup", "simcache.lookup", None,
            lambda args, result: {"hit": result is not None},
        ),
        (simcache.SimulationCache, "store", "simcache.store", None, None),
        (
            parallel, "simulate_many", "parallel", None,
            lambda args, result: {"items": len(result)},
        ),
        (
            parallel, "parallel_map", "parallel", None,
            lambda args, result: {"items": len(result)},
        ),
        (
            sweep, "run_cache_sweep", "sweep", None,
            lambda args, result: {"points": sum(len(s.cycles) for s in result)},
        ),
        (experiments, "run_experiment", "experiments", lambda args: args[0], None),
    ]
    counters = None
    if compiled is not None:
        targets.append((compiled, "kernel_for", "compiled", None, None))
        counters = compiled.compile_stats
    return targets, counters


def layer_metrics(processes: list[tuple[list, dict]], owner: int) -> dict:
    """Per-layer metrics over every process's spans; ``processes[owner]``
    is the traced process itself (the only one with parent-side pool
    spans)."""
    from repro.analysis.experiments import EXPERIMENTS

    time_in: dict[str, float] = {}
    self_in: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    per_experiment = {experiment: 0.0 for experiment in EXPERIMENTS}
    codegen: dict[str, float] = {}
    parallel_items = parallel_calls = 0
    parallel_s = 0.0
    for number, (spans, counters) in enumerate(processes):
        for layer, seconds in spanlib.layer_totals(spans).items():
            time_in[layer] = time_in.get(layer, 0.0) + seconds
        selfs = spanlib.self_times(spans)
        for span in spans:
            self_in[span.layer] = self_in.get(span.layer, 0.0) + selfs[span.id]
            calls[span.layer] = calls.get(span.layer, 0) + 1
            for key, value in (span.attrs or {}).items():
                sums[f"{span.layer}.{key}"] = sums.get(f"{span.layer}.{key}", 0) + value
        for span in spanlib.outermost(spans):
            if span.layer == "experiments":
                per_experiment[span.name] += span.end - span.start
            if span.layer == "parallel" and number == owner:
                parallel_s += span.end - span.start
                parallel_calls += 1
                parallel_items += (span.attrs or {}).get("items", 0)
        for key, value in counters.items():
            codegen[key] = codegen.get(key, 0) + value

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    run_s = time_in.get("simulator", 0.0)
    hits = sums.get("simcache.lookup.hit", 0)
    lookups = calls.get("simcache.lookup", 0)
    metrics = {
        "kernels.build_s": time_in.get("kernels", 0.0),
        "kernels.programs": calls.get("kernels", 0),
        "simulator.init_s": time_in.get("simulator.init", 0.0),
        "simulator.run_s": run_s,
        "simulator.run_self_s": self_in.get("simulator", 0.0),
        "simulator.points": calls.get("simulator", 0),
        "simulator.host_ns_per_instr": ratio(
            run_s * 1e9, sums.get("simulator.instructions", 0)
        ),
        "replay.backedge_s": time_in.get("replay", 0.0),
        "replay.backedge_calls": calls.get("replay", 0),
        "replay.share_of_run": ratio(time_in.get("replay", 0.0), run_s),
        "replay.replayed_cycle_frac": ratio(
            sums.get("simulator.replayed_cycles", 0), sums.get("simulator.cycles", 0)
        ),
        "replay.engaged_loop_frac": ratio(
            sums.get("simulator.engaged", 0), sums.get("simulator.loops", 0)
        ),
        "replay.divergences": sums.get("simulator.divergences", 0),
        "replay.verify_failures": sums.get("simulator.verify_failures", 0),
        "compiled.codegen_s": codegen.get("codegen_seconds", 0.0),
        "compiled.compiles": codegen.get("compiles", 0),
        "compiled.kernel_hits": codegen.get("kernel_cache_hits", 0),
        "simcache.lookup_s": time_in.get("simcache.lookup", 0.0),
        "simcache.store_s": time_in.get("simcache.store", 0.0),
        "simcache.hits": hits,
        "simcache.misses": lookups - hits,
        "simcache.hit_ratio": ratio(hits, lookups),
        "parallel.map_s": parallel_s,
        "parallel.items": parallel_items,
        "parallel.calls": parallel_calls,
        "sweep.run_s": time_in.get("sweep", 0.0),
        "sweep.points": sums.get("sweep.points", 0),
        "experiments.run_s": time_in.get("experiments", 0.0),
        "experiments.render_self_s": self_in.get("experiments", 0.0),
    }
    for experiment, seconds in per_experiment.items():
        metrics[f"experiments.{experiment}_s"] = seconds
    return metrics


# ----------------------------------------------------------------------
def main(spec_path: str, out_path: str) -> int:
    clock = RefClock()
    clock.start()
    with open(spec_path) as handle:
        spec = json.load(handle)
    workload = WORKLOADS[spec["workload"]](spec, clock)
    out: dict = {}
    recorder = patches = None
    if spec.get("trace"):
        targets, counters = trace_targets()
        spill = os.path.join(spec["work_dir"], "spans")
        os.makedirs(spill, exist_ok=True)
        recorder = spanlib.SpanRecorder(spill_dir=spill, counters=counters)
        patches = spanlib.install(recorder, targets)
    out.update(workload.setup())
    out["ready_at"] = time.perf_counter()
    # the runner times set-up from its own clock, probes included
    out["setup_probes_s"] = sum(clock.probes)
    out["setup_scale"] = clock.scale(1.0)
    if not spec.get("setup_only"):
        out["plan"] = workload.run(spec["seconds"], spec.get("plan"))
        if recorder is not None:
            spanlib.restore(patches)
            processes = [(recorder.spans, recorder.counter_delta())]
            processes += spanlib.load_spilled(recorder.spill_dir)
            out["layers"] = layer_metrics(processes, owner=0)
            quarantine = os.path.join(os.environ["REPRO_CACHE_DIR"], "quarantine")
            out["layers"]["simcache.quarantined"] = (
                len(os.listdir(quarantine)) if os.path.isdir(quarantine) else 0
            )
            out["traced_spans"] = sum(len(spans) for spans, _ in processes)
        out.update(workload.summary())
    clock.stop()
    out["probes"] = {"count": len(clock.probes), "median_s": statistics.median(clock.probes)}
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = usage / 1024.0
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
