"""Differential fuzzing of the four engines over generated kernels.

For each seeded workload from :mod:`repro.kernels.generate` the harness
checks two layers of the system against each other:

1. **Compiler vs interpreter** — the kernel is compiled to a PIPE
   program, executed on the functional simulator, and every array
   element plus every scalar result slot is compared **bit-for-bit**
   against the float32-exact reference interpreter.
2. **Engines** — for each machine configuration in the sample,
   the program runs through all four engines (reference, idle-skip,
   skip+replay, compiled) with tracing on, and the harness asserts
   identical cycle counts, identical stats dicts, and byte-identical
   trace streams.

A failing case is **shrunk**: the harness greedily applies
semantics-preserving reductions (drop statements, halve iteration/trip
counts, unwrap conditionals, prune unused arrays) while the failure
reproduces, then writes the minimal workload as a JSON reproducer
(:mod:`repro.kernels.serialize`) that can be committed under
``tests/corpus/`` as a permanent regression test.

Run it from the CLI::

    repro-sim fuzz --seed 0 --count 100 --budget default
    repro-sim fuzz --corpus tests/corpus          # re-check reproducers
"""

from __future__ import annotations

import json
import struct
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..cpu.functional import FunctionalSimulator
from ..kernels.dsl import (
    ArrayDecl,
    BinOp,
    If,
    Kernel,
    KernelValidationError,
    Loop,
    ScalarUpdate,
    Store,
    validate_kernel,
)
from ..kernels.codegen import CompileError, compile_kernel
from ..kernels.generate import BUDGETS, generate_workload
from ..kernels.reference import f32, run_kernel_reference
from ..kernels.serialize import workload_from_json, workload_to_json
from ..kernels.suite import KernelSuite, build_kernel_suite
from .config import MachineConfig
from .scheduler import ENGINES
from .simulator import simulate_traced

__all__ = [
    "FUZZ_CONFIGS",
    "FuzzFailure",
    "FuzzReport",
    "check_workload",
    "run_corpus",
    "run_fuzz",
    "shrink_workload",
]

#: Machine configurations the fuzzer cycles through (one per case, by
#: seed, so a 100-case run covers every row).  Factories, not instances:
#: configs stay immutable across cases.
FUZZ_CONFIGS = {
    "pipe-16-16": lambda: MachineConfig.pipe("16-16", 128, memory_access_time=6),
    "pipe-16-16-slow-mem": lambda: MachineConfig.pipe(
        "16-16", 128, memory_access_time=12
    ),
    "conventional-128": lambda: MachineConfig.conventional(
        128, memory_access_time=6
    ),
    "tib": lambda: MachineConfig.tib(memory_access_time=6),
}

_FUNCTIONAL_MAX_STEPS = 5_000_000


@dataclass
class FuzzFailure:
    """One diverging case, optionally with a minimized reproducer."""

    seed: int
    budget: str
    config_name: str
    problems: list[str]
    reproducer_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "config": self.config_name,
            "problems": self.problems,
            "reproducer": self.reproducer_path,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run."""

    cases: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "failures": [failure.to_dict() for failure in self.failures],
            "ok": self.ok,
        }

    def summary(self) -> str:
        if self.ok:
            return f"fuzz: {self.cases} cases, all engines byte-identical"
        return (
            f"fuzz: {len(self.failures)} of {self.cases} cases diverged "
            f"(seeds {[failure.seed for failure in self.failures]})"
        )


# ----------------------------------------------------------------------
# The per-case differential check
# ----------------------------------------------------------------------
def _functional_problems(suite: KernelSuite, kernel: Kernel) -> list[str]:
    """Compiled program vs reference interpreter, bit for bit."""
    reference_arrays = suite.initial_reference_arrays()
    try:
        scalars = run_kernel_reference(kernel, reference_arrays)
    except IndexError as error:
        return [f"reference interpreter rejected the kernel: {error}"]
    simulator = FunctionalSimulator(suite.program, max_steps=_FUNCTIONAL_MAX_STEPS)
    simulator.run()
    memory = simulator.memory

    problems: list[str] = []
    for decl in suite.arrays:
        base = suite.array_base(decl.name)
        expected = reference_arrays[decl.name]
        for position in range(decl.length):
            raw = bytes(memory[base + 4 * position : base + 4 * position + 4])
            if decl.kind == "float":
                want = struct.pack("<f", expected[position])
            else:
                want = struct.pack("<I", int(expected[position]) & 0xFFFFFFFF)
            if raw != want:
                problems.append(
                    f"memory: {decl.name}[{position}] = {raw.hex()} "
                    f"!= reference {want.hex()}"
                )
                break  # first divergence per array is enough
    for position, name in enumerate(kernel.scalars):
        address = suite.scalar_result_address(kernel.label, position)
        raw = bytes(memory[address : address + 4])
        want = struct.pack("<f", scalars[name])
        if raw != want:
            problems.append(
                f"scalar {name} = {raw.hex()} != reference {want.hex()}"
            )
    for position, name in enumerate(kernel.int_scalars):
        address = suite.int_scalar_result_address(kernel.label, position)
        raw = bytes(memory[address : address + 4])
        want = struct.pack("<I", scalars[name] & 0xFFFFFFFF)
        if raw != want:
            problems.append(
                f"int scalar {name} = {raw.hex()} != reference {want.hex()}"
            )
    return problems


def _select_engines(engines: list[str] | None) -> tuple:
    """Resolve an engine-tag filter against
    :data:`repro.core.scheduler.ENGINES`.

    ``reference`` is always included — it is the baseline every other
    engine is compared against — so ``engines=["compiled"]`` pins a run
    to the reference/compiled pair.
    """
    if engines is None:
        return ENGINES
    known = {tag for tag, _ in ENGINES}
    unknown = [tag for tag in engines if tag not in known]
    if unknown:
        raise ValueError(
            f"unknown engine tag(s) {unknown}; choose from {sorted(known)}"
        )
    wanted = set(engines) | {"reference"}
    return tuple(pair for pair in ENGINES if pair[0] in wanted)


def _engine_problems(
    suite: KernelSuite,
    config: MachineConfig,
    engines: list[str] | None = None,
) -> list[str]:
    """Four-engine run: cycles, stats dicts, and trace bytes must match."""
    problems: list[str] = []
    selected = _select_engines(engines)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        runs = {}
        for tag, kwargs in selected:
            path = Path(tmp) / f"{tag.replace('+', '-')}.jsonl"
            try:
                result = simulate_traced(config, suite.program, path, **kwargs)
            except Exception as error:  # noqa: BLE001 - any engine crash is a finding
                problems.append(f"[{tag}] raised {type(error).__name__}: {error}")
                continue
            runs[tag] = (result, path)
        if "reference" not in runs:
            return problems
        reference_result, reference_path = runs["reference"]
        reference_trace = reference_path.read_bytes()
        for tag, _kwargs in selected:
            if tag == "reference" or tag not in runs:
                continue
            result, path = runs[tag]
            if result.cycles != reference_result.cycles:
                problems.append(
                    f"[{tag}] cycles {result.cycles} != "
                    f"reference {reference_result.cycles}"
                )
            fast_dict, reference_dict = result.to_dict(), reference_result.to_dict()
            if fast_dict != reference_dict:
                keys = [
                    key
                    for key in sorted(set(fast_dict) | set(reference_dict))
                    if fast_dict.get(key) != reference_dict.get(key)
                ]
                problems.append(f"[{tag}] stats differ on keys {keys}")
            if path.read_bytes() != reference_trace:
                problems.append(f"[{tag}] trace bytes differ from reference")
    return problems


def check_workload(
    kernel: Kernel,
    arrays,
    config: MachineConfig,
    engines: list[str] | None = None,
) -> list[str]:
    """All divergences for one workload × config (empty = clean).

    ``engines`` restricts the comparison to the named tags (plus the
    reference baseline); ``None`` runs all four engines.
    """
    try:
        suite = build_kernel_suite([kernel], list(arrays))
    except (KernelValidationError, CompileError, ValueError) as error:
        return [f"suite build failed: {type(error).__name__}: {error}"]
    problems = _functional_problems(suite, kernel)
    problems.extend(_engine_problems(suite, config, engines))
    return problems


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _block_variants(block: tuple):
    """Yield structurally smaller variants of one statement tuple."""
    for position in range(len(block)):
        yield block[:position] + block[position + 1 :]
    for position, statement in enumerate(block):
        before, after = block[:position], block[position + 1 :]
        if isinstance(statement, If):
            yield before + statement.then + statement.orelse + after
            if statement.orelse:
                yield before + (replace(statement, orelse=()),) + after
        if isinstance(statement, Loop):
            if statement.trips > 1:
                yield before + (
                    replace(statement, trips=max(1, statement.trips // 2)),
                ) + after
            for body in _block_variants(statement.body):
                if body:
                    yield before + (replace(statement, body=body),) + after
        if isinstance(statement, If):
            for then in _block_variants(statement.then):
                if then or statement.orelse:
                    yield before + (replace(statement, then=then),) + after
            for orelse in _block_variants(statement.orelse):
                yield before + (replace(statement, orelse=orelse),) + after
        if isinstance(statement, (Store, ScalarUpdate)) and isinstance(
            statement.expr, BinOp
        ):
            yield before + (replace(statement, expr=statement.expr.lhs),) + after
            yield before + (replace(statement, expr=statement.expr.rhs),) + after


def _kernel_variants(kernel: Kernel):
    """Smaller candidate kernels, most aggressive reductions first."""
    for iterations in (1, 2, kernel.iterations // 2):
        if 0 < iterations < kernel.iterations:
            yield replace(kernel, iterations=iterations)
    for statements in _block_variants(kernel.statements):
        if statements:
            yield replace(kernel, statements=statements)


def _prune_arrays(kernel: Kernel, arrays) -> list[ArrayDecl]:
    used = kernel.referenced_arrays()
    kept = [decl for decl in arrays if decl.name in used]
    return kept if kept else list(arrays)


def shrink_workload(
    kernel: Kernel,
    arrays,
    config: MachineConfig,
    max_rounds: int = 40,
    still_fails=None,
) -> tuple[Kernel, list[ArrayDecl]]:
    """Greedy shrink: keep any smaller variant that still diverges.

    The returned workload is guaranteed to still fail the predicate
    (it is only ever replaced by variants that do).  ``still_fails``
    defaults to running :func:`check_workload` on ``config``; tests can
    inject a cheaper predicate.  Bounded by ``max_rounds`` accepted
    reductions.
    """
    if still_fails is None:
        still_fails = lambda k, a: bool(check_workload(k, a, config))  # noqa: E731
    arrays = list(arrays)
    for _ in range(max_rounds):
        for candidate in _kernel_variants(kernel):
            try:
                validate_kernel(candidate, arrays)
                compile_kernel(candidate)
            except (KernelValidationError, CompileError):
                continue
            candidate_arrays = _prune_arrays(candidate, arrays)
            if still_fails(candidate, candidate_arrays):
                kernel, arrays = candidate, candidate_arrays
                break  # restart the pass from the smaller kernel
        else:
            break  # no variant reproduces: fixed point
    return kernel, arrays


# ----------------------------------------------------------------------
# Campaign drivers
# ----------------------------------------------------------------------
def _config_for_case(index: int, config_names: list[str]) -> str:
    return config_names[index % len(config_names)]


def run_fuzz(
    start_seed: int = 0,
    count: int = 100,
    budget: str = "default",
    configs: list[str] | None = None,
    failures_dir: str | Path | None = None,
    shrink: bool = True,
    progress=None,
    engines: list[str] | None = None,
) -> FuzzReport:
    """Fuzz ``count`` seeded workloads starting at ``start_seed``.

    Each case pairs one generated workload with one configuration from
    ``configs`` (default: all of :data:`FUZZ_CONFIGS`, round-robin).
    Failures are shrunk and written as JSON reproducers under
    ``failures_dir`` (if given); ``progress`` is an optional callable
    receiving one status line per case.  ``engines`` pins the comparison
    to the named engines plus the reference baseline (default: all four).
    """
    _select_engines(engines)  # validate tags before the first case
    config_names = list(configs or FUZZ_CONFIGS)
    for name in config_names:
        if name not in FUZZ_CONFIGS:
            raise ValueError(
                f"unknown fuzz config {name!r}; choose from {sorted(FUZZ_CONFIGS)}"
            )
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; choose from {sorted(BUDGETS)}")

    report = FuzzReport()
    for index in range(count):
        seed = start_seed + index
        config_name = _config_for_case(index, config_names)
        config = FUZZ_CONFIGS[config_name]()
        workload = generate_workload(seed, budget)
        problems = check_workload(
            workload.kernel, workload.arrays, config, engines=engines
        )
        report.cases += 1
        if progress is not None:
            status = "ok" if not problems else f"FAIL ({len(problems)} problems)"
            progress(f"seed {seed} [{config_name}] {status}")
        if not problems:
            continue
        failure = FuzzFailure(
            seed=seed,
            budget=budget,
            config_name=config_name,
            problems=problems,
        )
        if failures_dir is not None:
            kernel, arrays = workload.kernel, list(workload.arrays)
            if shrink:
                kernel, arrays = shrink_workload(kernel, arrays, config)
            directory = Path(failures_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"seed{seed}-{config_name}.json"
            path.write_text(
                workload_to_json(
                    kernel,
                    arrays,
                    seed=seed,
                    note=(
                        f"minimized from seed {seed}, budget {budget}, "
                        f"config {config_name}: {problems[0]}"
                    ),
                )
            )
            failure.reproducer_path = str(path)
        report.failures.append(failure)
    return report


def run_corpus(
    corpus_dir: str | Path,
    configs: list[str] | None = None,
    progress=None,
    engines: list[str] | None = None,
) -> FuzzReport:
    """Re-check every JSON reproducer in ``corpus_dir`` on all configs."""
    _select_engines(engines)  # validate tags before the first case
    config_names = list(configs or FUZZ_CONFIGS)
    paths = sorted(Path(corpus_dir).glob("*.json"))
    if not paths:
        raise ValueError(f"no corpus entries (*.json) under {corpus_dir}")
    report = FuzzReport()
    for path in paths:
        kernel, arrays, metadata = workload_from_json(path.read_text())
        for config_name in config_names:
            config = FUZZ_CONFIGS[config_name]()
            problems = check_workload(kernel, arrays, config, engines=engines)
            report.cases += 1
            if progress is not None:
                status = "ok" if not problems else f"FAIL ({len(problems)} problems)"
                progress(f"{path.name} [{config_name}] {status}")
            if problems:
                report.failures.append(
                    FuzzFailure(
                        seed=metadata.get("seed") or -1,
                        budget="corpus",
                        config_name=config_name,
                        problems=problems,
                        reproducer_path=str(path),
                    )
                )
    return report
