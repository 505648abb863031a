"""The differential fuzz harness and the committed regression corpus.

``tests/corpus/`` holds minimized kernels pinned as permanent
regressions; every entry must stay byte-identical across the full
pair of engines on every fuzz configuration.  The harness itself (case
driver, shrinker, reproducer writing) is tested with injected
predicates so no real engine bug is needed to exercise the failure
path.
"""

import json
from pathlib import Path

import pytest

from repro.core import fuzz
from repro.core.fuzz import (
    FUZZ_CONFIGS,
    FuzzFailure,
    check_workload,
    run_corpus,
    run_fuzz,
    shrink_workload,
)
from repro.core.scheduler import ENGINES
from repro.core.simulator import Simulator
from repro.cpu.stream import IssueStream
from repro.kernels.generate import generate_workload
from repro.kernels.serialize import workload_from_json
from repro.kernels.suite import build_kernel_suite

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_PATHS = sorted(CORPUS_DIR.glob("*.json"))
CONFIG_NAMES = list(FUZZ_CONFIGS)


def test_corpus_is_populated():
    # The regression corpus is a deliverable: branchy control, reductions,
    # nested loops, and pointer-chasing each need a committed reproducer.
    assert len(CORPUS_PATHS) >= 5


@pytest.mark.parametrize(
    "corpus_path", CORPUS_PATHS, ids=[p.stem for p in CORPUS_PATHS]
)
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
def test_corpus_entry_byte_identical(corpus_path, config_name):
    kernel, arrays, _metadata = workload_from_json(corpus_path.read_text())
    config = FUZZ_CONFIGS[config_name]()
    assert check_workload(kernel, arrays, config) == []


def test_corpus_pointer_chase_engages_replay():
    """The chase entry must actually reach the replay engine's steady
    state — otherwise it pins nothing about the backedge path."""
    kernel, arrays, _ = workload_from_json(
        (CORPUS_DIR / "pointer-chase.json").read_text()
    )
    suite = build_kernel_suite([kernel], arrays)
    simulator = Simulator(
        FUZZ_CONFIGS["pipe-16-16"](), suite.program, skip=True
    )
    simulator.run()
    controller = simulator.replay_controller
    assert controller is not None
    assert controller.replayed_iterations > 0


def _tamper_compiled_trace(monkeypatch, tamper) -> None:
    """Rewrite the compiled row's JSONL trace lines with ``tamper``,
    leaving its result and the reference row untouched."""
    real = fuzz.simulate_traced

    def traced(config, program, path, **kwargs):
        result = real(config, program, path, **kwargs)
        if kwargs == dict(ENGINES)["compiled"]:
            lines = path.read_text().splitlines()
            path.write_text("".join(line + "\n" for line in tamper(lines)))
        return result

    monkeypatch.setattr(fuzz, "simulate_traced", traced)


@pytest.mark.parametrize("change", ["rewrite", "append"])
def test_trace_mismatch_names_the_first_differing_event(change, monkeypatch):
    """A trace mismatch is reported at its first differing line, quoting
    both events, or with both lengths when one trace is a prefix of the
    other."""
    workload = generate_workload(0, "tiny")
    seen = {}

    def tamper(lines):
        seen["lines"] = len(lines)
        seen["second"] = lines[1]
        if change == "rewrite":
            return [lines[0], '{"forged": 1}', *lines[2:]]
        return [*lines, '{"forged": 1}']

    _tamper_compiled_trace(monkeypatch, tamper)
    problems = check_workload(
        workload.kernel, workload.arrays, FUZZ_CONFIGS["pipe-16-16"]()
    )
    if change == "rewrite":
        expected = (
            "[compiled] trace differs from reference at line 2: "
            f'compiled {{"forged": 1}} != reference {seen["second"]}'
        )
    else:
        expected = (
            "[compiled] trace differs from reference in length: "
            f"compiled {seen['lines'] + 1} lines, reference {seen['lines']} lines"
        )
    assert problems == [expected]


def test_functional_pass_is_checked_against_the_functional_simulator(monkeypatch):
    """Both engines time the same recorded stream, so a pass that
    computes a wrong value fools the engine comparison; the case's
    check of the pass's final memory catches it."""
    workload = generate_workload(3, "tiny")
    config = FUZZ_CONFIGS["pipe-16-16"]()
    assert check_workload(workload.kernel, workload.arrays, config) == []
    push_sdq = IssueStream.push_sdq
    monkeypatch.setattr(
        IssueStream, "push_sdq", lambda self, value: push_sdq(self, value ^ 1)
    )
    problems = check_workload(workload.kernel, workload.arrays, config)
    assert [p for p in problems if p.startswith("functional pass: memory byte")]
    assert not [p for p in problems if p.startswith("[")]  # engines still agree


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def test_fuzz_smoke_slice():
    # The tier-1 smoke slice: ten tiny seeds across the config rotation.
    report = run_fuzz(start_seed=0, count=10, budget="tiny")
    assert report.ok, report.summary()
    assert report.cases == 10
    assert "byte-identical" in report.summary()


def test_fuzz_rejects_unknown_config():
    with pytest.raises(ValueError, match="unknown fuzz config 'warp-drive'"):
        run_fuzz(count=1, configs=["warp-drive"])


def test_fuzz_rejects_unknown_budget():
    with pytest.raises(ValueError, match="unknown budget 'huge'"):
        run_fuzz(count=1, budget="huge")


def test_fuzz_failure_writes_minimized_reproducer(tmp_path, monkeypatch):
    # Force every case to "fail" so the reproducer path runs without a
    # real engine bug; shrinking is exercised separately below.
    monkeypatch.setattr(
        fuzz, "check_workload", lambda kernel, arrays, config: ["forced divergence"]
    )
    report = run_fuzz(
        start_seed=3,
        count=1,
        budget="tiny",
        failures_dir=tmp_path,
        shrink=False,
    )
    assert not report.ok
    failure = report.failures[0]
    assert failure.seed == 3
    assert failure.problems == ["forced divergence"]
    path = Path(failure.reproducer_path)
    assert path.parent == tmp_path
    document = json.loads(path.read_text())
    assert document["seed"] == 3
    assert "forced divergence" in document["note"]
    # The written reproducer must itself be a loadable corpus entry.
    kernel, arrays, metadata = workload_from_json(path.read_text())
    assert kernel == generate_workload(3, "tiny").kernel
    assert metadata["seed"] == 3


def test_run_corpus_reports_failures(tmp_path, monkeypatch):
    source = (CORPUS_DIR / "reduction.json").read_text()
    (tmp_path / "reduction.json").write_text(source)
    monkeypatch.setattr(
        fuzz, "check_workload", lambda kernel, arrays, config: ["forced divergence"]
    )
    report = run_corpus(tmp_path, configs=["pipe-16-16"])
    assert report.cases == 1
    assert not report.ok
    assert report.failures[0].reproducer_path == str(tmp_path / "reduction.json")


def test_run_corpus_rejects_empty_dir(tmp_path):
    with pytest.raises(ValueError, match="no corpus entries"):
        run_corpus(tmp_path)


def test_report_round_trips_to_dict():
    report = run_fuzz(start_seed=0, count=2, budget="tiny")
    payload = report.to_dict()
    assert payload["cases"] == 2
    assert payload["ok"] is True
    assert payload["failures"] == []
    failure = FuzzFailure(
        seed=9, budget="tiny", config_name="tib", problems=["x"]
    )
    assert failure.to_dict()["config"] == "tib"


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def test_shrink_reaches_minimal_statement():
    """With a predicate that only needs one marked statement, the
    shrinker must strip everything else and collapse the iteration
    count."""
    workload = generate_workload(1, "default")
    config = FUZZ_CONFIGS["pipe-16-16"]()

    from repro.kernels.dsl import IntScalarUpdate, Store

    def still_fails(kernel, arrays):
        # "The bug" lives in any float Store: shrinking may remove
        # everything else but must keep at least one.
        return any(
            isinstance(statement, Store)
            for statement in kernel.all_statements()
        )

    assert still_fails(workload.kernel, workload.arrays)
    kernel, arrays = shrink_workload(
        workload.kernel, list(workload.arrays), config, still_fails=still_fails
    )
    assert still_fails(kernel, arrays)
    assert kernel.iterations == 1
    stores = [
        s for s in kernel.all_statements() if isinstance(s, Store)
    ]
    assert len(stores) == 1
    # Nothing unrelated survives: every remaining statement is either the
    # pinned store or a block that (transitively) contains it.
    from repro.kernels.dsl import If, Loop

    for statement in kernel.statements:
        assert isinstance(statement, (Store, Loop, If))
    # Unused arrays are pruned down to what the kernel references.
    assert {decl.name for decl in arrays} >= kernel.referenced_arrays()


def test_shrink_result_still_fails_real_predicate():
    """Shrinking never 'fixes' the failure: the returned workload must
    satisfy the same predicate that drove the shrink."""
    workload = generate_workload(7, "tiny")
    config = FUZZ_CONFIGS["conventional-128"]()
    calls = []

    def still_fails(kernel, arrays):
        calls.append(1)
        return kernel.iterations > 1

    if workload.kernel.iterations <= 1:
        pytest.skip("seed produced a single-iteration kernel")
    kernel, _arrays = shrink_workload(
        workload.kernel, list(workload.arrays), config, still_fails=still_fails
    )
    assert kernel.iterations == 2  # minimal value still satisfying > 1
    assert calls  # the predicate, not check_workload, drove the shrink
