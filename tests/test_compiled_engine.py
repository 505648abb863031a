"""Tests of the compiled step-kernel engine (repro.core.compiled).

The differential matrix (``test_scheduler_differential``) proves the
kernels match the reference loop; this module covers the machinery
itself: the two codegen caches (one kernel per :class:`KernelSpec`,
which a config family shares, and one dispatch handler per
instruction value, shared by every program), tracing kept out of
both the key and the kernel text, spec sensitivity, all-or-nothing
eligibility (every shipped machine gets a kernel; a stubbed, subclassed
or monkeypatched one gets none and runs the reference loop), the purity
of ``generate_source``, and generated-source goldens for the headline
PIPE and the conventional configurations so codegen changes are
reviewed as diffs, not discovered as regressions.
"""

from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.compiled import (
    CompiledKernel,
    clear_compile_cache,
    compile_stats,
    generate_source,
    kernel_for,
    kernel_spec_for,
)
from repro.core.config import MachineConfig
from repro.core.fuzz import FUZZ_CONFIGS
from repro.core.scheduler import ENGINES
from repro.core.simulator import Simulator, simulate
from repro.core.trace import RingBufferSink, Tracer
from repro.cpu import dispatch
from repro.cpu.dispatch import issue_entry
from tests.test_trace_crosscheck import CONFIGS

GOLDEN = Path(__file__).parent / "goldens" / "compiled_kernel_headline.py"
CONV_GOLDEN = Path(__file__).parent / "goldens" / "compiled_kernel_conventional.py"


def _pipe(**overrides) -> MachineConfig:
    return MachineConfig.pipe("16-16", 128, memory_access_time=6, **overrides)


#: one machine per frontend whose state machines the kernels inline
_STRATEGIES = {
    "pipe": _pipe,
    "conventional": lambda: MachineConfig.conventional(128, memory_access_time=6),
    "tib": lambda: MachineConfig.tib(memory_access_time=6),
}


def _sim(config=None, program=None, **kwargs) -> Simulator:
    if config is None:
        config = _pipe()
    if program is None:
        program = assemble("halt")
    kwargs.setdefault("skip", True)
    return Simulator(config, program, **kwargs)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test sees an empty kernel cache and leaves none behind."""
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestCompileCache:
    def test_same_config_compiles_once_per_process(self, tiny_program):
        before = compile_stats()["compiles"]
        for _ in range(3):
            simulate(_pipe(), tiny_program, skip=True)
        stats = compile_stats()
        assert stats["kernels"] == 1
        assert stats["compiles"] == before + 1

    def test_same_spec_returns_the_same_kernel_object(self):
        first = kernel_for(_sim())
        second = kernel_for(_sim())
        assert first is second
        assert isinstance(first, CompiledKernel)

    def test_distinct_configs_get_distinct_specializations(self, tiny_program):
        """The cache size is not a kernel axis; the frontend is."""
        configs = [
            _pipe(),
            _pipe().with_overrides(icache_size=64),
            MachineConfig.conventional(128, memory_access_time=6),
        ]
        pipe, small_pipe, conventional = (
            kernel_for(_sim(c, tiny_program)) for c in configs
        )
        assert pipe is small_pipe
        assert conventional is not pipe
        assert compile_stats()["kernels"] == 2

    @pytest.mark.parametrize("strategy", sorted(_STRATEGIES))
    def test_tracing_is_not_a_kernel_axis(self, strategy):
        """A traced run takes the reference loop, so a traced machine's
        spec is the untraced one's and no kernel holds an emit site or
        reads the tracer."""
        config = _STRATEGIES[strategy]()
        plain = kernel_for(_sim(config))
        traced = kernel_for(_sim(config, tracer=Tracer([RingBufferSink()])))
        assert traced is plain
        assert "emit" not in plain.source
        assert "tracer" not in plain.source

    def test_monkeypatched_component_disables_its_fold(self):
        """Folding is all or nothing: one shadowed method on any
        component turns the whole kernel off, and compiles nothing."""
        patches = {
            "backend": "step",
            "engine": "update",
            "engine.laq": "push",
            "memory": "end_cycle",
            "memory.external": "accept",
            "memory.fpu": "can_accept",
            "frontend": "poll_requests",
            "frontend.cache": "probe",
        }
        before = compile_stats()
        for path, method in patches.items():
            sim = _sim()
            component = sim
            for name in path.split("."):
                component = getattr(component, name)
            setattr(component, method, getattr(component, method))
            assert kernel_for(sim) is None, f"{path}.{method}"
        assert compile_stats() == before
        assert kernel_for(_sim()) is not None


class TestCacheContract:
    """One cache per codegen artifact: kernels per spec, handlers per
    instruction value."""

    def test_one_family_one_kernel(self):
        before = compile_stats()
        kernels = {
            kernel_for(_sim(_pipe().with_overrides(icache_size=size)))
            for size in (64, 128, 512)
        }
        assert len(kernels) == 1
        after = compile_stats()
        assert after["compiles"] == before["compiles"] + 1
        assert after["kernel_cache_hits"] == before["kernel_cache_hits"] + 2
        conventional = kernel_for(
            _sim(MachineConfig.conventional(128, memory_access_time=6))
        )
        assert conventional not in kernels
        assert compile_stats()["kernels"] == 2

    def test_handlers_are_shared_across_programs(self):
        first = assemble("li r1, 5\nhalt")
        second = assemble("li r1, 5\naddi r2, r1, 3\nhalt")
        common = first.instruction_at(0)
        assert second.instruction_at(0) == common
        simulate(_pipe(), first, skip=True)
        before = compile_stats()
        handler = issue_entry(common)[-1]
        assert compile_stats() == before  # the pass already compiled it
        simulate(_pipe(), second, skip=True)
        after = compile_stats()
        assert issue_entry(common)[-1] is handler
        # only ``addi`` is new to the second program
        assert after["dispatch_handler_compiles"] == (
            before["dispatch_handler_compiles"] + 1
        )
        assert after["dispatch_handlers"] == before["dispatch_handlers"] + 1

    def test_issue_entries_are_built_once_per_process(self, monkeypatch):
        """A rerun, and a second program sharing instruction values,
        build no entry for those values again: ``queue_effects`` runs
        once per value per process, and the entry object is reused."""
        built = []
        effects = dispatch.queue_effects
        monkeypatch.setattr(
            dispatch,
            "queue_effects",
            lambda instruction: built.append(instruction) or effects(instruction),
        )
        first = assemble("li r1, 5\naddi r2, r1, 3\nhalt")
        second = assemble("li r1, 5\naddi r2, r1, 3\nsubi r3, r2, 1\nhalt")
        shared = [instruction for _pc, instruction in first.layout]
        simulate(_pipe(), first, skip=True)
        assert len(built) == len(shared) and set(built) == set(shared)
        entries = [issue_entry(instruction) for instruction in shared]
        built.clear()
        simulate(_pipe(), first, skip=True)
        assert built == []
        simulate(_pipe(), second, skip=True)
        assert built == [second.instruction_at(8)]
        for instruction, entry in zip(shared, entries):
            assert issue_entry(instruction) is entry

    def test_clear_empties_both_caches(self, tiny_program):
        baseline = simulate(_pipe(), tiny_program, skip=True)
        clear_compile_cache()
        before = compile_stats()
        assert before["kernels"] == 0
        assert before["dispatch_handlers"] == 0
        # the rerun rebuilds both caches and reproduces the run exactly
        assert simulate(_pipe(), tiny_program, skip=True) == baseline
        after = compile_stats()
        assert after["kernels"] == 1
        assert after["compiles"] == before["compiles"] + 1
        assert after["kernel_cache_hits"] == before["kernel_cache_hits"]
        assert after["dispatch_handlers"] > 0
        assert after["dispatch_handler_compiles"] == (
            before["dispatch_handler_compiles"] + after["dispatch_handlers"]
        )

    def test_clear_rebuilds_issue_entries(self, tiny_program, monkeypatch):
        """After ``clear_compile_cache`` the next run rebuilds every
        entry it issues, with the same flags, and matches the run
        before the clear."""
        baseline = simulate(_pipe(), tiny_program, skip=True)
        issued = [i for _pc, i in tiny_program.layout if i in dispatch._ENTRIES]
        old = {instruction: issue_entry(instruction) for instruction in issued}
        clear_compile_cache()
        assert dispatch._ENTRIES == {}
        built = []
        effects = dispatch.queue_effects
        monkeypatch.setattr(
            dispatch,
            "queue_effects",
            lambda instruction: built.append(instruction) or effects(instruction),
        )
        assert simulate(_pipe(), tiny_program, skip=True) == baseline
        assert set(built) == set(old) and len(built) == len(old)
        for instruction, entry in old.items():
            rebuilt = issue_entry(instruction)
            assert rebuilt is not entry
            assert rebuilt[:5] == entry[:5]


class TestFrontendInlining:
    def test_headline_spec_inlines_frontend_and_dispatch(self, tiny_program):
        spec = kernel_spec_for(_sim(program=tiny_program))
        assert spec.line_size == 16
        source = generate_source(spec)
        # the frontend phases are open-coded, not bound-method calls...
        assert "frontend_update(" not in source
        assert "frontend_post_issue(" not in source
        # ...and execution goes through the shared issue-entry memo
        assert "entry_for(instruction)" in source

    def test_conventional_and_tib_specs_inline_their_frontends(
        self, tiny_program
    ):
        conv = kernel_spec_for(
            _sim(MachineConfig.conventional(128, memory_access_time=6))
        )
        # the per-epoch memo of the inlined ``_maybe_request`` no-op
        assert "fe_memo.get(f_pc) != icache_unit._epoch" in generate_source(conv)
        tib = kernel_spec_for(
            _sim(MachineConfig.tib(memory_access_time=6), tiny_program)
        )
        assert tib.line_size is None and tib.pipe_iq_size is None
        # the inlined stream-request guard, with the geometry as literals
        assert (
            f"{tib.tib_stream_capacity} - (frontend._valid_end - frontend._pc)"
            f" >= {tib.tib_block_size}:"
        ) in generate_source(tib)

    def test_frontend_subclass_falls_back_byte_identically(self, tiny_program):
        """A subclass of a shipped frontend gets no kernel.

        The emitted state machines assume the exact shipped classes; a
        subclass (which may override anything) must compile nothing and
        run the reference loop, reproducing the reference row exactly.
        """
        for strategy in sorted(_STRATEGIES):

            def tweak(sim):
                sim.frontend.__class__ = type("Tweaked", (type(sim.frontend),), {})

            _assert_falls_back(strategy, tweak, tiny_program)

    def test_monkeypatched_frontend_method_disables_inlining(self, tiny_program):
        """A monkeypatched frontend method gets no kernel either, and the
        reference loop honours the patch byte-identically."""
        for strategy in sorted(_STRATEGIES):

            def patch(sim):
                original = sim.frontend.consume
                sim.frontend.consume = lambda now: original(now)

            _assert_falls_back(strategy, patch, tiny_program)


def _assert_falls_back(strategy, alter, program) -> None:
    """``alter`` makes a compiled-engine simulator ineligible: it must
    compile nothing, run the reference loop without a replay controller,
    and match the reference row's result.  Untraced, so only the
    eligibility check (and not the tracer) keeps the kernel off."""
    config = _STRATEGIES[strategy]()
    reference = simulate(config, program, **dict(ENGINES)["reference"])
    sim = _sim(config, program)
    alter(sim)
    before = compile_stats()
    assert kernel_for(sim) is None, strategy
    result = sim.run()
    assert compile_stats() == before, strategy
    assert sim.replay_controller is None, strategy
    assert result.to_dict() == reference.to_dict(), strategy


#: every machine the differential suites and the fuzzer run
_SHIPPED = {f"crosscheck-{name}": config for name, config in CONFIGS.items()}
_SHIPPED.update({f"fuzz-{name}": make() for name, make in FUZZ_CONFIGS.items()})


class TestEligibility:
    @pytest.mark.parametrize("name", sorted(_SHIPPED))
    def test_every_shipped_machine_gets_a_kernel(self, name):
        """A stray instance attribute that shadows a method would switch
        the whole engine off, silently; every shipped machine must pass."""
        assert kernel_for(_sim(_SHIPPED[name])) is not None


class TestGenerateSource:
    def test_is_deterministic(self):
        spec = kernel_spec_for(_sim())
        assert generate_source(spec) == generate_source(spec)

    def test_spec_for_equal_sims_is_equal(self):
        assert kernel_spec_for(_sim()) == kernel_spec_for(_sim())

    def test_constants_are_folded_into_literals(self):
        spec = kernel_spec_for(_sim())
        source = generate_source(spec)
        # config constants appear as literals, not attribute reads
        assert str(spec.max_cycles) in source
        assert "sim.config" not in source
        # the hot loop reads no tracer and no fault hooks when disabled
        assert "tracer" not in source

    def test_headline_kernel_matches_the_golden(self, tiny_program):
        """Codegen output for the headline PIPE config is golden-pinned.

        Regenerate with:
            PYTHONPATH=src python -c "
            from tests.test_compiled_engine import regenerate_golden;
            regenerate_golden()"
        and review the diff.
        """
        spec = kernel_spec_for(
            Simulator(_pipe(), tiny_program, skip=True)
        )
        _assert_matches_golden(generate_source(spec), GOLDEN)

    def test_conventional_kernel_matches_the_golden(self):
        """The conventional frontend's inlined kernel is golden-pinned too.

        This is the frontend whose emitted body leans on the icache
        residency-epoch memos, so its codegen deserves its own diff
        review.  Regenerate alongside the headline golden.
        """
        spec = kernel_spec_for(
            _sim(MachineConfig.conventional(128, memory_access_time=6))
        )
        _assert_matches_golden(generate_source(spec), CONV_GOLDEN)


def _assert_matches_golden(source: str, golden: Path) -> None:
    """Exact comparison; on a mismatch the generated source is left
    beside the golden as ``<name>.actual.py`` so a failing CI run can
    upload both files for offline diffing."""
    expected = golden.read_text()
    if source != expected:
        golden.with_name(f"{golden.stem}.actual.py").write_text(source)
    assert source == expected, (
        f"kernel source diverged from {golden.name}; inspect "
        f"goldens/{golden.stem}.actual.py, and if the change is "
        "deliberate run regenerate_golden()"
    )


def regenerate_golden() -> None:  # pragma: no cover - maintenance helper
    GOLDEN.write_text(generate_source(kernel_spec_for(_sim())))
    CONV_GOLDEN.write_text(
        generate_source(
            kernel_spec_for(
                _sim(MachineConfig.conventional(128, memory_access_time=6))
            )
        )
    )
