"""Tests of the per-config compiled step-kernel engine (repro.core.compiled).

The differential matrix (``test_scheduler_differential``) proves the
kernels are byte-identical to the reference loop; this module covers the
machinery itself: the content-addressed compile cache (one compile per
config per process), spec sensitivity (distinct configs get distinct
specializations), all-or-nothing eligibility (every shipped machine gets
a kernel; a stubbed, subclassed or monkeypatched one gets none and runs
the interpreted engine), the escape hatch, the purity of
``generate_source``, and generated-source goldens for the headline PIPE
and the conventional configurations so codegen changes are reviewed as
diffs, not discovered as regressions.
"""

from pathlib import Path

import pytest

from repro.asm import assemble
from repro.core.compiled import (
    CompiledKernel,
    clear_compile_cache,
    compile_stats,
    config_fingerprint,
    generate_source,
    kernel_for,
    kernel_spec_for,
)
from repro.core.config import MachineConfig
from repro.core.fuzz import FUZZ_CONFIGS
from repro.core.scheduler import ENGINES
from repro.core.simulator import Simulator, simulate, simulate_traced
from repro.core.trace import JsonLinesSink, MetricsSink, Tracer
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
    kwargs.setdefault("replay", True)
    kwargs.setdefault("compiled", True)
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
            simulate(_pipe(), tiny_program, compiled=True)
        stats = compile_stats()
        assert stats["kernels"] == 1
        assert stats["compiles"] == before + 1

    def test_same_spec_returns_the_same_kernel_object(self):
        first = kernel_for(_sim())
        second = kernel_for(_sim())
        assert first is second
        assert isinstance(first, CompiledKernel)

    def test_distinct_configs_get_distinct_specializations(self, tiny_program):
        configs = [
            _pipe(),
            _pipe().with_overrides(icache_size=64),
            MachineConfig.conventional(128, memory_access_time=6),
        ]
        kernels = {kernel_for(_sim(c, tiny_program)) for c in configs}
        assert len(kernels) == 3
        assert compile_stats()["kernels"] == 3

    def test_tracing_is_part_of_the_key(self, tiny_program, tmp_path):
        plain = kernel_for(_sim(program=tiny_program))
        tracer = Tracer()
        tracer.attach(JsonLinesSink(tmp_path / "t.jsonl"))
        traced_sim = _sim(program=tiny_program, tracer=tracer)
        traced = kernel_for(traced_sim)
        tracer.close()
        assert plain is not traced
        assert plain.spec.traced is False and traced.spec.traced is True
        # the untraced kernel has no emit calls at all
        assert "emit" not in plain.source
        assert "emit" in traced.source

    def test_monkeypatched_component_disables_its_fold(self):
        """Folding is all or nothing: one shadowed method on any
        component turns the whole kernel off, and compiles nothing."""
        patches = {
            "backend": "step",
            "engine": "update",
            "engine.laq": "push",
            "memory": "end_cycle",
            "memory.external": "accept",
            "memory.fpu": "next_event_cycle",
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


class TestEscapeHatch:
    def test_env_var_falls_back_to_the_interpreter(
        self, tiny_program, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NO_COMPILED", "1")
        before = compile_stats()
        sim = Simulator(_pipe(), tiny_program)
        assert sim.compiled_enabled is False
        result = sim.run()
        assert compile_stats() == before  # nothing was compiled
        monkeypatch.delenv("REPRO_NO_COMPILED")
        assert result == simulate(_pipe(), tiny_program, compiled=True)

    def test_explicit_argument_wins_over_env(self, tiny_program, monkeypatch):
        monkeypatch.setenv("REPRO_NO_COMPILED", "1")
        result = simulate(_pipe(), tiny_program, compiled=True)
        assert compile_stats()["kernels"] == 1
        monkeypatch.delenv("REPRO_NO_COMPILED")
        assert result == simulate(_pipe(), tiny_program, compiled=False)


class TestDispatchCache:
    """The second cache level: per-(program, config) dispatch tables."""

    def test_dispatch_table_is_cached_per_program_and_config(
        self, tiny_program
    ):
        simulate(_pipe(), tiny_program, compiled=True)
        stats = compile_stats()
        assert stats["dispatch_tables"] == 1
        assert stats["dispatch_handlers"] > 0
        hits = stats["dispatch_cache_hits"]
        simulate(_pipe(), tiny_program, compiled=True)
        assert compile_stats()["dispatch_tables"] == 1
        assert compile_stats()["dispatch_cache_hits"] == hits + 1
        # a different program under the same config is a new table
        simulate(_pipe(), assemble("halt"), compiled=True)
        assert compile_stats()["dispatch_tables"] == 2

    def test_clear_drops_stale_program_kernels(self, tiny_program):
        """A cleared cache cannot serve stale per-program dispatch tables.

        ``clear_compile_cache`` documents that both cache levels clear
        together; this pins it.
        """
        baseline = simulate(_pipe(), tiny_program, compiled=True)
        assert compile_stats()["dispatch_tables"] == 1
        clear_compile_cache()
        stats = compile_stats()
        assert stats["kernels"] == 0
        assert stats["dispatch_tables"] == 0
        assert stats["dispatch_handlers"] == 0
        # the rerun rebuilds from scratch (a miss, not a stale hit) and
        # still reproduces the pre-clear run exactly
        hits = stats["dispatch_cache_hits"]
        assert simulate(_pipe(), tiny_program, compiled=True) == baseline
        after = compile_stats()
        assert after["dispatch_tables"] == 1
        assert after["dispatch_cache_hits"] == hits


class TestFrontendInlining:
    def test_headline_spec_inlines_frontend_and_dispatch(self, tiny_program):
        spec = kernel_spec_for(_sim(program=tiny_program))
        assert spec.line_size == 16
        source = generate_source(spec)
        # the frontend phases are open-coded, not bound-method calls...
        assert "frontend_update(" not in source
        assert "frontend_post_issue(" not in source
        # ...and execution goes through the per-program handler table
        assert "dispatch_get(instruction)" in source

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

    def test_frontend_subclass_falls_back_byte_identically(
        self, tiny_program, tmp_path
    ):
        """A subclass of a shipped frontend gets no kernel.

        The emitted state machines assume the exact shipped classes; a
        subclass (which may override anything) must compile nothing, run
        the interpreted skip+replay engine, and still reproduce the
        reference loop exactly, traced.
        """
        for strategy in sorted(_STRATEGIES):

            def tweak(sim):
                sim.frontend.__class__ = type("Tweaked", (type(sim.frontend),), {})

            _assert_falls_back(strategy, tweak, tiny_program, tmp_path)

    def test_monkeypatched_frontend_method_disables_inlining(
        self, tiny_program, tmp_path
    ):
        """A monkeypatched frontend method gets no kernel either, and the
        interpreted engine honours the patch byte-identically."""
        for strategy in sorted(_STRATEGIES):

            def patch(sim):
                original = sim.frontend.consume
                sim.frontend.consume = lambda now: original(now)

            _assert_falls_back(strategy, patch, tiny_program, tmp_path)


def _assert_falls_back(strategy, alter, program, tmp_path) -> None:
    """``alter`` makes a compiled-engine simulator ineligible: it must
    compile nothing and match the reference row's result and trace."""
    config = _STRATEGIES[strategy]()
    reference_path = tmp_path / f"{strategy}-reference.jsonl"
    reference = simulate_traced(
        config, program, reference_path, **dict(ENGINES)["reference"]
    )
    tracer = Tracer()
    fallback_path = tmp_path / f"{strategy}-fallback.jsonl"
    tracer.attach(JsonLinesSink(fallback_path))
    tracer.attach(MetricsSink())
    sim = _sim(config, program, tracer=tracer)
    alter(sim)
    before = compile_stats()
    assert kernel_for(sim) is None, strategy
    try:
        result = sim.run()
    finally:
        tracer.close()
    assert compile_stats() == before, strategy
    assert result.to_dict() == reference.to_dict(), strategy
    assert fallback_path.read_bytes() == reference_path.read_bytes(), strategy


#: every machine the differential suites and the fuzzer run
_SHIPPED = {f"crosscheck-{name}": config for name, config in CONFIGS.items()}
_SHIPPED.update({f"fuzz-{name}": make() for name, make in FUZZ_CONFIGS.items()})


class TestEligibility:
    @pytest.mark.parametrize("name", sorted(_SHIPPED))
    def test_every_shipped_machine_gets_a_kernel(self, name):
        """A stray instance attribute that shadows a method would switch
        the whole engine off, silently; every shipped machine must pass."""
        assert kernel_for(_sim(_SHIPPED[name])) is not None


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        assert config_fingerprint(_pipe()) == config_fingerprint(_pipe())

    def test_sensitive_to_any_knob(self):
        base = config_fingerprint(_pipe())
        assert (
            config_fingerprint(_pipe().with_overrides(memory_access_time=7))
            != base
        )
        assert (
            config_fingerprint(_pipe().with_overrides(icache_size=64)) != base
        )

    def test_is_a_hex_digest(self):
        digest = config_fingerprint(_pipe())
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


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
            Simulator(
                _pipe(), tiny_program, skip=True, replay=True, compiled=True
            )
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
