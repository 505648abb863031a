"""Tests of Hill's prefetch-policy family on the conventional cache."""

import pytest

from repro.asm import assemble
from repro.core.config import MachineConfig, PrefetchPolicy
from repro.core.simulator import Simulator, simulate
from repro.cpu.functional import FunctionalSimulator


def straight_line(count):
    return "\n".join(["nop"] * count) + "\nhalt"


def conventional(policy, cache=128, **overrides):
    return MachineConfig.conventional(
        cache, memory_access_time=6, prefetch_policy=policy, **overrides
    )


class TestSemanticsPreserved:
    @pytest.mark.parametrize("policy", list(PrefetchPolicy))
    def test_bit_exact(self, policy, tiny_program):
        functional = FunctionalSimulator(tiny_program)
        functional_result = functional.run()
        simulator = Simulator(conventional(policy), tiny_program)
        result = simulator.run()
        assert result.instructions == functional_result.instructions
        assert bytes(simulator.backend.stream.memory) == bytes(functional.memory)


class TestPolicyBehaviour:
    def test_none_never_prefetches(self):
        result = simulate(
            conventional(PrefetchPolicy.NONE), assemble(straight_line(40))
        )
        assert result.fetch.prefetch_requests == 0
        assert result.fetch.demand_requests > 10

    def test_sequential_prefetch_volumes(self):
        """On straight-line code, ALWAYS and TAGGED both prefetch about
        once per block, ON_MISS only in the shadow of misses, NONE never."""
        program = assemble(straight_line(60))
        counts = {}
        for policy in PrefetchPolicy:
            result = simulate(conventional(policy), program)
            counts[policy] = result.fetch.prefetch_requests
        assert counts[PrefetchPolicy.NONE] == 0
        assert counts[PrefetchPolicy.ALWAYS] > 0
        assert abs(counts[PrefetchPolicy.ALWAYS] - counts[PrefetchPolicy.TAGGED]) <= 3
        assert counts[PrefetchPolicy.ON_MISS] <= counts[PrefetchPolicy.ALWAYS]

    def test_on_miss_prefetches_after_misses_only(self):
        program = assemble(straight_line(40))
        result = simulate(conventional(PrefetchPolicy.ON_MISS), program)
        assert 0 < result.fetch.prefetch_requests <= result.fetch.demand_requests

    def test_tagged_prefetches_once_per_block(self):
        """A cached loop re-references its blocks every iteration but a
        tagged block only triggers one prefetch until refilled — so the
        prefetch count must not grow with the iteration count."""

        def loop(iterations):
            return f"""
                li r1, {iterations}
                lbr b0, loop
                loop:
                subi r1, r1, 1
                pbrne b0, r1, 2
                nop
                nop
                halt
            """

        short = simulate(conventional(PrefetchPolicy.TAGGED), assemble(loop(10)))
        long = simulate(conventional(PrefetchPolicy.TAGGED), assemble(loop(40)))
        assert long.fetch.prefetch_requests == short.fetch.prefetch_requests


class TestHillsFinding:
    def test_always_prefetch_is_the_best_policy(self, tiny_program):
        """Section 4.1: 'Throughout his study, the always-prefetch
        strategy consistently provided the best performance.'"""
        cycles = {}
        for policy in PrefetchPolicy:
            cycles[policy] = simulate(conventional(policy), tiny_program).cycles
        best = min(cycles.values())
        assert cycles[PrefetchPolicy.ALWAYS] <= best * 1.01
        assert cycles[PrefetchPolicy.NONE] == max(cycles.values())

    def test_any_prefetch_beats_none(self, tiny_program):
        none = simulate(conventional(PrefetchPolicy.NONE), tiny_program).cycles
        for policy in (PrefetchPolicy.ALWAYS, PrefetchPolicy.TAGGED,
                       PrefetchPolicy.ON_MISS):
            assert simulate(conventional(policy), tiny_program).cycles < none
