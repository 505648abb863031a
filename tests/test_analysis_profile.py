"""Tests of per-loop cycle attribution."""

import pytest

from repro.analysis.profile import profile_program, render_profile
from repro.core.config import MachineConfig
from repro.core.simulator import simulate


@pytest.fixture(scope="module")
def report(tiny_suite):
    config = MachineConfig.pipe("16-16", 64, memory_access_time=6)
    return profile_program(config, tiny_suite.program, tiny_suite.regions())


class TestAttribution:
    def test_cycles_partition_the_run(self, report):
        assert sum(loop.cycles for loop in report.loops) == report.total_cycles

    def test_total_matches_plain_simulation(self, report, tiny_suite):
        plain = simulate(
            MachineConfig.pipe("16-16", 64, memory_access_time=6),
            tiny_suite.program,
        )
        assert report.total_cycles == plain.cycles

    def test_every_loop_present(self, report):
        names = {loop.name for loop in report.loops}
        assert {f"ll{n}" for n in range(1, 15)} <= names
        assert "(outside)" in names

    def test_instruction_counts_match_functional(self, report, tiny_suite):
        from repro.cpu.functional import FunctionalSimulator

        functional = FunctionalSimulator(
            tiny_suite.program, regions=tiny_suite.regions()
        ).run()
        by_name = report.by_name()
        for name, count in functional.by_region.items():
            assert by_name[name].instructions == count

    def test_cpi_at_least_one(self, report):
        for loop in report.loops:
            if loop.instructions:
                assert loop.cpi >= 1.0, loop

    def test_outside_share_is_small(self, report):
        outside = report.by_name()["(outside)"]
        assert outside.cycles < report.total_cycles * 0.1


class TestBehaviour:
    def test_cache_sensitivity_follows_loop_footprint(self, tiny_suite):
        """Shrinking the cache from 512B to 32B hits hardest the loops
        that fit only the big cache (LL3, 64B inner loop).  LL8 (~800B)
        never fits either cache — it streams in both cases — so its CPI
        barely moves.  This is the knee-of-the-curve effect (section 6)
        seen per loop."""
        small = profile_program(
            MachineConfig.pipe("16-16", 32, memory_access_time=6),
            tiny_suite.program,
            tiny_suite.regions(),
        ).by_name()
        large = profile_program(
            MachineConfig.pipe("16-16", 512, memory_access_time=6),
            tiny_suite.program,
            tiny_suite.regions(),
        ).by_name()
        ll8_slowdown = small["ll8"].cpi / large["ll8"].cpi
        ll3_slowdown = small["ll3"].cpi / large["ll3"].cpi
        assert ll3_slowdown > ll8_slowdown
        assert ll3_slowdown > 1.2  # LL3 genuinely lost its cache
        assert ll8_slowdown < 1.2  # LL8 never had one to lose

    def test_render(self, report):
        text = render_profile(report)
        assert "ll1" in text and "CPI" in text and "total" in text


#: Per-loop cycles at the tiny scale, as the hand-stepped reference
#: cycle loop attributed them; the trace-driven profile must match.
PINNED_CYCLES = {
    "pipe": (
        MachineConfig.pipe("16-16", 64, memory_access_time=6),
        {
            "ll1": 1278, "ll2": 915, "ll3": 739, "ll4": 1220, "ll5": 946,
            "ll6": 914, "ll7": 1190, "ll8": 1225, "ll9": 773, "ll10": 567,
            "ll11": 541, "ll12": 521, "ll13": 1135, "ll14": 1088,
            "(outside)": 194,
        },
    ),
    "conventional": (
        MachineConfig.conventional(64, memory_access_time=6),
        {
            "ll1": 1908, "ll2": 1388, "ll3": 1024, "ll4": 1532, "ll5": 1502,
            "ll6": 1394, "ll7": 1878, "ll8": 1846, "ll9": 1156, "ll10": 844,
            "ll11": 652, "ll12": 531, "ll13": 1582, "ll14": 1534,
            "(outside)": 287,
        },
    ),
}


class TestPinnedAttribution:
    @pytest.mark.parametrize("machine", sorted(PINNED_CYCLES))
    def test_per_loop_cycles_are_pinned(self, machine, tiny_suite):
        config, expected = PINNED_CYCLES[machine]
        report = profile_program(config, tiny_suite.program, tiny_suite.regions())
        assert {loop.name: loop.cycles for loop in report.loops} == expected
        assert report.total_cycles == sum(expected.values())


class TestCli:
    def test_profile_subcommand(self, capsys):
        from repro.cli import main

        assert main(["profile", "--scale", "0.03", "--cache", "64"]) == 0
        out = capsys.readouterr().out
        assert "cycle profile" in out
        assert "ll14" in out

    def test_engine_profile_subcommand(self, capsys):
        from repro.cli import main

        assert main(["profile", "--engine", "--scale", "0.03", "--cache", "64"]) == 0
        out = capsys.readouterr().out
        assert "replay engine profile" in out
        assert "accounted arithmetically" in out
        assert out.rstrip().splitlines()[-1].startswith("codegen: ")
