"""Unit tests for shared frontend helpers and the decode table they use."""

import pytest

from repro.asm import assemble
from repro.frontend.base import FetchStats
from repro.isa.encoding import InstructionFormat
from repro.isa.opcodes import Opcode
from repro.isa.predecode import PredecodedImage


def _decoder(program) -> PredecodedImage:
    """A decode table built on demand, without the assembler's layout."""
    return PredecodedImage(program.image, program.fmt)


@pytest.fixture(scope="module")
def program():
    return assemble(
        """
        pbra b0, 3
        nop
        li r1, 5
        nop
        halt
        """
    )


class TestDecodeAt:
    def test_decodes_layout(self, program):
        instruction, size = _decoder(program).at(0)
        assert instruction.op == Opcode.PBRA
        assert size == 4

    def test_parcel_sizes(self):
        parcel = _decoder(
            assemble("nop\nli r1, 5\nhalt", fmt=InstructionFormat.PARCEL)
        )
        _nop, size = parcel.at(0)
        assert size == 2
        _li, size = parcel.at(2)
        assert size == 4


class TestDelayRegionEnd:
    def test_walks_delay_instructions(self, program):
        # Three delay slots after the PBR at 0: nop, li, nop -> ends at 16.
        assert _decoder(program).delay_region_end(4, 3) == 16

    def test_zero_delay(self, program):
        assert _decoder(program).delay_region_end(4, 0) == 4

    def test_parcel_format_sizes(self):
        parcel = _decoder(
            assemble("pbra b0, 2\nnop\nli r1, 5\nhalt", fmt=InstructionFormat.PARCEL)
        )
        # delay slots: nop (2 bytes) + li (4 bytes), starting at 2
        assert parcel.delay_region_end(2, 2) == 8


class TestFetchStats:
    def test_defaults(self):
        stats = FetchStats()
        assert stats.instructions_supplied == 0
        assert stats.prefetch_promotions == 0
        assert stats.squashed_instructions == 0
