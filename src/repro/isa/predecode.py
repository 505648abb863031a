"""Memoized instruction decode over a read-only code image.

Every fetch frontend decodes the byte stream on its way into the
decoder, and the PIPE control logic re-walks delay-slot regions when it
scans the IQ for branches.  The code image never changes during a run
(the functional pass works on a private copy of the image), so each
``(address)`` decodes to the same instruction every time — across
cycles, across frontends, and across the many simulations of a sweep.

:class:`PredecodedImage` caches those decodes.  It is seeded from the
assembler's layout when one is available (every address the program can
legitimately execute) and falls back to decoding on demand for
addresses reached speculatively (e.g. a prefetch running past the end
of the code segment), including remembering *failed* decodes so a hot
wrong-path address is not re-raised from scratch each cycle.
"""

from __future__ import annotations

from .encoding import DecodeError, InstructionFormat, decode_instruction
from .instruction import Instruction

__all__ = ["PredecodedImage"]

#: Sentinel stored for addresses whose bytes do not decode.
_INVALID = None


class PredecodedImage:
    """A shared decode table for one immutable ``(image, fmt)`` pair."""

    __slots__ = ("image", "fmt", "_table")

    def __init__(
        self,
        image: bytes | bytearray,
        fmt: InstructionFormat,
        layout: list[tuple[int, Instruction]] | None = None,
    ):
        self.image = image
        self.fmt = fmt
        self._table: dict[int, tuple[Instruction, int] | None] = {}
        if layout:
            for address, instruction in layout:
                self._table[address] = (
                    instruction,
                    fmt.instruction_size(instruction),
                )

    def at(self, pc: int) -> tuple[Instruction, int]:
        """Decode the instruction at ``pc`` → ``(instruction, size)``.

        Raises :class:`~repro.isa.encoding.DecodeError` exactly as
        :func:`~repro.isa.encoding.decode_instruction` would.
        """
        entry = self._table.get(pc, False)
        if entry is False:
            try:
                entry = decode_instruction(self.image, pc, self.fmt)
            except DecodeError:
                entry = _INVALID
            self._table[pc] = entry
        if entry is _INVALID:
            raise DecodeError(f"no valid instruction at offset {pc}")
        return entry

    def delay_region_end(self, next_pc: int, delay: int) -> int:
        """Byte address just past the ``delay`` instructions at ``next_pc``.

        ``next_pc`` is the address of the first delay-slot instruction
        after a PBR.  The PIPE fetch control logic uses this to know how
        far the *guaranteed* sequential stream extends (paper section
        4.2).
        """
        pc = next_pc
        for _ in range(delay):
            _instruction, size = self.at(pc)
            pc += size
        return pc

    def __len__(self) -> int:
        return len(self._table)
