"""The :class:`Program` memory image produced by the assembler.

A program is a flat byte image together with:

* a symbol table (labels and ``.equ`` constants),
* the entry point,
* the instruction format it was encoded with,
* a *layout*: the address of every emitted instruction, in program order,
  which the analysis code uses to compute code footprints (Table I), and
* *markers*: named addresses emitted by ``.marker`` directives, used to
  delimit the inner loops of the Livermore kernels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..isa.encoding import InstructionFormat
from ..isa.instruction import Instruction
from ..isa.predecode import PredecodedImage

if TYPE_CHECKING:
    from ..cpu.stream import IssueStream

__all__ = ["Program", "WORD_BYTES"]

#: Size of a machine word (and of a float32 datum) in bytes.
WORD_BYTES = 4


@dataclass
class Program:
    """An assembled memory image plus metadata.

    The image is addressed from 0; ``memory_size`` bounds all addresses the
    program may touch at run time (code, data, and anything it stores to,
    excluding memory-mapped device ranges, which are outside the image).
    """

    image: bytearray
    entry_point: int = 0
    fmt: InstructionFormat = InstructionFormat.FIXED32
    symbols: dict[str, int] = field(default_factory=dict)
    markers: dict[str, int] = field(default_factory=dict)
    layout: list[tuple[int, Instruction]] = field(default_factory=list)
    _predecoded: PredecodedImage | None = field(
        init=False, default=None, repr=False, compare=False
    )
    _issue_stream: IssueStream | None = field(
        init=False, default=None, repr=False, compare=False
    )

    @property
    def memory_size(self) -> int:
        return len(self.image)

    @property
    def predecoded(self) -> PredecodedImage:
        """The shared decode table for this program's code image.

        Built once (seeded from the layout) and reused by every fetch
        frontend simulating this program, so hot loops never re-decode
        the same bytes.  Valid because the code image is read-only at
        run time — the functional pass mutates a private copy of the image.
        """
        if self._predecoded is None:
            self._predecoded = PredecodedImage(self.image, self.fmt, self.layout)
        return self._predecoded

    @property
    def issue_stream(self) -> IssueStream:
        """The program's functional pass and its recorded issue stream,
        which every machine simulating it reads (:mod:`repro.cpu.stream`)."""
        if self._issue_stream is None:
            from ..cpu.stream import IssueStream

            self._issue_stream = IssueStream(self)
        return self._issue_stream

    # ------------------------------------------------------------------
    # Word access helpers (little-endian, like the encodings)
    # ------------------------------------------------------------------
    def load_word(self, address: int) -> int:
        """Read a 32-bit unsigned word from the image."""
        self._check_range(address)
        return int.from_bytes(self.image[address : address + WORD_BYTES], "little")

    def store_word(self, address: int, value: int) -> None:
        """Write a 32-bit word (taken modulo 2**32) into the image."""
        self._check_range(address)
        self.image[address : address + WORD_BYTES] = (value & 0xFFFFFFFF).to_bytes(
            WORD_BYTES, "little"
        )

    def load_float(self, address: int) -> float:
        """Read a float32 datum from the image."""
        self._check_range(address)
        return struct.unpack("<f", self.image[address : address + WORD_BYTES])[0]

    def store_float(self, address: int, value: float) -> None:
        """Write a float32 datum into the image."""
        self._check_range(address)
        self.image[address : address + WORD_BYTES] = struct.pack("<f", value)

    def _check_range(self, address: int) -> None:
        if not 0 <= address <= len(self.image) - WORD_BYTES:
            raise IndexError(
                f"address {address:#x} outside program image of {len(self.image)} bytes"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def symbol(self, name: str) -> int:
        """Return a symbol's value, raising :class:`KeyError` if undefined."""
        return self.symbols[name]

    def marker(self, name: str) -> int:
        """Return a marker's address, raising :class:`KeyError` if absent."""
        return self.markers[name]

    def instruction_at(self, address: int) -> Instruction:
        """Decode the instruction stored at ``address``."""
        instruction, _size = self.predecoded.at(address)
        return instruction

    def code_span(self, begin_marker: str, end_marker: str) -> int:
        """Byte distance between two markers (e.g. an inner loop's size)."""
        return self.marker(end_marker) - self.marker(begin_marker)

    def instructions_between(self, begin: int, end: int) -> list[tuple[int, Instruction]]:
        """All laid-out instructions with ``begin <= address < end``."""
        return [(addr, instr) for addr, instr in self.layout if begin <= addr < end]

    def disassemble(self, begin: int | None = None, end: int | None = None) -> str:
        """Human-readable listing of the laid-out instructions in a range."""
        lines = []
        for address, instruction in self.layout:
            if begin is not None and address < begin:
                continue
            if end is not None and address >= end:
                continue
            lines.append(f"{address:#06x}: {instruction.disassemble()}")
        return "\n".join(lines)
