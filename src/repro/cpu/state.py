"""Architectural register state.

PIPE has sixteen 32-bit data registers organised as a *foreground* bank of
8 (the only ones instructions can name) and a *background* bank of 8,
swapped wholesale by the ``EXCH`` instruction to speed up subroutine
calls (paper section 3.1).  Register 7 is the queue register and has **no
backing storage**: it is an architected window onto the LDQ (as a source)
and the SDQ (as a destination).  :class:`ArchState` therefore refuses to
read or write slot 7 directly — the executor routes those accesses to the
queues.

There are also eight branch registers holding PBR target addresses.
"""

from __future__ import annotations

from ..isa.registers import (
    NUM_BRANCH_REGISTERS,
    NUM_VISIBLE_REGISTERS,
    QUEUE_REGISTER,
    check_branch_register,
    check_data_register,
)
from .alu import to_unsigned

__all__ = ["ArchState"]


class ArchState:
    """Foreground/background data register banks plus branch registers."""

    def __init__(self) -> None:
        self._foreground = [0] * NUM_VISIBLE_REGISTERS
        self._background = [0] * NUM_VISIBLE_REGISTERS
        self._branch = [0] * NUM_BRANCH_REGISTERS

    # ------------------------------------------------------------------
    # Data registers
    # ------------------------------------------------------------------
    def read(self, register: int) -> int:
        """Read a foreground data register (never the queue register)."""
        check_data_register(register)
        if register == QUEUE_REGISTER:
            raise ValueError(
                "r7 is the queue register; reads must go through the LDQ"
            )
        return self._foreground[register]

    def write(self, register: int, value: int) -> None:
        """Write a foreground data register (never the queue register)."""
        check_data_register(register)
        if register == QUEUE_REGISTER:
            raise ValueError(
                "r7 is the queue register; writes must go through the SDQ"
            )
        self._foreground[register] = to_unsigned(value)

    def exchange_banks(self) -> None:
        """Swap the foreground and background banks (the EXCH instruction)."""
        self._foreground, self._background = self._background, self._foreground

    # ------------------------------------------------------------------
    # Branch registers
    # ------------------------------------------------------------------
    def read_branch(self, register: int) -> int:
        check_branch_register(register)
        return self._branch[register]

    def write_branch(self, register: int, value: int) -> None:
        check_branch_register(register)
        self._branch[register] = to_unsigned(value)

    # ------------------------------------------------------------------
    # Introspection (used by tests and debug dumps)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, list[int]]:
        """A copy of all register state for assertions and debugging."""
        return {
            "foreground": list(self._foreground),
            "background": list(self._background),
            "branch": list(self._branch),
        }
