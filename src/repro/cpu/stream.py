"""The issue stream: one functional pass per program, read by every machine.

Timing reads three things of the program it runs: the path its pcs take
through the static program map (each PBR's outcome and target), the
address of every data access, and where an FPU operation starts (the
``engine fpu_op`` trace event).  No timing decision reads a value.  So
the values are computed once per :class:`~repro.asm.program.Program`,
here, and every machine — both engines, every configuration, every
replayed loop iteration — takes its branch outcomes and data addresses
from the recorded stream instead of executing.

The pass walks the predecoded table with the dispatch handlers
(:func:`repro.cpu.dispatch.issue_entry`) against its own memory image,
FPU core, register banks and load-value chain, with functional-first
semantics: a load reads memory when it issues, and a store commits to
memory (or starts an FPU operation) once both its address and its data
have issued.  It records ``branches`` (``pc, taken, target`` for every
PBR, three words each), the ``loads`` and ``stores`` addresses, and
``fpu_at``/``fpu_addr`` (the index of the instruction that starts each
FPU operation, and its trigger address), all as arrays.  For replay's
guards (:mod:`repro.core.replay`) it also records ``load_tags`` and
``store_tags`` (each access's address inside the FPU window, else 0)
and, per load, ``near``: how many stores back its nearest same-address
store was issued, one byte each, saturating at :data:`FAR` (also the
gap when there is none).  A load's SAQ holds the newest stores issued
before it, so against an SAQ of ``W < FAR`` stores the load meets no
ordering hazard exactly when its ``near`` gap exceeds ``W``.  Its path
follows the timing machine's rule, not the functional simulator's: a
PBR inside the delay slots of a *not-taken* PBR issues once the first
resolves, while one inside a *taken* PBR's delay slots never issues.

The stream grows lazily, :data:`CHUNK` instructions at a time, as
machines consume it (:meth:`IssueStream.reach`).  It ends at HALT, at
the first error an instruction raises (kept, and re-raised by the
machine that issues that instruction), or where no machine can ever
issue: a pop of the LDQ with no load outstanding, a PBR in a taken
PBR's delay slots, or bytes that do not decode.  It holds no compiled
handler, so a :class:`Program` whose stream is built still pickles.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque

from ..asm.program import WORD_BYTES
from ..isa.encoding import DecodeError
from ..memory.fpu import FPU_BASE, FPU_SIZE, FpuCore, is_fpu_address
from .dispatch import issue_entry
from .state import ArchState

__all__ = ["CHUNK", "FAR", "IssueStream", "StreamDesync"]

#: instructions the pass runs per extension
CHUNK = 4096

#: the ``near`` gap of a load whose nearest same-address store is this
#: many stores back or more, or that has none
FAR = 255

#: one past the FPU window: ``push_saq``, run once per store, tests it
#: inline rather than calling ``is_fpu_address``
_FPU_END = FPU_BASE + FPU_SIZE


class StreamDesync(RuntimeError):
    """A machine's issue left the recorded stream's path (a bug)."""


class _NeverIssues(Exception):
    """The instruction being executed can never issue on any machine."""


class IssueStream:
    """The recorded issue stream of one program, extended on demand.

    Instructions ``[0, length)`` are recorded.  ``end`` is ``None``
    while the pass can go on; once it stops, ``end`` is the index of
    the HALT (then ``end == length - 1``) or of the first instruction
    that raises ``error`` or never issues (then ``end == length``).
    """

    def __init__(self, program):
        if program.memory_size > FPU_BASE:
            raise ValueError(
                f"program image ({program.memory_size} bytes) overlaps the "
                f"FPU window at {FPU_BASE:#x}"
            )
        self.branches = array("I")
        self.loads = array("I")
        self.stores = array("I")
        self.fpu_at = array("I")
        self.fpu_addr = array("I")
        self.load_tags = array("I")
        self.store_tags = array("I")
        self.near = bytearray()
        self.length = 0
        self.end: int | None = None
        self.error: Exception | None = None
        # the pass's own machine state
        self._predecoded = program.predecoded
        self.memory = bytearray(program.image)
        self.state = ArchState()
        self.fpu = FpuCore()
        self._chain: deque[int] = deque()  #: load values not yet popped
        self._store_addresses: deque[int] = deque()  #: awaiting their data
        self._store_data: deque[int] = deque()  #: awaiting their address
        #: address -> index of its last store
        self._last_stores: dict[int, int] = {}
        self._pc = program.entry_point
        #: ``[slots left, target]`` of a taken PBR whose delay slots run
        self._taken: list[int] | None = None

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    def reach(self, index: int) -> int:
        """Record instruction ``index``; returns the recorded length.

        Raises the error the instruction at ``index`` raises, and
        :class:`StreamDesync` when no machine could issue it.
        """
        while index >= self.length:
            if self.end is not None:
                if index == self.end and self.error is not None:
                    error = self.error
                    raise type(error)(*error.args)
                raise StreamDesync(
                    f"instruction {index} issued, but the issue stream "
                    f"ends at instruction {self.end}"
                )
            self._run(self.length + CHUNK)
        return self.length

    def ends_before(self, limit: int) -> bool:
        """True when the stream ends at an instruction below ``limit``;
        otherwise instructions ``[0, limit)`` are all recorded."""
        while self.length < limit and self.end is None:
            self._run(limit + CHUNK)
        return self.end is not None and self.end < limit

    def fpu_op_at(self, index: int) -> int | None:
        """The trigger address of the FPU operation instruction
        ``index`` starts, or ``None``."""
        position = bisect_left(self.fpu_at, index)
        if position < len(self.fpu_at) and self.fpu_at[position] == index:
            return self.fpu_addr[position]
        return None

    def desync(self, pc: int, offset: int) -> StreamDesync:
        """The error for a PBR issued at ``pc`` where the stream's next
        branch (flat ``offset`` into :attr:`branches`) is elsewhere or
        missing."""
        recorded = self.branches[offset : offset + 1]
        where = f"is at {recorded[0]:#x}" if recorded else "was never recorded"
        return StreamDesync(
            f"PBR issued at {pc:#x}, but branch {offset // 3} of the issue "
            f"stream {where}"
        )

    def finish(self) -> None:
        """Run the pass to its end (tests and the fuzzer read its final
        memory and registers)."""
        while self.end is None:
            self._run(self.length + CHUNK)

    # ------------------------------------------------------------------
    # The pass
    # ------------------------------------------------------------------
    def _run(self, limit: int) -> None:
        """Execute until ``limit`` instructions are recorded or the
        stream ends."""
        at = self._predecoded.at
        state = self.state
        branches = self.branches
        rows: dict[int, tuple] = {}
        pc = self._pc
        taken = self._taken
        length = self.length
        try:
            while length < limit:
                row = rows.get(pc)
                if row is None:
                    try:
                        instruction, size = at(pc)
                    except DecodeError:
                        raise _NeverIssues from None
                    row = rows[pc] = (issue_entry(instruction), size)
                entry, size = row
                if entry[4] and taken is not None:
                    raise _NeverIssues  # issue stalls on branch_overlap forever
                outcome = entry[6](state, self)
                length += 1
                self.length = length
                if outcome.halted:
                    self.end = length - 1
                    break
                pc += size
                if outcome.is_branch:
                    branches.append(pc - size)
                    branches.append(outcome.branch_taken)
                    branches.append(outcome.branch_target)
                    if outcome.branch_taken:
                        if outcome.branch_delay:
                            taken = [outcome.branch_delay, outcome.branch_target]
                        else:
                            pc = outcome.branch_target
                elif taken is not None:
                    taken[0] -= 1
                    if not taken[0]:
                        pc = taken[1]
                        taken = None
        except _NeverIssues:
            self.end = length
        except (ValueError, IndexError, RuntimeError) as error:
            self.end = length
            self.error = error
        self._pc = pc
        self._taken = taken

    # -- the handlers' environment (``repro.cpu.executor.ExecutionEnv``) --
    def _check_address(self, address: int) -> None:
        if address % WORD_BYTES != 0:
            raise ValueError(f"unaligned data access at {address:#x}")
        if not is_fpu_address(address) and address + WORD_BYTES > len(self.memory):
            raise IndexError(
                f"data access at {address:#x} outside memory of "
                f"{len(self.memory)} bytes"
            )

    def pop_ldq(self) -> int:
        if not self._chain:
            raise _NeverIssues  # issue stalls on an empty LDQ forever
        return self._chain.popleft()

    def push_laq(self, address: int) -> None:
        if address in self._store_addresses:
            raise RuntimeError(
                f"load from {address:#x} while a store to the same address "
                "awaits its SDQ data — miscompiled program"
            )
        self._check_address(address)
        if is_fpu_address(address):
            value = self.fpu.read(address)
            tag = address
        else:
            word = self.memory[address : address + WORD_BYTES]
            value = int.from_bytes(word, "little")
            tag = 0
        self._chain.append(value)
        self.loads.append(address)
        self.load_tags.append(tag)
        last = self._last_stores.get(address)
        gap = FAR if last is None else len(self.stores) - last
        self.near.append(gap if gap < FAR else FAR)

    def push_saq(self, address: int) -> None:
        self._last_stores[address] = len(self.stores)
        self.stores.append(address)
        self.store_tags.append(address if FPU_BASE <= address < _FPU_END else 0)
        self._store_addresses.append(address)
        self._commit_stores()

    def push_sdq(self, value: int) -> None:
        self._store_data.append(value)
        self._commit_stores()

    def _commit_stores(self) -> None:
        while self._store_addresses and self._store_data:
            address = self._store_addresses.popleft()
            value = self._store_data.popleft()
            self._check_address(address)
            if is_fpu_address(address):
                started = self.fpu.operations_started
                self.fpu.write(address, value)
                if self.fpu.operations_started > started:
                    self.fpu_at.append(self.length)
                    self.fpu_addr.append(address)
            else:
                self.memory[address : address + WORD_BYTES] = (
                    value & 0xFFFFFFFF
                ).to_bytes(WORD_BYTES, "little")
