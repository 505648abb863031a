"""On-chip instruction cache array.

Shared by both fetch strategies.  Following Hill's model (paper section
4.1), a line is composed of *sub-blocks*, each with its own valid bit, so
partially-fetched lines are usable as soon as their first sub-blocks
arrive over the input bus.  The PIPE strategy fetches whole lines; the
conventional strategy fetches bus-width blocks — both express their fills
through :meth:`InstructionCache.fill`.

The paper's caches are direct mapped (section 3.2); ``associativity``
generalises the array to set-associative with LRU replacement for the
associativity ablation (Smith & Goodman's instruction-cache organisation
study is the paper's reference point for such variations).

Addresses are byte addresses.  ``set = (address // line_size) % num_sets``
and ``tag = address // (line_size * num_sets)``; with associativity 1
this is the classic direct-mapped split.

Residency lives in one flat map, :attr:`InstructionCache.residency`: a
``bytearray`` with one byte per sub-block of the 64 KiB address space
(program images end below the FPU window at ``0xF000``), 1 when that
sub-block is resident.  The ways keep only their tags and LRU stamps;
evicting a line zeroes its bytes in the map.  A residency test is one
subscript, or one ``find`` over a range, which is how the compiled
kernels ask it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from ..core.trace import NULL_TRACER, Tracer

__all__ = ["ADDRESS_SPACE", "CacheStats", "InstructionCache"]

#: Bytes of instruction address space the residency map covers.
ADDRESS_SPACE = 1 << 16

_STAMP = attrgetter("stamp")


@dataclass
class CacheStats:
    """Hit/miss accounting.  A *lookup* is one :meth:`lookup` call."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    line_replacements: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _Way:
    """One way of one set: a tag and its LRU stamp.  Its line's valid
    bits are the line's bytes in the residency map."""

    __slots__ = ("tag", "stamp")

    def __init__(self):
        self.tag: int | None = None
        self.stamp = 0  #: LRU timestamp (higher = more recently used)


class InstructionCache:
    """A sub-blocked, set-associative (default direct-mapped) I-cache."""

    def __init__(
        self,
        size: int,
        line_size: int,
        sub_block_size: int = 4,
        associativity: int = 1,
        tracer: Tracer | None = None,
    ):
        if size <= 0 or line_size <= 0 or sub_block_size <= 0:
            raise ValueError("cache dimensions must be positive")
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        if size % (line_size * associativity) != 0:
            raise ValueError(
                f"cache size {size} not a multiple of line size {line_size} "
                f"x associativity {associativity}"
            )
        if line_size % sub_block_size != 0:
            raise ValueError(
                f"line size {line_size} not a multiple of sub-block size {sub_block_size}"
            )
        self.size = size
        self.line_size = line_size
        self.sub_block_size = sub_block_size
        self.associativity = associativity
        self.num_sets = size // (line_size * associativity)
        self.num_lines = size // line_size
        self.sub_blocks_per_line = line_size // sub_block_size
        self._sets: list[list[_Way]] = [
            [_Way() for _ in range(associativity)] for _ in range(self.num_sets)
        ]
        self._clock = 0
        #: one byte per sub-block of the address space, 1 when resident.
        #: Never rebound (``invalidate_all`` zeroes it in place): the
        #: compiled kernels hoist it and index it directly.
        self.residency = bytearray(ADDRESS_SPACE // sub_block_size)
        self.stats = CacheStats()
        self._tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """The line-aligned base address containing ``address``."""
        return address - (address % self.line_size)

    def _set_and_tag(self, address: int) -> tuple[int, int]:
        line_number = address // self.line_size
        return line_number % self.num_sets, line_number // self.num_sets

    def _find_way(self, set_index: int, tag: int) -> _Way | None:
        for way in self._sets[set_index]:
            if way.tag == tag:
                return way
        return None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def probe(self, address: int, nbytes: int) -> bool:
        """True if every byte of [address, address+nbytes) is resident.

        Does **not** update statistics or LRU state; use for
        side-effect-free checks (e.g. deciding whether a prefetch is
        necessary).  A range that leaves the address space raises
        :class:`IndexError`, as a kernel's subscript of the map does.
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        sub = self.sub_block_size
        stop = (address + nbytes - 1) // sub + 1
        self._check_range(address, nbytes, stop)
        return self.residency.find(0, address // sub, stop) < 0

    def _check_range(self, address: int, nbytes: int, stop: int) -> None:
        if address < 0 or stop > len(self.residency):
            raise IndexError(
                f"[{address:#x}, +{nbytes}) leaves the {ADDRESS_SPACE:#x}-byte "
                "instruction address space"
            )

    def lookup(self, address: int, nbytes: int) -> bool:
        """Like :meth:`probe` but counts a hit or a miss and touches LRU."""
        hit = self.probe(address, nbytes)
        if hit:
            self.record_hit(address)
            self.touch(address)
        else:
            self.record_miss(address)
        return hit

    # ------------------------------------------------------------------
    # Statistics entry points (every hit/miss flows through these, so
    # the stats counters and the event stream can never drift apart)
    # ------------------------------------------------------------------
    def record_hit(self, address: int) -> None:
        """Count a hit at ``address`` (and emit its trace event)."""
        self.stats.hits += 1
        if self._tracer.enabled:
            self._tracer.emit("icache", "hit", addr=address)

    def record_miss(self, address: int, seq: int = -1) -> None:
        """Count a miss at ``address``; ``seq`` names the fill request."""
        self.stats.misses += 1
        if self._tracer.enabled:
            self._tracer.emit("icache", "miss", addr=address, seq=seq)

    def touch(self, address: int) -> None:
        """Mark ``address``'s line most-recently-used (for LRU)."""
        set_index, tag = self._set_and_tag(address)
        way = self._find_way(set_index, tag)
        if way is not None:
            self._clock += 1
            way.stamp = self._clock

    # ------------------------------------------------------------------
    # Fill
    # ------------------------------------------------------------------
    def fill(self, address: int, nbytes: int) -> None:
        """Mark [address, address+nbytes) resident.

        The range must be sub-block aligned.  A fill whose tag is absent
        from the set claims the LRU way (invalidating whatever it held).
        Each line of the range is written to the map once.
        """
        sub = self.sub_block_size
        if address % sub != 0 or nbytes % sub != 0:
            raise ValueError(
                f"fill [{address:#x}, +{nbytes}) not sub-block aligned "
                f"(sub-block {sub})"
            )
        end = address + nbytes
        self._check_range(address, nbytes, end // sub)
        line_size = self.line_size
        num_sets = self.num_sets
        residency = self.residency
        position = address
        replaced = 0
        while position < end:
            line_number = position // line_size
            stop = (line_number + 1) * line_size
            if stop > end:
                stop = end
            set_index = line_number % num_sets
            tag = line_number // num_sets
            ways = self._sets[set_index]
            for way in ways:
                if way.tag == tag:
                    break
            else:
                way = min(ways, key=_STAMP)
                if way.tag is not None:
                    replaced += 1
                    per_line = self.sub_blocks_per_line
                    old = (way.tag * num_sets + set_index) * per_line
                    residency[old : old + per_line] = bytes(per_line)
                way.tag = tag
            blocks = (stop - position) // sub
            residency[position // sub : stop // sub] = b"\x01" * blocks
            # one LRU tick per sub-block filled
            self._clock += blocks
            way.stamp = self._clock
            position = stop
        stats = self.stats
        stats.fills += 1
        stats.line_replacements += replaced
        if self._tracer.enabled:
            self._tracer.emit(
                "icache", "fill", addr=address, bytes=nbytes, replaced=replaced
            )

    def state_signature(self) -> tuple:
        """Per-set (tag, valid-bits) in LRU-rank order.

        The monotonic LRU clock never recurs, so absolute stamps are
        normalised to their rank within the set — replacement decisions
        depend only on that relative order.  A way's valid bits are its
        line's bytes of the residency map.
        """
        residency = self.residency
        per_line = self.sub_blocks_per_line
        num_sets = self.num_sets
        signature = []
        for set_index, ways in enumerate(self._sets):
            entries = []
            for way in sorted(ways, key=lambda way: way.stamp):
                tag = way.tag
                if tag is None:
                    entries.append(None)
                else:
                    base = (tag * num_sets + set_index) * per_line
                    entries.append((tag, bytes(residency[base : base + per_line])))
            signature.append(tuple(entries))
        return tuple(signature)

    def invalidate_all(self) -> None:
        """Flush the cache (used between benchmark phases in tests)."""
        for ways in self._sets:
            for way in ways:
                way.tag = None
                way.stamp = 0
        residency = self.residency
        residency[:] = bytes(len(residency))

    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        """Total bytes currently valid (for occupancy assertions)."""
        return self.residency.count(1) * self.sub_block_size
