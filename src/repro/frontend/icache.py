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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.scheduler import IDLE
from ..core.trace import NULL_TRACER, Tracer

__all__ = ["CacheStats", "InstructionCache"]


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
    """One way of one set: a tag plus per-sub-block valid bits."""

    __slots__ = ("tag", "valid", "stamp")

    def __init__(self, sub_blocks: int):
        self.tag: int | None = None
        self.valid = [False] * sub_blocks
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
            [_Way(self.sub_blocks_per_line) for _ in range(associativity)]
            for _ in range(self.num_sets)
        ]
        self._clock = 0
        # bumped by every ``fill`` and ``invalidate_all``, the only
        # mutations of the tag/valid arrays: residency answers for an
        # address are constant while it is unchanged, which lets the
        # compiled kernels memoize them per epoch
        self._epoch = 0
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
        necessary).
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        position = address
        end = address + nbytes
        while position < end:
            set_index, tag = self._set_and_tag(position)
            way = self._find_way(set_index, tag)
            if way is None:
                return False
            sub = (position % self.line_size) // self.sub_block_size
            if not way.valid[sub]:
                return False
            position = (
                position - (position % self.sub_block_size) + self.sub_block_size
            )
        return True

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
        """
        if address % self.sub_block_size != 0 or nbytes % self.sub_block_size != 0:
            raise ValueError(
                f"fill [{address:#x}, +{nbytes}) not sub-block aligned "
                f"(sub-block {self.sub_block_size})"
            )
        position = address
        end = address + nbytes
        replaced = 0
        while position < end:
            set_index, tag = self._set_and_tag(position)
            way = self._find_way(set_index, tag)
            if way is None:
                way = min(self._sets[set_index], key=lambda candidate: candidate.stamp)
                if way.tag is not None:
                    replaced += 1
                way.tag = tag
                way.valid = [False] * self.sub_blocks_per_line
            sub = (position % self.line_size) // self.sub_block_size
            way.valid[sub] = True
            self._clock += 1
            way.stamp = self._clock
            position += self.sub_block_size
        self._epoch += 1
        self.stats.fills += 1
        self.stats.line_replacements += replaced
        if self._tracer.enabled:
            self._tracer.emit(
                "icache", "fill", addr=address, bytes=nbytes, replaced=replaced
            )

    def next_event_cycle(self, now: int) -> int:
        """Always ``IDLE``: the array is passive.

        Lookups, fills, and LRU touches all happen inside some other
        component's ticked action (a fetch, a delivery, an issue); the
        cache never schedules work of its own.
        """
        return IDLE

    def state_signature(self) -> tuple:
        """Per-set (tag, valid-bits) in LRU-rank order.

        The monotonic LRU clock never recurs, so absolute stamps are
        normalised to their rank within the set — replacement decisions
        depend only on that relative order.
        """
        return tuple(
            tuple(
                (way.tag, tuple(way.valid))
                for way in sorted(ways, key=lambda way: way.stamp)
            )
            for ways in self._sets
        )

    def invalidate_all(self) -> None:
        """Flush the cache (used between benchmark phases in tests)."""
        for ways in self._sets:
            for way in ways:
                way.tag = None
                way.valid = [False] * self.sub_blocks_per_line
                way.stamp = 0
        self._epoch += 1

    # ------------------------------------------------------------------
    def resident_bytes(self) -> int:
        """Total bytes currently valid (for occupancy assertions)."""
        return sum(
            self.sub_block_size
            for ways in self._sets
            for way in ways
            for valid in way.valid
            if valid
        )
