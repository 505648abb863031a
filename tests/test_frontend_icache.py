"""Unit + property tests for the direct-mapped sub-blocked I-cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frontend.icache import InstructionCache


class TestGeometry:
    def test_line_address(self):
        cache = InstructionCache(128, 16)
        assert cache.line_address(0) == 0
        assert cache.line_address(17) == 16
        assert cache.line_address(31) == 16

    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            InstructionCache(100, 16)  # not a multiple
        with pytest.raises(ValueError):
            InstructionCache(128, 10, 4)  # line not multiple of sub-block
        with pytest.raises(ValueError):
            InstructionCache(0, 16)

    def test_num_lines(self):
        cache = InstructionCache(128, 16)
        assert cache.num_lines == 8
        assert cache.sub_blocks_per_line == 4


class TestFillAndProbe:
    def test_miss_then_hit(self):
        cache = InstructionCache(64, 16)
        assert not cache.probe(0, 4)
        cache.fill(0, 16)
        assert cache.probe(0, 16)
        assert cache.probe(12, 4)

    def test_sub_block_granularity(self):
        cache = InstructionCache(64, 16)
        cache.fill(0, 4)
        assert cache.probe(0, 4)
        assert not cache.probe(4, 4)
        assert not cache.probe(0, 8)

    def test_direct_mapped_conflict(self):
        cache = InstructionCache(64, 16)  # 4 lines
        cache.fill(0, 16)
        cache.fill(64, 16)  # same index as address 0
        assert not cache.probe(0, 4)
        assert cache.probe(64, 4)
        assert cache.stats.line_replacements == 1

    def test_partial_fill_invalidates_old_line(self):
        cache = InstructionCache(64, 16)
        cache.fill(0, 16)
        cache.fill(64, 4)  # replaces the tag; only first sub-block valid
        assert not cache.probe(0, 4)
        assert cache.probe(64, 4)
        assert not cache.probe(68, 4)

    def test_range_spanning_lines(self):
        cache = InstructionCache(64, 16)
        cache.fill(0, 32)
        assert cache.probe(12, 8)  # spans the 16-byte boundary

    def test_unaligned_fill_rejected(self):
        cache = InstructionCache(64, 16)
        with pytest.raises(ValueError):
            cache.fill(2, 4)
        with pytest.raises(ValueError):
            cache.fill(0, 6)

    def test_probe_requires_positive_size(self):
        cache = InstructionCache(64, 16)
        with pytest.raises(ValueError):
            cache.probe(0, 0)

    def test_invalidate_all(self):
        cache = InstructionCache(64, 16)
        cache.fill(0, 16)
        cache.invalidate_all()
        assert not cache.probe(0, 4)
        assert cache.resident_bytes() == 0

    def test_resident_bytes(self):
        cache = InstructionCache(64, 16)
        cache.fill(0, 16)
        cache.fill(16, 8)
        assert cache.resident_bytes() == 24


class TestStats:
    def test_lookup_counts(self):
        cache = InstructionCache(64, 16)
        cache.lookup(0, 4)
        cache.fill(0, 16)
        cache.lookup(0, 4)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_empty_hit_rate(self):
        assert InstructionCache(64, 16).stats.hit_rate == 0.0


class _ModelCache:
    """Residency by set: each set's tagged lines, least recently used
    first, each with its set of resident sub-block numbers."""

    def __init__(self, size: int, line_size: int, sub: int, ways: int):
        self.line_size, self.sub, self.ways = line_size, sub, ways
        self.num_sets = size // (line_size * ways)
        self.sets: dict[int, list[list]] = {i: [] for i in range(self.num_sets)}
        self.hits = self.misses = 0

    def _entry(self, address: int):
        line_number = address // self.line_size
        ways = self.sets[line_number % self.num_sets]
        tag = line_number // self.num_sets
        for entry in ways:
            if entry[0] == tag:
                return ways, tag, entry
        return ways, tag, None

    def probe(self, address: int, nbytes: int) -> bool:
        for byte in range(address, address + nbytes):
            _ways, _tag, entry = self._entry(byte)
            if entry is None or byte // self.sub not in entry[1]:
                return False
        return True

    def touch(self, address: int) -> None:
        ways, _tag, entry = self._entry(address)
        if entry is not None:
            ways.remove(entry)
            ways.append(entry)

    def lookup(self, address: int, nbytes: int) -> bool:
        hit = self.probe(address, nbytes)
        if hit:
            self.hits += 1
            self.touch(address)
        else:
            self.misses += 1
        return hit

    def fill(self, address: int, nbytes: int) -> None:
        for block in range(address // self.sub, (address + nbytes) // self.sub):
            ways, tag, entry = self._entry(block * self.sub)
            if entry is None:
                if len(ways) == self.ways:
                    ways.pop(0)  # evict the least recently used line
                entry = [tag, set()]
            else:
                ways.remove(entry)
            ways.append(entry)
            entry[1].add(block)

    def resident_bytes(self) -> int:
        return self.sub * sum(
            len(entry[1]) for ways in self.sets.values() for entry in ways
        )


_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["fill", "probe", "touch", "lookup"]),
        st.integers(min_value=0, max_value=255),  # parcel number
        st.integers(min_value=1, max_value=12),  # length in parcels
    ),
    max_size=200,
)


class TestAgainstModel:
    """Property: the cache agrees with a dictionary model of residency,
    direct-mapped and set-associative with LRU replacement, for ranges
    that span several sub-blocks and lines."""

    @given(operations=_OPERATIONS)
    def test_model_equivalence(self, operations):
        _check_against_model(1, operations)

    @pytest.mark.parametrize("associativity", [2, 4])
    @given(operations=_OPERATIONS)
    def test_set_associative_model_equivalence(self, associativity, operations):
        _check_against_model(associativity, operations)


def _check_against_model(associativity: int, operations) -> None:
    line_size, size, sub = 16, 64 * associativity, 4
    cache = InstructionCache(size, line_size, sub, associativity=associativity)
    model = _ModelCache(size, line_size, sub, associativity)
    for operation, parcel, parcels in operations:
        address = parcel * 2
        if operation == "fill":
            # sub-block aligned, one to six sub-blocks
            start = address - address % sub
            nbytes = sub * (1 + parcels // 2)
            cache.fill(start, nbytes)
            model.fill(start, nbytes)
        elif operation == "probe":
            assert cache.probe(address, 2 * parcels) == model.probe(
                address, 2 * parcels
            )
        elif operation == "touch":
            cache.touch(address)
            model.touch(address)
        else:
            assert cache.lookup(address, 2 * parcels) == model.lookup(
                address, 2 * parcels
            )
    assert (cache.stats.hits, cache.stats.misses) == (model.hits, model.misses)
    assert cache.resident_bytes() == model.resident_bytes()
    for parcel in range(256):
        assert cache.probe(parcel * 2, 2) == model.probe(parcel * 2, 2)


class TestSetAssociativity:
    def test_two_way_avoids_direct_mapped_conflict(self):
        """Two lines that conflict direct-mapped coexist two-way."""
        direct = InstructionCache(64, 16, associativity=1)
        direct.fill(0, 16)
        direct.fill(64, 16)  # same index in a 4-line direct-mapped array
        assert not direct.probe(0, 4)

        two_way = InstructionCache(64, 16, associativity=2)
        two_way.fill(0, 16)
        two_way.fill(32, 16)  # same set (2 sets of 2 ways)
        assert two_way.probe(0, 4)
        assert two_way.probe(32, 4)

    def test_lru_replacement(self):
        cache = InstructionCache(32, 16, associativity=2)  # one set, 2 ways
        cache.fill(0, 16)
        cache.fill(16, 16)
        cache.touch(0)  # line 0 most recently used
        cache.fill(32, 16)  # evicts line 16 (LRU)
        assert cache.probe(0, 4)
        assert not cache.probe(16, 4)
        assert cache.probe(32, 4)

    def test_fully_associative(self):
        cache = InstructionCache(64, 16, associativity=4)  # one set
        for base in (0, 128, 256, 384):
            cache.fill(base, 16)
        for base in (0, 128, 256, 384):
            assert cache.probe(base, 4)
        cache.fill(512, 16)  # evicts the LRU (address 0)
        assert not cache.probe(0, 4)

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            InstructionCache(64, 16, associativity=0)
        with pytest.raises(ValueError):
            InstructionCache(48, 16, associativity=2)  # not a multiple

    def test_lookup_touches_lru(self):
        cache = InstructionCache(32, 16, associativity=2)
        cache.fill(0, 16)
        cache.fill(16, 16)
        assert cache.lookup(0, 4)  # touch line 0
        cache.fill(32, 16)
        assert cache.probe(0, 4)  # survived: line 16 was evicted
        assert not cache.probe(16, 4)

    def test_associative_machine_runs(self):
        """End to end through the simulator with a 2-way cache."""
        from repro.asm import assemble
        from repro.core.config import MachineConfig
        from repro.core.simulator import simulate

        program = assemble("\n".join(["nop"] * 30) + "\nhalt")
        direct = simulate(
            MachineConfig.conventional(64, memory_access_time=6), program
        )
        two_way = simulate(
            MachineConfig.conventional(
                64, memory_access_time=6, cache_associativity=2
            ),
            program,
        )
        assert direct.instructions == two_way.instructions
        assert two_way.halted
