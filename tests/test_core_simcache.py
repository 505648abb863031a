"""Tests of the content-addressed simulation result cache."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.config import MachineConfig
from repro.core.simcache import (
    CACHE_FORMAT_VERSION,
    QUARANTINE_DIR,
    SimulationCache,
    config_fingerprint,
    program_fingerprint,
    result_key,
    sweep_point_keys,
)
from repro.core.simulator import simulate
from repro.core.sweep import resolve_points


def _pipe(**overrides) -> MachineConfig:
    return MachineConfig.pipe(
        "16-16", 128, memory_access_time=6, input_bus_width=8, **overrides
    )


def _resolve(config, program, cache):
    """One point through the resolver: cache lookup, else simulate and store."""
    (result,) = resolve_points(program, [config], cache=cache)
    return result


class TestFingerprints:
    def test_config_fingerprint_is_stable(self):
        assert config_fingerprint(_pipe()) == config_fingerprint(_pipe())

    def test_config_fingerprint_is_stable_across_processes(self):
        """Keys must not depend on PYTHONHASHSEED / process identity."""
        script = (
            "from repro.core.config import MachineConfig\n"
            "from repro.core.simcache import config_fingerprint\n"
            "c = MachineConfig.pipe('16-16', 128, memory_access_time=6,"
            " input_bus_width=8)\n"
            "print(config_fingerprint(c))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout.strip()
            for seed in ("0", "12345")
        }
        assert runs == {config_fingerprint(_pipe())}

    def test_every_config_field_enters_the_fingerprint(self):
        """The fingerprint hashes to_dict(), which must cover every field."""
        base = _pipe()
        assert set(base.to_dict()) == {
            field.name for field in dataclasses.fields(base)
        }

    def test_field_changes_invalidate_the_fingerprint(self):
        base = _pipe()
        baseline = config_fingerprint(base)
        variants = [
            base.with_overrides(icache_size=256),
            base.with_overrides(iq_size=8),
            base.with_overrides(memory_access_time=1),
            base.with_overrides(memory_pipelined=True),
            base.with_overrides(max_cycles=base.max_cycles * 2),
            MachineConfig.conventional(
                128, memory_access_time=6, input_bus_width=8
            ),
        ]
        fingerprints = {config_fingerprint(config) for config in variants}
        assert baseline not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_program_change_invalidates_key(self, tiny_program, small_program):
        config = _pipe()
        assert program_fingerprint(tiny_program) != program_fingerprint(
            small_program
        )
        assert result_key(config, tiny_program) != result_key(
            config, small_program
        )

    def test_sweep_point_keys_match_single_point_keys(self, tiny_program):
        configs = [_pipe(), _pipe().with_overrides(icache_size=64)]
        assert sweep_point_keys(tiny_program, configs) == [
            result_key(config, tiny_program) for config in configs
        ]

    def test_cache_entry_is_named_by_the_checkpoint_key(
        self, tiny_program, tmp_path
    ):
        """The cache and the sweep checkpoint share one content address."""
        cache = SimulationCache(tmp_path)
        config = _pipe()
        _resolve(config, tiny_program, cache)
        (entry,) = cache.entries()
        assert entry.stem == sweep_point_keys(tiny_program, [config])[0]


class TestRoundTrip:
    def test_result_json_round_trip(self, tiny_program):
        result = simulate(_pipe(), tiny_program)
        rebuilt = type(result).from_dict(result.to_dict())
        assert rebuilt == result

    def test_tib_result_json_round_trip(self, tiny_program):
        config = MachineConfig.tib(4, 16, memory_access_time=6, input_bus_width=8)
        result = simulate(config, tiny_program)
        rebuilt = type(result).from_dict(result.to_dict())
        assert type(rebuilt.fetch) is type(result.fetch)
        assert rebuilt == result


class TestSimulationCache:
    def test_miss_then_hit(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        config = _pipe()
        first = _resolve(config, tiny_program, cache)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        second = _resolve(config, tiny_program, cache)
        assert cache.stats.hits == 1
        assert first == second

    def test_hits_survive_a_fresh_cache_object(self, tiny_program, tmp_path):
        config = _pipe()
        first = _resolve(config, tiny_program, SimulationCache(tmp_path))
        reopened = SimulationCache(tmp_path)
        second = _resolve(config, tiny_program, reopened)
        assert reopened.stats.hits == 1
        assert first == second

    def test_corrupt_entry_is_a_miss(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        config = _pipe()
        _resolve(config, tiny_program, cache)
        (entry,) = cache.entries()
        entry.write_text("{not json")
        assert cache.lookup(config, tiny_program) is None

    def test_clear_and_stats(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        _resolve(_pipe(), tiny_program, cache)
        _resolve(_pipe().with_overrides(iq_size=8), tiny_program, cache)
        assert len(cache.entries()) == 2
        assert cache.size_bytes() > 0
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_no_cache_passthrough(self, tiny_program):
        result = _resolve(_pipe(), tiny_program, None)
        assert result.cycles > 0


class TestCrashSafety:
    """Format v3: atomic publish, checksum verification, quarantine."""

    def test_entries_embed_a_verified_checksum(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        result = _resolve(_pipe(), tiny_program, cache)
        (entry,) = cache.entries()
        payload = json.loads(entry.read_text())
        assert payload["version"] == CACHE_FORMAT_VERSION
        assert payload["checksum"] == result.checksum()

    def test_store_leaves_no_temp_droppings(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        _resolve(_pipe(), tiny_program, cache)
        leftovers = [
            path
            for path in Path(tmp_path).rglob("*")
            if path.is_file() and path.suffix != ".json"
        ]
        assert leftovers == []

    def test_tampered_payload_is_quarantined(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        _resolve(_pipe(), tiny_program, cache)
        (entry,) = cache.entries()
        payload = json.loads(entry.read_text())
        payload["result"]["cycles"] += 1  # a silently wrong number
        entry.write_text(json.dumps(payload))
        assert cache.lookup(_pipe(), tiny_program) is None
        assert cache.stats.quarantined == 1
        assert cache.entries() == []
        quarantined = cache.quarantined_entries()
        assert [path.name for path in quarantined] == [entry.name]

    def test_truncated_entry_is_quarantined(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        _resolve(_pipe(), tiny_program, cache)
        (entry,) = cache.entries()
        raw = entry.read_text()
        entry.write_text(raw[: len(raw) // 2])  # a torn, non-atomic write
        assert cache.lookup(_pipe(), tiny_program) is None
        assert cache.stats.quarantined == 1

    def test_version_mismatch_is_quarantined(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        _resolve(_pipe(), tiny_program, cache)
        (entry,) = cache.entries()
        payload = json.loads(entry.read_text())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        entry.write_text(json.dumps(payload))
        assert cache.lookup(_pipe(), tiny_program) is None
        assert cache.stats.quarantined == 1

    def test_quarantine_hook_reports_key_and_reason(
        self, tiny_program, tmp_path
    ):
        cache = SimulationCache(tmp_path)
        _resolve(_pipe(), tiny_program, cache)
        (entry,) = cache.entries()
        entry.write_text("{torn")
        seen = []
        cache.quarantine_hook = lambda key, reason: seen.append((key, reason))
        cache.lookup(_pipe(), tiny_program)
        ((key, reason),) = seen
        assert entry.name == f"{key}.json"
        assert reason

    def test_quarantined_entry_is_rebuilt_on_the_next_miss(
        self, tiny_program, tmp_path
    ):
        cache = SimulationCache(tmp_path)
        first = _resolve(_pipe(), tiny_program, cache)
        (entry,) = cache.entries()
        entry.write_text("{torn")
        second = _resolve(_pipe(), tiny_program, cache)
        assert second == first
        assert cache.lookup(_pipe(), tiny_program) == first  # verified again

    def test_describe_reports_the_quarantine(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        _resolve(_pipe(), tiny_program, cache)
        assert "quarantine: 0 entries" in cache.describe()
        (entry,) = cache.entries()
        entry.write_text("{torn")
        cache.lookup(_pipe(), tiny_program)
        description = cache.describe()
        assert "quarantine: 1 entry" in description
        assert QUARANTINE_DIR in description

    def test_clear_sweeps_the_quarantine_too(self, tiny_program, tmp_path):
        cache = SimulationCache(tmp_path)
        variant = _pipe().with_overrides(iq_size=8)
        _resolve(_pipe(), tiny_program, cache)
        _resolve(variant, tiny_program, cache)
        (entry, _other) = cache.entries()
        entry.write_text("{torn")
        cache.lookup(_pipe(), tiny_program)  # one of these quarantines it
        cache.lookup(variant, tiny_program)
        assert cache.stats.quarantined == 1
        assert cache.clear() == 1  # quarantined blobs are not counted
        assert cache.entries() == []
        assert cache.quarantined_entries() == []


class TestQuarantineCaps:
    """Satellite: the quarantine directory is size- and age-capped."""

    def _quarantine_blob(self, cache: SimulationCache, name: str, size: int,
                         age: float = 0.0) -> Path:
        qdir = cache.root / QUARANTINE_DIR
        qdir.mkdir(parents=True, exist_ok=True)
        path = qdir / f"{name}.json"
        path.write_bytes(b"x" * size)
        if age:
            import time

            stamp = time.time() - age
            os.utime(path, (stamp, stamp))
        return path

    def test_size_cap_evicts_oldest_first(self, tmp_path):
        cache = SimulationCache(tmp_path, quarantine_max_bytes=3000)
        old = self._quarantine_blob(cache, "old", 1500, age=300.0)
        mid = self._quarantine_blob(cache, "mid", 1500, age=200.0)
        new = self._quarantine_blob(cache, "new", 1500, age=100.0)
        assert cache.prune_quarantine() == 1
        assert not old.exists()
        assert mid.exists() and new.exists()

    def test_age_cap_expires_stale_blobs(self, tmp_path):
        cache = SimulationCache(tmp_path, quarantine_max_age=60.0)
        stale = self._quarantine_blob(cache, "stale", 10, age=120.0)
        fresh = self._quarantine_blob(cache, "fresh", 10, age=5.0)
        assert cache.prune_quarantine() == 1
        assert not stale.exists() and fresh.exists()

    def test_within_caps_nothing_is_pruned(self, tmp_path):
        cache = SimulationCache(tmp_path)
        kept = self._quarantine_blob(cache, "kept", 100, age=10.0)
        assert cache.prune_quarantine() == 0
        assert kept.exists()

    def test_quarantining_an_entry_enforces_the_cap(
        self, tiny_program, tmp_path
    ):
        # A flood of corrupt entries must not grow the quarantine
        # without bound: the cap is applied on every quarantine, not
        # only when someone remembers to prune.
        cache = SimulationCache(tmp_path, quarantine_max_bytes=1)
        _resolve(_pipe(), tiny_program, cache)
        (entry,) = cache.entries()
        entry.write_text("{torn")
        cache.lookup(_pipe(), tiny_program)
        assert cache.stats.quarantined == 1
        assert cache.quarantined_entries() == []  # pruned straight away

    def test_clear_quarantine_removes_everything(self, tmp_path):
        cache = SimulationCache(tmp_path)
        self._quarantine_blob(cache, "a", 10)
        self._quarantine_blob(cache, "b", 10)
        assert cache.clear_quarantine() == 2
        assert cache.quarantined_entries() == []

    def test_describe_reports_the_caps(self, tmp_path):
        cache = SimulationCache(tmp_path)
        description = cache.describe()
        assert "cap 4096 KiB / 7 days" in description
