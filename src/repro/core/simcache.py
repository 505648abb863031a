"""Content-addressed, on-disk cache of simulation results.

The paper's evaluation is hundreds of ``simulate(config, program)``
points, and the experiments overlap heavily: figure5b, figure6a, the
headline claim, and the ablations all re-visit the same ``(T=6, 8B
bus)`` sweep, and a ``repro-sim report`` re-runs every one of them from
scratch.  Each point is fully determined by its inputs — the simulator
is deterministic — so results can be cached *by content*:

* a **program fingerprint**: SHA-256 over the instruction format, the
  entry point, and the raw image bytes (anything that changes the
  assembled benchmark — workload scale, kernel edits, seed — changes
  the image, and therefore the fingerprint);
* a **config fingerprint**: SHA-256 over the canonical JSON of
  :meth:`MachineConfig.to_dict` (every field participates, so changing
  any parameter invalidates the entry);
* the entry key is the SHA-256 of both, and the payload is the JSON of
  :meth:`SimulationResult.to_dict` stored under
  ``.repro_cache/<key[:2]>/<key>.json``.

``CACHE_FORMAT_VERSION`` and the scheduler's ``ENGINE_REVISION`` are
folded into the key so schema changes and simulation-engine changes
invalidate old blobs instead of misparsing them.

**Crash safety (format v3).**  A cached number that is *wrong* is worse
than no cache at all, so every entry defends itself end to end: writes
go to a unique temp sibling and are published with an atomic
``os.replace`` (a killed writer can never leave a half-written entry
under a valid name), and each entry embeds a SHA-256 checksum of its
canonical result payload which :meth:`SimulationCache.lookup` verifies
before trusting a byte.  An entry that fails to parse, fails the
checksum, or carries the wrong format version is treated as a miss and
**quarantined** — moved to ``.repro_cache/quarantine/`` and counted in
:attr:`CacheStats.quarantined` — so corruption is visible in
``repro-sim cache stats`` instead of silently poisoning sweeps, and the
bad blob is preserved for inspection instead of being re-read forever.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..asm.program import Program
from .config import MachineConfig
from .results import SimulationResult
from .scheduler import ENGINE_REVISION

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "QUARANTINE_DIR",
    "QUARANTINE_MAX_AGE_SECONDS",
    "QUARANTINE_MAX_BYTES",
    "SimulationCache",
    "config_fingerprint",
    "program_fingerprint",
    "result_key",
    "sweep_point_keys",
]

#: Bumped whenever the serialized result schema changes shape.
#: v2: results carry the optional ``trace_metrics`` aggregate.
#: v3: entries embed a content checksum verified on every lookup;
#:     unverifiable entries are quarantined instead of re-read.
CACHE_FORMAT_VERSION = 3

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"

#: Caps on the quarantine directory, enforced after every quarantine
#: move: entries older than the age cap are deleted, then the oldest
#: survivors are evicted until the directory fits the byte cap.  A
#: flaky disk quarantining on every lookup thus converges to a bounded
#: forensic sample instead of a second, ever-growing cache.
QUARANTINE_MAX_BYTES = 4 * 1024 * 1024
QUARANTINE_MAX_AGE_SECONDS = 7 * 24 * 3600.0


def program_fingerprint(program: Program) -> str:
    """Stable hex digest of everything the simulator reads from a program."""
    h = hashlib.sha256()
    h.update(program.fmt.value.encode())
    h.update(program.entry_point.to_bytes(8, "little"))
    h.update(bytes(program.image))
    return h.hexdigest()


def config_fingerprint(config: MachineConfig) -> str:
    """Stable hex digest of a machine configuration (every field counts)."""
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_key(
    config: MachineConfig, program: Program, program_fp: str | None = None
) -> str:
    """The content address of one ``(config, program)`` simulation point.

    ``program_fp`` (a precomputed :func:`program_fingerprint`) avoids
    re-hashing the program image when keying many points at once.
    """
    h = hashlib.sha256()
    h.update(f"v{CACHE_FORMAT_VERSION}:{ENGINE_REVISION}".encode())
    h.update(config_fingerprint(config).encode())
    h.update((program_fp or program_fingerprint(program)).encode())
    return h.hexdigest()


def sweep_point_keys(program: Program, configs) -> list[str]:
    """Content addresses for many points, hashing the program once."""
    program_fp = program_fingerprint(program)
    return [result_key(config, program, program_fp) for config in configs]


def _payload_checksum(result_dict: dict) -> str:
    """SHA-256 of the canonical JSON of one serialized result."""
    canonical = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`SimulationCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: entries that failed parsing, checksum, or version verification
    #: and were moved to the quarantine directory
    quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class SimulationCache:
    """Persists :class:`SimulationResult` blobs keyed by content address.

    The cache is safe for concurrent writers (sweep points running in
    parallel processes share one directory): writes go to a unique temp
    file and are published with an atomic rename.  Every entry embeds a
    content checksum verified on lookup; an entry that cannot be
    verified — corrupt, truncated, or the wrong format version — reads
    as a miss and is quarantined under :data:`QUARANTINE_DIR`, never an
    error and never a silently wrong number.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        quarantine_max_bytes: int = QUARANTINE_MAX_BYTES,
        quarantine_max_age: float = QUARANTINE_MAX_AGE_SECONDS,
    ):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.quarantine_max_bytes = quarantine_max_bytes
        self.quarantine_max_age = quarantine_max_age
        self.stats = CacheStats()
        #: optional ``(key, reason)`` callback fired on each quarantine
        #: (the sweep supervisor records these in its FaultReport)
        self.quarantine_hook = None
        #: program fingerprints are expensive (they hash the image), so
        #: memoize them per Program identity for the lifetime of the cache
        self._program_keys: dict[int, str] = {}

    # ------------------------------------------------------------------
    def _key(self, config: MachineConfig, program: Program) -> str:
        program_fp = self._program_keys.get(id(program))
        if program_fp is None:
            program_fp = program_fingerprint(program)
            self._program_keys[id(program)] = program_fp
        return result_key(config, program, program_fp)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def lookup(
        self, config: MachineConfig, program: Program
    ) -> SimulationResult | None:
        """The verified cached result for this point, or ``None``.

        A present-but-unverifiable entry (parse failure, checksum or
        format-version mismatch) counts as a miss, is quarantined, and
        bumps :attr:`CacheStats.quarantined`.
        """
        key = self._key(config, program)
        path = self._path(key)
        try:
            raw = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None  # genuinely absent: nothing to quarantine
        try:
            payload = json.loads(raw)
            version = payload["version"]
            if version != CACHE_FORMAT_VERSION:
                raise ValueError(f"format version {version!r}")
            stored = payload["checksum"]
            actual = _payload_checksum(payload["result"])
            if stored != actual:
                raise ValueError(
                    f"checksum mismatch (stored {str(stored)[:12]}…, "
                    f"actual {actual[:12]}…)"
                )
            result = SimulationResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            self._quarantine(path)
            self.stats.misses += 1
            self.stats.quarantined += 1
            if self.quarantine_hook is not None:
                self.quarantine_hook(key, reason)
            return None
        self.stats.hits += 1
        return result

    def store(
        self, config: MachineConfig, program: Program, result: SimulationResult
    ) -> None:
        """Persist one finished simulation point (atomic publish).

        The entry is written to a unique temp sibling and published
        with ``os.replace``, so a writer killed at any instant leaves
        either the previous entry or the complete new one — never a
        torn file under a valid entry name.
        """
        from .faults import corrupt_stored_entry  # the injection harness

        key = self._key(config, program)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "checksum": result.checksum(),
            "result": result.to_dict(),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        self.stats.stores += 1
        # Deterministic fault injection (inert without an active plan):
        # truncate the just-published entry so the verification path
        # stays exercised end to end.
        corrupt_stored_entry(path, key)

    def _quarantine(self, path: Path) -> None:
        """Move one unverifiable entry aside (best effort, atomic)."""
        target = self.root / QUARANTINE_DIR / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Cross-device or permission trouble: delete instead, so the
            # bad entry at least cannot be re-read forever.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        self.prune_quarantine()

    def prune_quarantine(self) -> int:
        """Enforce the quarantine age and size caps; returns removals.

        Entries older than :attr:`quarantine_max_age` seconds go first,
        then the oldest survivors are evicted until the directory's
        total size fits :attr:`quarantine_max_bytes`.  Newest blobs are
        kept — they describe the corruption most likely still under
        investigation.
        """
        import time

        stamped: list[tuple[float, int, Path]] = []
        for path in self.quarantined_entries():
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted underneath us: nothing to prune
            stamped.append((stat.st_mtime, stat.st_size, path))
        stamped.sort()  # oldest first

        removed = 0
        cutoff = time.time() - self.quarantine_max_age
        total = sum(size for _mtime, size, _path in stamped)
        for mtime, size, path in stamped:
            if mtime >= cutoff and total <= self.quarantine_max_bytes:
                break  # survivors are younger and the cap is met
            try:
                path.unlink(missing_ok=True)
                removed += 1
                total -= size
            except OSError:
                pass
        return removed

    def clear_quarantine(self) -> int:
        """Delete every quarantined blob; returns the number removed."""
        removed = 0
        for path in self.quarantined_entries():
            try:
                path.unlink(missing_ok=True)
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    # Management (the ``repro-sim cache`` subcommand)
    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        # Live entries live under two-hex-character shard directories;
        # the quarantine directory never matches "??".
        return sorted(self.root.glob("??/*.json"))

    def quarantined_entries(self) -> list[Path]:
        """Entries that failed verification and were moved aside."""
        quarantine = self.root / QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        return sorted(quarantine.glob("*.json"))

    def size_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass  # blob deleted between the glob and the stat
        return total

    def clear(self) -> int:
        """Delete every cached blob; returns the number removed.

        Quarantined entries are swept too (they are dead weight once
        noticed) but do not count toward the return value.
        """
        if not self.root.is_dir():
            return 0  # nothing to do on a missing (or non-directory) root
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.quarantined_entries():
            path.unlink(missing_ok=True)
        for child in self.root.glob("*"):
            if child.is_dir():
                try:
                    child.rmdir()
                except OSError:
                    pass  # non-empty (e.g. a concurrent writer's temp file)
        return removed

    def describe(self) -> str:
        entries = self.entries()
        quarantined = self.quarantined_entries()
        total = self.size_bytes()
        quarantine_bytes = 0
        for path in quarantined:
            try:
                quarantine_bytes += path.stat().st_size
            except OSError:
                pass
        lines = [
            f"cache dir : {self.root}",
            f"entries   : {len(entries)}",
            f"size      : {total / 1024:.1f} KiB",
            f"quarantine: {len(quarantined)} entr"
            f"{'y' if len(quarantined) == 1 else 'ies'}, "
            f"{quarantine_bytes / 1024:.1f} KiB "
            f"(cap {self.quarantine_max_bytes / 1024:.0f} KiB / "
            f"{self.quarantine_max_age / 86400:.0f} days)",
        ]
        if quarantined:
            lines.append(
                f"            ({self.root / QUARANTINE_DIR} — corrupt or "
                "stale-format blobs caught by lookup verification)"
            )
        return "\n".join(lines)

