"""Measurement store v4: one entry per block, keyed by block content.

A block's measurement is a pure function of its text and the machine
(uarch, seed), never of where the block sits in a corpus, so the store
keeps one entry per block and one store per (uarch, seed).  The
pipeline (every corpus tag), ``repro corpus --stream --resume`` and the
serve daemon all open the same directory::

    $REPRO_CACHE/measured_v4_<uarch>_<seed>/
        <kk>/<key>.json        # {"throughput": 1.25, "extra": [...]}
                               # or {"dropped": "<reason>", "extra": []}
        tmp/                   # <key>.json.<pid>.tmp while writing
        quarantine/            # corrupt entries, moved aside
        journal_<tag>.ndjson   # one run journal per corpus tag

``key`` is a 128-bit BLAKE2b digest of the block text (``kk`` its first
two hex digits).  ``extra`` lists the ``ProfileResult.extra`` flags that
feed the run's ``info`` tallies.  There is no index: a shard is a hit
only when every one of its blocks has an entry, and
:meth:`ShardCache.load` then assembles throughputs, funnel and info in
record order through :meth:`CorpusProfile.from_outcomes` — the rule a
fresh profile uses — so a hit is byte-identical to re-profiling.

Entries are write-once: :meth:`ShardCache.store` keeps an entry that
decodes and (re)writes only missing or corrupt ones.  Every write is
atomic (temp file in ``tmp/`` + ``os.replace``), so a killed run leaves
at worst an orphaned temp, never a half-written entry; orphans of dead
writers are swept when the store is opened.  An entry that does not
decode to exactly a finite throughput > 0 or a reason string, plus a
list of string extras, reads as a miss, never as an exception, and is
moved to ``quarantine/`` — unless strict mode promotes the corruption
into a :class:`repro.errors.StrictModeViolation`.

Writes run under the resilience retry policy: a transient ``OSError``
(including the injected ``write_oserror`` chaos point) is retried with
deterministic jittered backoff; persistent failure (e.g. disk full)
degrades to "shard not stored" instead of failing the run.
:meth:`ShardCache.store` and :meth:`ShardCache.checksum` return the
CRC-32 of the shard's entry bytes, concatenated in record order, which
the run journal (:mod:`repro.resilience.journal`) records and verifies
on resume.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import zlib
from typing import List, Optional, Tuple

from repro import envvars
from repro.parallel.sharding import Shard
from repro.profiler.harness import CorpusProfile, Outcome
from repro.resilience import chaos
from repro.resilience import policy as resilience
from repro.telemetry import cachestats
from repro.telemetry import core as telemetry

#: Subdirectory corrupt entries are moved to instead of raising.
QUARANTINE_DIR = "quarantine"

#: Subdirectory every in-flight write's temp file lives in.
TMP_DIR = "tmp"

# Default provider so the unified ``caches`` section always carries a
# ``shard`` row (pure counter read); opening a ShardCache replaces it
# with an instance-bound provider that also reports on-disk size.
cachestats.register_provider(
    "shard", lambda: cachestats.registry_stats("shard"))


def store_dir(uarch: str, seed: int) -> str:
    """The one measurement store for (uarch, seed) under ``REPRO_CACHE``."""
    return os.path.join(os.path.abspath(envvars.get("REPRO_CACHE")),
                        f"measured_v4_{uarch}_{seed}")


def entry_key(text: str) -> str:
    """Process-stable 128-bit content key of one block's text.

    Never builtin ``hash()`` (salted per process by ``PYTHONHASHSEED``),
    and not CRC-32 either: at the paper's ~358k blocks a 32-bit key
    would be expected to collide about 15 times.
    """
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def encode_entry(outcome: Outcome) -> bytes:
    value, extras = outcome
    field = "dropped" if isinstance(value, str) else "throughput"
    return json.dumps({field: value, "extra": list(extras)}).encode()


def decode_entry(data: bytes) -> Optional[Outcome]:
    """The entry's outcome, or ``None`` for anything but the schema."""
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError):
        return None
    if not isinstance(doc, dict) or len(doc) != 2:
        return None
    extras = doc.get("extra")
    if not isinstance(extras, list) \
            or not all(isinstance(key, str) for key in extras):
        return None
    if "throughput" in doc:
        value = doc["throughput"]
        if type(value) is not float or not math.isfinite(value) \
                or value <= 0:
            return None
    else:
        value = doc.get("dropped")
        if not isinstance(value, str) or not value:
            return None
    return value, tuple(extras)


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid currently running?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # e.g. EPERM: exists but not ours
    return True


class ShardCache:
    """Per-block measurement store, read and written a shard at a time."""

    def __init__(self, directory: str,
                 retry: Optional[resilience.RetryPolicy] = None):
        self.directory = directory
        self.retry = retry or resilience.default_retry_policy()
        os.makedirs(self.tmp_dir, exist_ok=True)
        self._sweep_stale_temps()
        # The unified ``caches`` section tracks the most recently
        # opened store; hit/miss counts come from the engine's
        # ``cache.shard.*`` counters.
        cachestats.register_provider("shard", self._cache_stats)

    def _cache_stats(self) -> cachestats.CacheStats:
        stats = cachestats.registry_stats("shard")
        try:
            stats.size = self.entry_count()
        except OSError:
            pass
        return stats

    # ------------------------------------------------------------------

    def entry_path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def entry_paths(self, shard: Shard) -> List[str]:
        """The shard's entry files, in record order."""
        return [self.entry_path(entry_key(record.block.text()))
                for record in shard.records]

    def entry_count(self) -> int:
        count = 0
        for name in os.listdir(self.directory):
            if len(name) == 2:
                count += sum(1 for entry in os.listdir(
                    os.path.join(self.directory, name))
                    if entry.endswith(".json"))
        return count

    @property
    def tmp_dir(self) -> str:
        return os.path.join(self.directory, TMP_DIR)

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, QUARANTINE_DIR)

    def quarantined_files(self) -> list:
        try:
            return sorted(os.listdir(self.quarantine_dir))
        except OSError:
            return []

    # ------------------------------------------------------------------

    def _sweep_stale_temps(self) -> None:
        """Remove temps left in ``tmp/`` by prior crashed writers.

        Temp names embed the writing pid (``<entry>.<pid>.tmp``); a
        temp whose writer is dead, is this process (which has not
        written yet), or whose name does not parse is an orphan and is
        deleted.  A live writer's temp is left for it to finish.
        """
        swept = 0
        for name in os.listdir(self.tmp_dir):
            try:
                pid = int(name.split(".")[-2])
            except (IndexError, ValueError):
                pid = None
            if pid is not None and pid != os.getpid() \
                    and _pid_alive(pid):
                continue
            try:
                os.unlink(os.path.join(self.tmp_dir, name))
                swept += 1
            except OSError:
                pass
        if swept:
            telemetry.count("resilience.stale_temps_swept", swept)
            telemetry.event("resilience.stale_temps_swept",
                            directory=self.directory, count=swept)

    def _quarantine(self, paths: List[str], reason: str) -> None:
        """Move corrupt entries to ``quarantine/`` (or raise in strict)."""
        resilience.quarantine_or_raise(
            f"corrupt measurement entry "
            f"{os.path.basename(paths[0])}", reason)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        for path in paths:
            name = os.path.basename(path)
            try:
                os.replace(path, os.path.join(self.quarantine_dir, name))
            except OSError:
                try:
                    os.unlink(path)
                except OSError:
                    continue
            telemetry.count("resilience.quarantined.cache_files")
            telemetry.count("cache.shard.evictions")
            telemetry.event("resilience.cache_file_quarantined",
                            file=name, reason=reason)

    def quarantine(self, shard: Shard, reason: str) -> None:
        """Quarantine every stored entry of ``shard``.

        For corruption only the shard as a whole can see, e.g. entry
        bytes that no longer match the run journal's checksum.
        """
        self._quarantine(self.entry_paths(shard), reason)

    def _read(self, path: str) -> Optional[Tuple[bytes, Outcome]]:
        """An entry's bytes and outcome; ``None`` if absent or corrupt."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None  # plain miss
        outcome = decode_entry(data)
        if outcome is None:
            self._quarantine([path], "malformed entry")
            return None
        return data, outcome

    # ------------------------------------------------------------------

    def checksum(self, shard: Shard) -> Optional[int]:
        """CRC-32 of the shard's entry bytes in record order
        (``None`` if any entry is absent)."""
        crc = 0
        for path in self.entry_paths(shard):
            try:
                with open(path, "rb") as fh:
                    crc = zlib.crc32(fh.read(), crc)
            except OSError:
                return None
        return crc

    def load(self, shard: Shard) -> Optional[CorpusProfile]:
        """The shard's profile if every block has an entry, else
        ``None``; a corrupt entry is quarantined on the way."""
        outcomes = []
        for path in self.entry_paths(shard):
            entry = self._read(path)
            if entry is None:
                return None
            outcomes.append(entry[1])
        return CorpusProfile.from_outcomes(shard.records, outcomes)

    def store(self, shard: Shard,
              profile: CorpusProfile) -> Optional[int]:
        """Persist the entries the shard's blocks do not have yet.

        Returns the CRC-32 of the shard's entry bytes as they stand on
        disk (for the run journal), or ``None`` when a write ultimately
        failed and the run degraded to "not stored" (salvage mode;
        strict mode raises).
        """
        if len(profile.outcomes) != len(shard):
            raise ValueError(
                f"shard {shard.digest}: profile carries "
                f"{len(profile.outcomes)} outcomes for {len(shard)} "
                f"blocks")
        paths = self.entry_paths(shard)

        def attempt_write(attempt: int) -> int:
            if attempt == 0 and chaos.fire("write_oserror",
                                           shard.digest):
                raise OSError(errno.EIO,
                              "chaos: transient write error")
            if chaos.fire("disk_full", shard.digest,
                          count=attempt == 0):
                raise OSError(errno.ENOSPC, "chaos: disk full")
            crc = 0
            for path, outcome in zip(paths, profile.outcomes):
                entry = self._read(path)
                data = entry[0] if entry else self._write(
                    path, encode_entry(outcome))
                crc = zlib.crc32(data, crc)
            return crc

        try:
            crc = self.retry.run(attempt_write, key=shard.digest)
        except OSError as exc:
            telemetry.count("resilience.cache_write_failures")
            telemetry.event("resilience.cache_write_failure",
                            digest=shard.digest,
                            error=type(exc).__name__)
            resilience.quarantine_or_raise(
                f"cache write failed for shard {shard.digest}",
                str(exc))
            return None
        self._maybe_corrupt_after_write(shard, paths[0])
        return crc

    def _write(self, path: str, data: bytes) -> bytes:
        tmp = os.path.join(self.tmp_dir,
                           f"{os.path.basename(path)}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            try:
                os.replace(tmp, path)
            except FileNotFoundError:  # first entry under this prefix
                os.makedirs(os.path.dirname(path), exist_ok=True)
                os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return data

    @staticmethod
    def _maybe_corrupt_after_write(shard: Shard, path: str) -> None:
        """Chaos points simulating a write that *looked* durable but
        left a truncated or garbage entry for the next reader."""
        if chaos.fire("cache_truncate", shard.digest):
            size = os.path.getsize(path)
            with open(path, "r+") as fh:
                fh.truncate(max(1, size // 2))
        elif chaos.fire("cache_garbage", shard.digest):
            with open(path, "w") as fh:
                fh.write("\x00garbage\x7f not json {{{")
