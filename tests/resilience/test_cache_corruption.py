"""Corrupt measurement-store entries must quarantine, never crash.

Property tests feed truncated, garbage, wrong-schema and wrong-typed
entries to the store's loader (``ShardCache.load``) and to the
journal-verified load path, and assert one contract everywhere: the
load reads as a miss, the offending entry lands in ``quarantine/``
(or raises under ``--strict``), and a subsequent run re-profiles to
the clean run's exact bytes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro import envvars, telemetry
from repro.corpus.dataset import build_application
from repro.errors import StrictModeViolation
from repro.parallel import (ShardCache, profile_corpus_sharded,
                            shard_corpus)
from repro.parallel.engine import _load_verified

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment-dependent
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(not HAVE_HYPOTHESIS,
                                      reason="hypothesis not installed")

#: Hypothesis profile shared by the corruption properties: corruption
#: bytes are cheap to generate, but the cache fixture is module-scoped
#: (profiling once is the expensive part), so the function-scoped
#: autouse isolation fixture triggers a health check we silence.
CORRUPTION_SETTINGS = dict(max_examples=25, deadline=None)
if HAVE_HYPOTHESIS:
    CORRUPTION_SETTINGS["suppress_health_check"] = \
        [HealthCheck.function_scoped_fixture]


@pytest.fixture(scope="module")
def corpus():
    return build_application("llvm", count=8, seed=3)


@pytest.fixture(scope="module")
def shards(corpus):
    return shard_corpus(corpus, 4)


@pytest.fixture(scope="module")
def seeded(corpus, shards, tmp_path_factory):
    """A fully populated store directory plus its clean profile."""
    directory = str(tmp_path_factory.mktemp("seed-cache"))
    cache = ShardCache(directory)
    profile = profile_corpus_sharded(corpus, "haswell", seed=0, jobs=1,
                                     shards=shards, cache=cache)
    return directory, profile


def _fresh_cache(template: str) -> ShardCache:
    """Copy the seeded cache so each (hypothesis) example corrupts
    its own private directory."""
    directory = os.path.join(tempfile.mkdtemp(prefix="repro-corrupt-"),
                             "store")
    shutil.copytree(template, directory)
    return ShardCache(directory)


def _assert_quarantined(cache: ShardCache, path: str) -> None:
    assert not os.path.exists(path)
    assert os.path.basename(path) in cache.quarantined_files()


# ---------------------------------------------------------------------------
# Entry loader
# ---------------------------------------------------------------------------

#: Entries that decode as JSON but are not exactly a finite throughput
#: > 0 or a reason string, plus a list of string extras.
WRONG_TYPED = {
    "not_a_dict": [{"throughput": 1.5, "extra": []}],
    "throughput_list": {"throughput": [1, 2], "extra": []},
    "throughput_string": {"throughput": "abc", "extra": []},
    "throughput_negative": {"throughput": -5.0, "extra": []},
    "throughput_zero": {"throughput": 0.0, "extra": []},
    "throughput_int": {"throughput": 3, "extra": []},
    "throughput_bool": {"throughput": True, "extra": []},
    "throughput_nan": {"throughput": float("nan"), "extra": []},
    "throughput_inf": {"throughput": float("inf"), "extra": []},
    "dropped_mapping": {"dropped": {"x": "3"}, "extra": []},
    "dropped_empty": {"dropped": "", "extra": []},
    "funnel_list": {"funnel": [1], "extra": []},
    "both_outcomes": {"throughput": 1.5, "dropped": "sigfpe",
                      "extra": []},
    "extra_missing": {"throughput": 1.5},
    "extra_not_a_list": {"throughput": 1.5, "extra": "fastpath"},
    "extra_not_strings": {"throughput": 1.5, "extra": [1]},
    "extra_key": {"throughput": 1.5, "extra": [], "version": 3},
}


@needs_hypothesis
class TestV3Corruption:
    @given(cut=st.floats(min_value=0.0, max_value=0.98))
    @settings(**CORRUPTION_SETTINGS)
    def test_truncation_reads_as_quarantined_miss(self, seeded, shards,
                                                  cut):
        cache = _fresh_cache(seeded[0])
        shard = shards[0]
        path = cache.entry_paths(shard)[1]
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:int(len(data) * cut)])
        assert cache.load(shard) is None
        _assert_quarantined(cache, path)

    @given(noise=st.binary(max_size=80))
    @settings(**CORRUPTION_SETTINGS)
    def test_garbage_reads_as_quarantined_miss(self, seeded, shards,
                                               noise):
        cache = _fresh_cache(seeded[0])
        shard = shards[1]
        path = cache.entry_paths(shard)[0]
        with open(path, "wb") as fh:
            fh.write(noise)
        assert cache.load(shard) is None
        _assert_quarantined(cache, path)

    @given(mutation=st.sampled_from(sorted(WRONG_TYPED)))
    @settings(**CORRUPTION_SETTINGS)
    def test_wrong_schema_reads_as_quarantined_miss(self, seeded,
                                                    shards, mutation):
        cache = _fresh_cache(seeded[0])
        shard = shards[0]
        path = cache.entry_paths(shard)[-1]
        with open(path, "w") as fh:
            json.dump(WRONG_TYPED[mutation], fh)
        assert cache.load(shard) is None
        _assert_quarantined(cache, path)


@pytest.mark.parametrize("payload", [
    *(json.dumps(doc).encode() for doc in WRONG_TYPED.values()),
    b'{"throughput": 1.5, "ext', b"", b"\x00\xff garbage {{{",
], ids=[*WRONG_TYPED, "truncated", "empty", "garbage"])
def test_wrong_typed_entry_is_quarantined(seeded, shards, payload):
    """Every defective entry is a quarantined miss: no exception, no
    served value of the wrong type, no funnel that overstates."""
    cache = _fresh_cache(seeded[0])
    shard = shards[0]
    path = cache.entry_paths(shard)[0]
    with open(path, "wb") as fh:
        fh.write(payload)
    assert cache.load(shard) is None
    _assert_quarantined(cache, path)
    assert _load_verified(cache, shard, {}) is None


class TestV3Recovery:
    def test_corruption_reprofiles_to_identical_bytes(self, seeded,
                                                      corpus, shards):
        directory, clean = seeded
        cache = _fresh_cache(directory)
        first = cache.entry_paths(shards[0])[0]
        with open(first, "r+") as fh:
            fh.truncate(10)
        with open(cache.entry_paths(shards[1])[2], "w") as fh:
            fh.write("\x00 garbage {{{")
        profile = profile_corpus_sharded(corpus, "haswell", seed=0,
                                         jobs=1, shards=shards,
                                         cache=cache)
        assert json.dumps(profile.throughputs) == \
            json.dumps(clean.throughputs)
        assert profile.funnel == clean.funnel
        funnel = profile.funnel
        assert funnel["total"] == len(corpus)
        assert funnel["accepted"] + sum(funnel["dropped"].values()) \
            == funnel["total"]
        assert len(cache.quarantined_files()) == 2
        # The store healed: both shards' entries were re-written.
        assert all(cache.load(shard) is not None for shard in shards)

    def test_strict_mode_raises_instead(self, seeded, shards):
        cache = _fresh_cache(seeded[0])
        path = cache.entry_paths(shards[0])[0]
        with open(path, "w") as fh:
            fh.write("not json")
        with envvars.forced("REPRO_STRICT", True):
            with pytest.raises(StrictModeViolation):
                cache.load(shards[0])
        assert os.path.exists(path)  # strict mode does not move it

    def test_journal_checksum_mismatch_quarantines(self, seeded,
                                                   shards):
        cache = _fresh_cache(seeded[0])
        shard = shards[0]
        recorded = cache.checksum(shard)
        assert _load_verified(cache, shard,
                              {shard.digest: recorded}) is not None
        # Corrupt *after* journaling in a way that keeps the entry
        # structurally valid — only the checksum can catch this.
        path = cache.entry_paths(shard)[1]
        with open(path, "a") as fh:
            fh.write(" ")
        assert _load_verified(cache, shard,
                              {shard.digest: recorded}) is None
        for entry in cache.entry_paths(shard):
            _assert_quarantined(cache, entry)

    def test_quarantine_is_counted(self, seeded, shards):
        telemetry.enable()
        cache = _fresh_cache(seeded[0])
        with open(cache.entry_paths(shards[0])[0], "w") as fh:
            fh.write("not json")
        assert cache.load(shards[0]) is None
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["resilience.quarantined.cache_files"] == 1


# ---------------------------------------------------------------------------
# Stale temp sweep (crash debris)
# ---------------------------------------------------------------------------

class TestStaleTempSweep:
    def test_dead_writers_are_swept_live_ones_kept(self, tmp_path):
        telemetry.enable()
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead_pid = proc.pid  # reaped: guaranteed-dead pid
        directory = tmp_path / "cache"
        temps = directory / "tmp"
        temps.mkdir(parents=True)
        (temps / f"abc.json.{dead_pid}.tmp").write_text("x")
        (temps / "noise.tmp").write_text("x")  # unparsable name
        live = (temps / f"def.json.{os.getppid()}.tmp")
        live.write_text("x")
        ShardCache(str(directory))
        names = set(os.listdir(temps))
        assert names == {live.name}  # another live writer's temp
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["resilience.stale_temps_swept"] == 2

    def test_own_previous_incarnation_is_swept(self, tmp_path):
        temps = tmp_path / "cache" / "tmp"
        temps.mkdir(parents=True)
        mine = temps / f"abc.json.{os.getpid()}.tmp"
        mine.write_text("x")
        ShardCache(str(tmp_path / "cache"))
        assert not mine.exists()
