"""Corrupt cache files must quarantine, never crash.

Property tests feed truncated, garbage, and wrong-schema payloads to
every cache-loader generation — the v3 shard loader
(``ShardCache.load``), the journal-verified load path, and the legacy
v1/v2 monolithic loader — and assert the same contract everywhere: the
load reads as a miss, the offending file lands in ``quarantine/``
(or raises under ``--strict``), and a subsequent run re-profiles to a
funnel that reconciles exactly.
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
from repro.eval.pipeline import _load_cache, _store_cache
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
    """A fully populated v3 cache directory plus its clean profile."""
    directory = str(tmp_path_factory.mktemp("seed-cache"))
    cache = ShardCache(directory)
    profile = profile_corpus_sharded(corpus, "haswell", seed=0, jobs=1,
                                     shards=shards, cache=cache)
    return directory, profile


def _fresh_cache(template: str) -> ShardCache:
    """Copy the seeded cache so each (hypothesis) example corrupts
    its own private directory."""
    directory = tempfile.mkdtemp(prefix="repro-corrupt-")
    for name in os.listdir(template):
        if name.endswith(".json"):
            shutil.copy(os.path.join(template, name),
                        os.path.join(directory, name))
    return ShardCache(directory)


def _assert_quarantined(cache: ShardCache, path: str) -> None:
    assert not os.path.exists(path)
    assert os.path.basename(path) in cache.quarantined_files()


# ---------------------------------------------------------------------------
# v3 shard loader
# ---------------------------------------------------------------------------

@needs_hypothesis
class TestV3Corruption:
    @given(cut=st.floats(min_value=0.0, max_value=0.98))
    @settings(**CORRUPTION_SETTINGS)
    def test_truncation_reads_as_quarantined_miss(self, seeded, shards,
                                                  cut):
        cache = _fresh_cache(seeded[0])
        shard = shards[0]
        path = cache.path_for(shard)
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
        path = cache.path_for(shard)
        with open(path, "wb") as fh:
            fh.write(noise)
        assert cache.load(shard) is None
        _assert_quarantined(cache, path)

    @given(mutation=st.sampled_from([
        "wrong_version", "wrong_digest", "wrong_count", "not_a_dict",
        "funnel_missing", "funnel_unbalanced", "offsets_out_of_range",
    ]))
    @settings(**CORRUPTION_SETTINGS)
    def test_wrong_schema_reads_as_quarantined_miss(self, seeded,
                                                    shards, mutation):
        cache = _fresh_cache(seeded[0])
        shard = shards[0]
        path = cache.path_for(shard)
        with open(path) as fh:
            doc = json.load(fh)
        if mutation == "wrong_version":
            doc["version"] = 2
        elif mutation == "wrong_digest":
            doc["digest"] = "00000000-0"
        elif mutation == "wrong_count":
            doc["count"] += 1
        elif mutation == "not_a_dict":
            doc = [doc]
        elif mutation == "funnel_missing":
            del doc["funnel"]
        elif mutation == "funnel_unbalanced":
            doc["funnel"]["accepted"] += 1
        elif mutation == "offsets_out_of_range":
            doc["throughputs"] = {"999": 1.0}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert cache.load(shard) is None
        _assert_quarantined(cache, path)


class TestV3Recovery:
    def test_corruption_reprofiles_to_identical_bytes(self, seeded,
                                                      corpus, shards):
        directory, clean = seeded
        cache = _fresh_cache(directory)
        first = cache.path_for(shards[0])
        with open(first, "r+") as fh:
            fh.truncate(10)
        with open(cache.path_for(shards[1]), "w") as fh:
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
        # The cache healed: both shards were re-written.
        assert all(shard in cache for shard in shards)

    def test_strict_mode_raises_instead(self, seeded, shards):
        cache = _fresh_cache(seeded[0])
        path = cache.path_for(shards[0])
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
        # Corrupt *after* journaling in a way that keeps the JSON
        # structurally valid — only the checksum can catch this.
        with open(cache.path_for(shard), "a") as fh:
            fh.write(" ")
        assert _load_verified(cache, shard,
                              {shard.digest: recorded}) is None
        _assert_quarantined(cache, cache.path_for(shard))


# ---------------------------------------------------------------------------
# Legacy v1/v2 monolithic loader
# ---------------------------------------------------------------------------

def _legacy_path() -> str:
    return os.path.join(tempfile.mkdtemp(prefix="repro-legacy-"),
                        "measured_main_haswell_0_deadbeef.json")


@needs_hypothesis
class TestLegacyCorruption:
    @given(noise=st.binary(max_size=80))
    @settings(**CORRUPTION_SETTINGS)
    def test_garbage_quarantines(self, noise):
        path = _legacy_path()
        with open(path, "wb") as fh:
            fh.write(noise)
        assert _load_cache(path) is None
        assert not os.path.exists(path)
        quarantine = os.path.join(os.path.dirname(path), "quarantine")
        assert os.path.basename(path) in os.listdir(quarantine)

    @given(payload=st.sampled_from([
        [1, 2, 3],                                  # not a mapping
        {"version": 2},                             # throughputs gone
        {"version": 2, "throughputs": {"x": 1.0}},  # non-int key
        {"version": 2, "throughputs": {"1": "a"}},  # non-float value
        {"version": 2, "throughputs": {}, "funnel": "zap"},
        {"7": "fast"},                              # v1, bad value
    ]))
    @settings(**CORRUPTION_SETTINGS)
    def test_wrong_schema_quarantines(self, payload):
        path = _legacy_path()
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert _load_cache(path) is None
        assert not os.path.exists(path)

    @given(cut=st.floats(min_value=0.0, max_value=0.95))
    @settings(**CORRUPTION_SETTINGS)
    def test_truncation_quarantines(self, cut):
        from repro.eval.validation import CorpusProfile
        path = _legacy_path()
        _store_cache(path, CorpusProfile(
            throughputs={1: 2.0, 2: 3.5},
            funnel={"total": 2, "accepted": 2, "dropped": {}}))
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:int(len(data) * cut)])
        assert _load_cache(path) is None
        assert not os.path.exists(path)


class TestLegacyStrict:
    def test_strict_mode_raises(self):
        path = _legacy_path()
        with open(path, "w") as fh:
            fh.write("not json")
        with envvars.forced("REPRO_STRICT", True):
            with pytest.raises(StrictModeViolation):
                _load_cache(path)
        assert os.path.exists(path)

    def test_quarantine_is_counted(self):
        telemetry.enable()
        path = _legacy_path()
        with open(path, "w") as fh:
            fh.write("not json")
        assert _load_cache(path) is None
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
        directory.mkdir()
        (directory / f"shard_abc.json.{dead_pid}.tmp").write_text("x")
        (directory / "noise.tmp").write_text("x")  # unparsable name
        live = (directory / f"shard_def.json.{os.getppid()}.tmp")
        live.write_text("x")
        ShardCache(str(directory))
        names = set(os.listdir(directory))
        assert f"shard_abc.json.{dead_pid}.tmp" not in names
        assert "noise.tmp" not in names
        assert live.name in names  # another live writer's temp
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["resilience.stale_temps_swept"] == 2

    def test_own_previous_incarnation_is_swept(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        mine = directory / f"shard_abc.json.{os.getpid()}.tmp"
        mine.write_text("x")
        ShardCache(str(directory))
        assert not mine.exists()
