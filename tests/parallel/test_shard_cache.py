"""Measurement store v4: layout, defensive loads, write-once entries,
and whole-shard hits on a grown corpus."""

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.corpus.dataset import BlockRecord, Corpus, build_application
from repro.eval.validation import CorpusProfile
from repro.parallel import (ShardCache, profile_corpus_sharded,
                            shard_corpus)
from repro.parallel.shard_cache import decode_entry, entry_key


@pytest.fixture(scope="module")
def corpus():
    return build_application("llvm", count=20, seed=6)


@pytest.fixture()
def cache(tmp_path):
    return ShardCache(str(tmp_path))


def _profile_for(shard, value=2.0, drop_every=5):
    outcomes = []
    for i, record in enumerate(shard.records):
        if drop_every and i % drop_every == drop_every - 1:
            outcomes.append(("sigfpe", ()))
        else:
            outcomes.append((value + i, ("blockplan_compiled",)))
    return CorpusProfile.from_outcomes(shard.records, outcomes)


def _renumbered(records, start=0):
    return [BlockRecord(block=r.block, application=r.application,
                        frequency=r.frequency, block_id=start + i)
            for i, r in enumerate(records)]


def _bytes(profile):
    return json.dumps({"t": profile.throughputs, "f": profile.funnel,
                       "i": profile.info})


class TestRoundTrip:
    def test_store_load_identity(self, corpus, cache):
        for shard in shard_corpus(corpus, 6):
            profile = _profile_for(shard)
            cache.store(shard, profile)
            loaded = cache.load(shard)
            assert _bytes(loaded) == _bytes(profile)

    def test_offset_keying_survives_id_shifts(self, corpus, cache):
        """Same content, shifted block ids: the stored entries are
        still valid and map to the new ids — entries are keyed by
        block text, never by id or position."""
        (shard,) = shard_corpus(corpus.records[:6], 6)
        cache.store(shard, _profile_for(shard, drop_every=0))

        shifted_records = [
            BlockRecord(block=r.block, application=r.application,
                        frequency=r.frequency, block_id=r.block_id + 100)
            for r in shard.records]
        (shifted,) = shard_corpus(shifted_records, 6)
        assert shifted.digest == shard.digest  # content-addressed
        loaded = cache.load(shifted)
        assert set(loaded.throughputs) == \
            {r.block_id for r in shifted_records}

    def test_no_temp_files_after_store(self, corpus, cache, tmp_path):
        for shard in shard_corpus(corpus, 8):
            cache.store(shard, _profile_for(shard))
        assert os.listdir(cache.tmp_dir) == []
        assert cache.entry_count() == len(corpus)

    def test_one_entry_per_block_under_its_content_key(self, corpus,
                                                        cache):
        (shard,) = shard_corpus(corpus.records[:5], 5)
        cache.store(shard, _profile_for(shard))
        for record, path in zip(shard.records, cache.entry_paths(shard)):
            key = entry_key(record.block.text())
            assert len(key) == 32  # 128-bit digest
            assert path.endswith(os.path.join(key[:2], f"{key}.json"))
            with open(path, "rb") as fh:
                assert decode_entry(fh.read()) is not None

    def test_store_needs_per_block_outcomes(self, corpus, cache):
        (shard,) = shard_corpus(corpus.records[:4], 4)
        merged = CorpusProfile(
            throughputs={r.block_id: 1.0 for r in shard.records},
            funnel={"total": 4, "accepted": 4, "dropped": {}})
        with pytest.raises(ValueError):
            cache.store(shard, merged)


class TestWriteOnce:
    def test_existing_entry_is_kept(self, corpus, cache):
        (shard,) = shard_corpus(corpus.records[:4], 4)
        first = cache.store(shard, _profile_for(shard, value=2.0))
        again = cache.store(shard, _profile_for(shard, value=9.0))
        assert again == first == cache.checksum(shard)
        assert cache.load(shard).throughputs[shard.records[0].block_id] \
            == 2.0

    def test_corrupt_entry_is_rewritten(self, corpus, cache):
        (shard,) = shard_corpus(corpus.records[:4], 4)
        profile = _profile_for(shard)
        clean = cache.store(shard, profile)
        path = cache.entry_paths(shard)[1]
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.store(shard, profile) == clean
        assert os.path.basename(path) in cache.quarantined_files()
        assert _bytes(cache.load(shard)) == _bytes(profile)


class TestDefensiveLoads:
    def _stored(self, corpus, cache):
        (shard,) = shard_corpus(corpus.records[:4], 4)
        cache.store(shard, _profile_for(shard))
        return shard

    def test_missing_is_none(self, corpus, cache):
        (shard,) = shard_corpus(corpus.records[:4], 4)
        assert cache.load(shard) is None

    def test_truncated_json_is_a_miss(self, corpus, cache):
        shard = self._stored(corpus, cache)
        with open(cache.entry_paths(shard)[0], "w") as fh:
            fh.write('{"throughput": ')
        assert cache.load(shard) is None

    def test_wrong_version_is_a_miss(self, corpus, cache):
        """An entry in any other schema (here: a versioned document
        with extra keys) is a miss, not a partial read."""
        shard = self._stored(corpus, cache)
        path = cache.entry_paths(shard)[0]
        with open(path) as fh:
            doc = json.load(fh)
        doc["version"] = 3
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert cache.load(shard) is None

    def test_incoherent_funnel_is_a_miss(self, corpus, cache):
        """A shard hits only when every block has an entry: one
        missing entry reads as a miss, never as a funnel that covers
        part of the shard."""
        shard = self._stored(corpus, cache)
        os.unlink(cache.entry_paths(shard)[2])
        assert cache.load(shard) is None
        assert cache.checksum(shard) is None
        assert cache.quarantined_files() == []


class TestGrownStore:
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_grown_superset_reuses_fully_stored_shards(self, tmp_path,
                                                       jobs):
        """A corpus grown 25% shifts every shard boundary after the
        first insertion; shards whose blocks were all measured before
        still hit, and the output is the cold run's, byte for byte."""
        records = build_application("llvm", count=40, seed=6).records
        kept = [r for i, r in enumerate(records) if i % 5 != 2]
        base = Corpus(_renumbered(kept))
        grown = Corpus(_renumbered(records))
        cache = ShardCache(str(tmp_path / "store"))
        profile_corpus_sharded(base, "haswell", seed=0, jobs=jobs,
                               shard_size=4, cache=cache)

        stored = {r.block.text() for r in base}
        shards = shard_corpus(grown, 4)
        expected_hits = sum(
            1 for shard in shards
            if all(r.block.text() in stored for r in shard.records))
        assert 0 < expected_hits < len(shards)

        stats = {}
        warm = profile_corpus_sharded(grown, "haswell", seed=0,
                                      jobs=jobs, shards=shards,
                                      cache=cache, stats=stats)
        cold = profile_corpus_sharded(grown, "haswell", seed=0, jobs=1,
                                      shard_size=4)
        assert _bytes(warm) == _bytes(cold)
        assert stats["cache_hits"] == expected_hits
        assert stats["profiled"] == len(shards) - expected_hits
        assert cache.entry_count() == len(grown)


def _store_rounds(directory, records, rounds):
    """Pool worker: store every shard ``rounds`` times, return the
    shards' checksums as this process sees them."""
    cache = ShardCache(directory)
    shards = shard_corpus(records, 4)
    for _ in range(rounds):
        for shard in shards:
            cache.store(shard, _profile_for(shard))
    return [cache.checksum(shard) for shard in shards]


class TestConcurrentWriters:
    def test_processes_sharing_a_store_agree(self, corpus, tmp_path):
        """The daemon and pipeline runs may write one store at once:
        racing writers of the same entries leave every entry whole,
        no temp behind, nothing quarantined, and one checksum."""
        directory = str(tmp_path / "store")
        writers = 4  # more than the cores of the 2-core CI hosts
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(writers, mp_context=context) as pool:
            futures = [pool.submit(_store_rounds, directory,
                                   corpus.records, 3)
                       for _ in range(writers)]
            sums = [future.result(timeout=120) for future in futures]
        cache = ShardCache(directory)
        shards = shard_corpus(corpus.records, 4)
        assert sums == [[cache.checksum(s) for s in shards]] * writers
        assert os.listdir(cache.tmp_dir) == []
        assert cache.quarantined_files() == []
        for shard in shards:
            assert _bytes(cache.load(shard)) == \
                _bytes(_profile_for(shard))
