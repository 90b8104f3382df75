"""The cached experiment pipeline."""

import os

import pytest

from repro.eval.pipeline import Experiment, default_experiment


@pytest.fixture()
def tiny(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    return Experiment(scale=0.0003, seed=9)


class TestLaziness:
    def test_corpus_built_once(self, tiny):
        assert tiny.corpus is tiny.corpus

    def test_models_are_the_papers_four(self, tiny):
        names = {m.name for m in tiny.models}
        assert names == {"IACA", "llvm-mca", "Ithemal", "OSACA"}

    def test_classification_covers_corpus(self, tiny):
        assert len(tiny.classification.categories) == len(tiny.corpus)


def _entries(store):
    return {entry for prefix in os.listdir(store) if len(prefix) == 2
            for entry in os.listdir(store / prefix)}


class TestMeasurementCache:
    def test_disk_cache_roundtrip(self, tiny, tmp_path):
        first = tiny.measured("haswell")
        dirs = [f for f in os.listdir(tmp_path)
                if f.startswith("measured_")]
        assert dirs == ["measured_v4_haswell_9"]
        assert _entries(tmp_path / dirs[0])  # per-block entries
        # A fresh experiment object reads the cache instead of
        # re-simulating.
        again = Experiment(scale=0.0003, seed=9)
        assert again.measured("haswell") == first
        assert again.funnel("haswell") == tiny.funnel("haswell")

    def test_cache_keyed_by_shard_content(self, tiny, tmp_path):
        """Entries are keyed by block content: a different corpus
        (different scale) adds entries for its new blocks to the same
        (uarch, seed) store instead of matching stale ones."""
        tiny.measured("haswell")
        store = tmp_path / "measured_v4_haswell_9"
        before = _entries(store)
        other = Experiment(scale=0.0004, seed=9)
        other.measured("haswell")
        after = _entries(store)
        assert after - before  # new content -> new entries

    def test_grown_corpus_reprofiles_only_new_shards(self, tiny,
                                                     tmp_path):
        """Incremental invalidation: appending shard-aligned blocks
        leaves existing entries valid, so a re-run only profiles the
        tail."""
        from repro.corpus.dataset import Corpus, build_application

        records = build_application("llvm", count=40, seed=9).records
        base = Corpus(records[:30])
        grown = Corpus(records)  # base + one more 10-block shard

        first = Experiment(scale=0.0003, seed=9, shard_size=10)
        measured_base = first.measured("haswell", corpus=base)
        store = tmp_path / "measured_v4_haswell_9"
        before = _entries(store)
        assert len(before) == 30
        # The always-on run journal lives in the store, one per tag.
        assert "journal_main.ndjson" in os.listdir(store)

        second = Experiment(scale=0.0003, seed=9, shard_size=10)
        measured_grown = second.measured("haswell", corpus=grown)
        after = _entries(store)
        # Every pre-existing entry was reused verbatim; only the
        # appended shard's blocks produced new entries.
        assert before <= after
        assert len(after - before) == 10
        for block_id, value in measured_base.items():
            assert measured_grown[block_id] == value

    def test_tags_share_one_store(self, tiny, tmp_path):
        """Every corpus tag reads and writes the same (uarch, seed)
        store; each keeps its own run journal."""
        tiny.measured("haswell")
        store = tmp_path / "measured_v4_haswell_9"
        before = _entries(store)
        again = Experiment(scale=0.0003, seed=9)
        again.measured("haswell", corpus=tiny.corpus, tag="spanner")
        assert _entries(store) == before
        assert [f for f in os.listdir(tmp_path)
                if f.startswith("measured_")] == ["measured_v4_haswell_9"]
        assert {"journal_main.ndjson", "journal_spanner.ndjson"} <= \
            set(os.listdir(store))

    def test_measured_jobs_override_is_bit_identical(self, tiny,
                                                     tmp_path):
        serial = tiny.measured("haswell")
        import shutil
        shutil.rmtree(tmp_path / "measured_v4_haswell_9")
        fresh = Experiment(scale=0.0003, seed=9)
        parallel = fresh.measured("haswell", jobs=2)
        assert parallel == serial
        assert fresh.funnel("haswell") == tiny.funnel("haswell")

    def test_validation_cached_per_uarch(self, tiny):
        val = tiny.validation("haswell")
        assert tiny.validation("haswell") is val
        assert val.rows


class TestGoogle:
    def test_google_validation_excludes_osaca(self, tiny):
        val = tiny.google_validation("spanner")
        assert "OSACA" not in val.model_names
        assert val.rows

    def test_google_corpora_both_apps(self, tiny):
        assert set(tiny.google_corpora) == {"spanner", "dremel"}


def test_default_experiment_is_shared():
    assert default_experiment(0.0003, 99) is \
        default_experiment(0.0003, 99)
