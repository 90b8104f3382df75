"""Streamed profiling is byte-identical to serial, and never cheats.

``profile_corpus_streamed`` consumes a *generator* of records — it can
never look ahead, count, or re-read its input — yet its merged profile
must serialise to exactly the bytes the serial reference
``profile_corpus_detailed`` produces.  This suite proves that
differentially (serial and pooled, all three microarchitectures, with
and without retained-state epoch resets), for both the generator-fed
engine and its finite-stream wrapper ``profile_corpus_sharded``, and
checks the streamed run's contracts: index-ordered folding, honest
stats, journal-identity discipline, and cache interoperability
between the two entry points.
"""

import json
import os

import pytest

from repro.corpus.dataset import build_application
from repro.eval.validation import profile_corpus_detailed
from repro.parallel import (ShardCache, profile_corpus_sharded,
                            profile_corpus_streamed, shard_corpus)
from repro.resilience import RunJournal, chaos, journal_name
from repro.runtime import plan

UARCHES = ("ivybridge", "haswell", "skylake")


def _payload(profile) -> str:
    return json.dumps({"throughputs": profile.throughputs,
                       "funnel": profile.funnel})


def _records(app="openblas", count=26, seed=5):
    return build_application(app, count=count, seed=seed).records


@pytest.mark.parametrize("uarch", UARCHES)
@pytest.mark.parametrize("jobs", (1, 2))
def test_streamed_equals_batch(uarch, jobs):
    records = _records()
    streamed = profile_corpus_streamed(iter(records), uarch, seed=5,
                                       jobs=jobs, shard_size=4)
    assert _payload(streamed) == _payload(
        profile_corpus_detailed(records, uarch, seed=5))


@pytest.mark.parametrize("uarch", UARCHES)
@pytest.mark.parametrize("jobs", (1, 2))
def test_epoch_resets_keep_bytes(monkeypatch, uarch, jobs):
    """A 4-block epoch makes every profiling process drop its profiler
    and plan cache many times over the run (in the parent when serial,
    in each worker when pooled) — the bytes must not notice."""
    monkeypatch.setenv("REPRO_STREAM_EPOCH", "4")
    resets = []
    clear = plan.clear_plan_cache
    monkeypatch.setattr(plan, "clear_plan_cache",
                        lambda: (resets.append(1), clear()))
    records = _records(count=30)
    sharded = profile_corpus_sharded(records, uarch, seed=5, jobs=jobs,
                                     shard_size=3)
    if jobs == 1:  # pooled resets happen in the workers, out of sight
        assert len(resets) >= 3
    serial = profile_corpus_detailed(records, uarch, seed=5)
    assert _payload(sharded) == _payload(serial)
    assert sharded.info == serial.info


def test_accepts_shard_stream():
    """Pre-cut shards stream through unchanged (the finite-stream
    wrapper hands over shards, not records)."""
    records = _records(count=18)
    shards = shard_corpus(records, 4)
    streamed = profile_corpus_streamed(iter(shards), "skylake", seed=5,
                                       shard_size=4)
    assert _payload(streamed) == _payload(
        profile_corpus_detailed(records, "skylake", seed=5))


@pytest.mark.parametrize("jobs", (1, 2))
def test_on_shard_fires_in_index_order(jobs):
    records = _records(count=22)
    seen = []
    profile_corpus_streamed(
        iter(records), "haswell", seed=5, jobs=jobs, shard_size=4,
        on_shard=lambda shard, profile:
            seen.append((shard.index, len(shard),
                         len(profile.throughputs))))
    assert [index for index, _, _ in seen] \
        == list(range(len(shard_corpus(records, 4))))
    assert sum(n for _, n, _ in seen) == len(records)


@pytest.mark.parametrize("jobs", (1, 2))
def test_stats_account_for_every_shard(jobs):
    records = _records(count=20)
    stats = {}
    profile_corpus_streamed(iter(records), "haswell", seed=5,
                            jobs=jobs, shard_size=4, stats=stats)
    assert stats["shards"] == 5
    assert stats["profiled"] == 5
    assert stats["cache_hits"] == 0
    assert stats["failed"] == 0
    assert stats["max_queue_depth"] >= 1


def test_empty_stream():
    profile = profile_corpus_streamed(iter(()), "haswell", seed=0)
    assert profile.throughputs == {}
    assert profile.funnel["total"] == 0


def test_journal_requires_identity(tmp_path):
    """A streamed run cannot digest a corpus it hasn't generated yet,
    so journalling demands an explicit identity."""
    cache = ShardCache(str(tmp_path))
    journal = RunJournal(os.path.join(str(tmp_path),
                                      journal_name("main")))
    with pytest.raises(ValueError):
        profile_corpus_streamed(iter(_records(count=4)), "haswell",
                                seed=5, cache=cache, journal=journal)


@pytest.fixture
def chaos_off(monkeypatch):
    """Exact hit/resume counts hold only with a working store: injected
    cache corruption (the CI chaos leg arms ``REPRO_CHAOS``) turns hits
    into re-profiles by design, so count assertions run chaos-free."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    chaos.set_policy(None)
    yield
    chaos.set_policy(None)


def _batch_then_streamed(tmp_path, jobs):
    """A materialised ``profile_corpus_sharded`` run warms the cache,
    then the generator-fed run goes over the same records."""
    records = _records(count=16)
    cache = ShardCache(str(tmp_path))
    batch_stats, stream_stats = {}, {}
    batch = profile_corpus_sharded(records, "haswell", seed=5,
                                   jobs=jobs, shard_size=4,
                                   cache=cache, stats=batch_stats)
    streamed = profile_corpus_streamed(iter(records), "haswell",
                                       seed=5, jobs=jobs, shard_size=4,
                                       cache=cache, stats=stream_stats)
    return records, batch, streamed, batch_stats, stream_stats


@pytest.mark.parametrize("jobs", (1, 2))
def test_cache_interop_with_batch(tmp_path, jobs):
    """Both entry points over one cache match the serial reference
    (under whatever chaos the environment arms)."""
    records, batch, streamed, _, _ = _batch_then_streamed(tmp_path, jobs)
    serial = _payload(profile_corpus_detailed(records, "haswell",
                                              seed=5))
    assert _payload(batch) == serial
    assert _payload(streamed) == serial


@pytest.mark.parametrize("jobs", (1, 2))
def test_cache_interop_with_batch_hit_counts(tmp_path, jobs, chaos_off):
    """The streamed run resumes every shard the batch run stored."""
    _, _, _, batch_stats, stream_stats = \
        _batch_then_streamed(tmp_path, jobs)
    assert batch_stats["cache_hits"] == 0
    assert stream_stats["cache_hits"] == 4
    assert stream_stats["profiled"] == 0


def _rerun_from_journal(tmp_path):
    """Two streamed runs sharing a cache+journal."""
    records = _records(count=16)

    def run():
        cache = ShardCache(str(tmp_path))
        journal = RunJournal(os.path.join(cache.directory,
                                          journal_name("main")))
        stats = {}
        profile = profile_corpus_streamed(
            iter(records), "haswell", seed=5, jobs=2, shard_size=4,
            cache=cache, journal=journal,
            journal_meta={"uarch": "haswell", "seed": 5,
                          "stream": "test-rerun"}, stats=stats)
        return _payload(profile), stats

    return run(), run()


def test_streamed_run_is_rerunnable_from_journal(tmp_path):
    """The second run reproduces the first's bytes (under whatever
    chaos the environment arms)."""
    (first, _), (second, _) = _rerun_from_journal(tmp_path)
    assert first == second


def test_streamed_rerun_resumes_every_shard(tmp_path, chaos_off):
    """The second run loads every shard back and profiles nothing."""
    (_, first_stats), (_, second_stats) = _rerun_from_journal(tmp_path)
    assert first_stats["resumed"] == 0
    assert second_stats["resumed"] == 4
    assert second_stats["profiled"] == 0


def test_prefetch_depth_does_not_change_bytes():
    records = _records(count=24)
    payloads = set()
    for prefetch in (1, 2, 5, None):
        payloads.add(_payload(profile_corpus_streamed(
            iter(records), "haswell", seed=5, jobs=2, shard_size=3,
            prefetch=prefetch)))
    assert len(payloads) == 1
