"""Parallel sharded profiling (see docs/parallel.md).

Public surface::

    from repro.parallel import profile_corpus_sharded, shard_corpus

    profile = profile_corpus_sharded(corpus, "haswell", jobs=4)

The engine is deterministic by construction — serial and parallel runs
of the same corpus are bit-identical, a property enforced by the
differential suite in ``tests/parallel``.
"""

from repro.parallel.engine import (default_jobs, profile_corpus_sharded,
                                   profile_corpus_streamed,
                                   profile_shard_worker)
from repro.parallel.shard_cache import ShardCache
from repro.parallel.sharding import (DEFAULT_SHARD_SIZE, ProfileFolder,
                                     Shard, merge_funnels,
                                     merge_profiles, partition_check,
                                     shard_corpus, shard_digest,
                                     stream_shards)

__all__ = [
    "DEFAULT_SHARD_SIZE", "ProfileFolder",
    "Shard", "ShardCache", "default_jobs", "merge_funnels",
    "merge_profiles", "partition_check", "profile_corpus_sharded",
    "profile_corpus_streamed", "profile_shard_worker", "shard_corpus",
    "shard_digest", "stream_shards",
]
