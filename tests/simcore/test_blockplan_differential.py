"""Differential block-plan suite: compilation invisible in the bytes.

Block-compiled execution plans (``repro.runtime.plan``) promise the
same contract as the simulation-core fast path: *bit-for-bit*
identical profiles, only produced faster.  The same corpora are
profiled with plans forced on and forced off — serially and through
the 2-worker pool (via ``REPRO_NO_BLOCKPLAN``, which workers inherit)
— on every microarchitecture, and compared after JSON serialisation.

The informational ``blockplan_compiled`` tally is deliberately
*excluded* from the comparison payload (it reports that plans were
active, so it legitimately differs between modes) and separately
pinned to never leak into accepted/dropped accounting.
"""

import json

import pytest

from repro import envvars
from repro.corpus.dataset import build_application
from repro.eval.validation import profile_corpus_detailed
from repro.parallel import profile_corpus_sharded

UARCHES = ("ivybridge", "haswell", "skylake")


def _payload(profile) -> str:
    """Canonical bytes of a profile: order-sensitive on purpose."""
    return json.dumps({"throughputs": profile.throughputs,
                       "funnel": profile.funnel})


@pytest.mark.parametrize("uarch", UARCHES)
def test_blockplan_bit_identical_serial_and_pool(uarch, monkeypatch):
    corpus = build_application("llvm", count=18, seed=5)
    monkeypatch.setenv("REPRO_NO_BLOCKPLAN", "1")
    with envvars.forced("REPRO_NO_BLOCKPLAN", True):
        interpreted = profile_corpus_detailed(corpus, uarch, seed=5)
        pool_off = profile_corpus_sharded(corpus, uarch, seed=5,
                                          jobs=2, shard_size=8)
    monkeypatch.delenv("REPRO_NO_BLOCKPLAN")
    with envvars.forced("REPRO_NO_BLOCKPLAN", False):
        compiled = profile_corpus_detailed(corpus, uarch, seed=5)
        pool_on = profile_corpus_sharded(corpus, uarch, seed=5,
                                         jobs=2, shard_size=8)
    assert _payload(interpreted) == _payload(compiled) \
        == _payload(pool_off) == _payload(pool_on)
    assert interpreted.funnel["dropped"] == compiled.funnel["dropped"]
    # The informational tally never counts into the funnel: with
    # plans off it is absent, and either way accepted + dropped
    # still covers every block.
    assert "blockplan_compiled" not in interpreted.info
    assert "blockplan_compiled" not in pool_off.info
    assert compiled.info.get("blockplan_compiled", 0) > 0
    for profile in (interpreted, compiled, pool_off, pool_on):
        assert profile.funnel["accepted"] \
            + sum(profile.funnel["dropped"].values()) \
            == profile.funnel["total"]


@pytest.mark.parametrize("uarch", UARCHES)
def test_vector_corpus_identical(uarch):
    """Vector-heavy blocks (and the Ivy Bridge AVX2 drop path) too."""
    corpus = build_application("openblas", count=16, seed=9)
    with envvars.forced("REPRO_NO_BLOCKPLAN", True):
        interpreted = profile_corpus_detailed(corpus, uarch, seed=9)
    with envvars.forced("REPRO_NO_BLOCKPLAN", False):
        compiled = profile_corpus_detailed(corpus, uarch, seed=9)
    assert _payload(interpreted) == _payload(compiled)


def test_blockplan_identical_with_fastpath_off():
    """Plans are orthogonal to the simcore fast path: with full
    simulation forced, flipping plans still changes no byte."""
    corpus = build_application("gzip", count=10, seed=3)
    with envvars.forced("REPRO_NO_FASTPATH", True):
        with envvars.forced("REPRO_NO_BLOCKPLAN", True):
            interpreted = profile_corpus_detailed(corpus, "haswell",
                                                  seed=3)
        with envvars.forced("REPRO_NO_BLOCKPLAN", False):
            compiled = profile_corpus_detailed(corpus, "haswell",
                                               seed=3)
    assert _payload(interpreted) == _payload(compiled)


def test_cli_flag_exports_env(monkeypatch, tmp_path, capsys):
    """``--no-blockplan`` exports the env var so workers inherit it."""
    from repro.cli import main
    import os
    monkeypatch.delenv("REPRO_NO_BLOCKPLAN", raising=False)
    block = tmp_path / "block.s"
    block.write_text("add %rax, %rbx\n")
    assert main(["profile", str(block), "--no-blockplan"]) == 0
    assert os.environ.get("REPRO_NO_BLOCKPLAN") == "1"
    # Plain pop, not monkeypatch.delenv: the CLI set this var *during*
    # the test, so delenv here would record "1" as the original value
    # and leak it back into the environment at teardown.
    os.environ.pop("REPRO_NO_BLOCKPLAN", None)
    assert main(["profile", str(block)]) == 0
    assert "REPRO_NO_BLOCKPLAN" not in os.environ
    out = capsys.readouterr().out
    assert out.count("throughput:") == 2
