"""Cache-key edge cases: the fast path's caches can never go stale.

Three caches back the fast path — the parse intern table (keyed by the
raw stripped source line), the per-``Decomposer`` uop cache (keyed by
``(instruction, divider class)`` on a per-machine-instance dict), and
the per-profiler dedup memo (keyed by canonical block text).  Each
test here is a way one of them *could* serve a wrong answer if its key
were sloppier, pinned so it never does.
"""

import json

from repro import envvars
from repro.isa.parser import parse_instruction
from repro.profiler.harness import BasicBlockProfiler
from repro.uarch.machine import Machine
from repro.uarch.uops import Decomposer


def test_att_and_intel_spellings_do_not_collide():
    """Same semantics, different text: distinct intern entries that
    parse to *equal* instructions — never one entry shadowing both."""
    with envvars.forced("REPRO_NO_FASTPATH", False):
        att = parse_instruction("add %rax, %rbx")
        intel = parse_instruction("add rbx, rax")
    assert att == intel
    assert att is not intel  # separate cache entries by raw line
    assert hash(att) == hash(intel)


def test_interning_returns_shared_object_only_when_enabled():
    line = "imul %rcx, %rdx"
    with envvars.forced("REPRO_NO_FASTPATH", False):
        a = parse_instruction(line)
        b = parse_instruction("  " + line + "  ")  # whitespace folded
    assert a is b
    with envvars.forced("REPRO_NO_FASTPATH", True):
        c = parse_instruction(line)
        d = parse_instruction(line)
    assert c is not d
    assert a == c == d


def test_immediate_only_differences_get_distinct_entries():
    with envvars.forced("REPRO_NO_FASTPATH", False):
        one = parse_instruction("add $1, %rax")
        two = parse_instruction("add $2, %rax")
        hex_two = parse_instruction("add $0x2, %rax")
    assert one != two
    assert hash(one) != hash(two)
    # Different spellings of the same immediate are separate entries
    # (keyed by raw text) but equal values.
    assert hex_two == two and hex_two is not two


def test_parse_errors_propagate_uncached():
    import pytest
    from repro.errors import AsmSyntaxError
    with envvars.forced("REPRO_NO_FASTPATH", False):
        with pytest.raises(AsmSyntaxError):
            parse_instruction("notarealmnemonic %rax")
        with pytest.raises(AsmSyntaxError):  # still raises on retry
            parse_instruction("notarealmnemonic %rax")


def test_decomposer_cache_is_per_instance():
    """A mutated machine config must never see another's cache."""
    m1 = Machine("haswell", seed=0)
    m2 = Machine("skylake", seed=0)
    assert m1.decomposer._cache is not m2.decomposer._cache
    with envvars.forced("REPRO_NO_FASTPATH", False):
        instr = parse_instruction("xor %eax, %eax")
    # The *same interned object* decomposed under different configs:
    # a global keyed-by-instruction cache would conflate these.
    strict = Decomposer(m1.desc, m1.table, m1.div_table,
                        recognize_zero_idioms=True)
    naive = Decomposer(m1.desc, m1.table, m1.div_table,
                       recognize_zero_idioms=False)
    assert strict.decompose(instr).is_zero_idiom
    assert not naive.decompose(instr).is_zero_idiom
    # Warm one cache, re-query the other: still config-correct.
    assert strict.decompose(instr).is_zero_idiom
    assert not naive.decompose(instr).is_zero_idiom


def test_dedup_memo_is_per_profiler():
    """Dedup is keyed by text *within one machine*: profiling the same
    text on another uarch must re-simulate, not reuse."""
    text = "add %rax, %rbx\nimul %rcx, %rbx"
    with envvars.forced("REPRO_NO_FASTPATH", False):
        haswell = BasicBlockProfiler(Machine("haswell", seed=0))
        skylake = BasicBlockProfiler(Machine("skylake", seed=0))
        a = haswell.profile(text)
        b = skylake.profile(text)
    assert a is not b
    assert a.uarch == "haswell" and b.uarch == "skylake"


def test_cached_instruction_hash_is_stable():
    with envvars.forced("REPRO_NO_FASTPATH", False):
        instr = parse_instruction("add %rax, %rbx")
    first = hash(instr)
    assert hash(instr) == first  # cached value, not recomputed wrong
    clone = parse_instruction("add rbx, rax")
    assert hash(clone) == first


def test_shard_cache_round_trips_info(tmp_path):
    """The informational tally survives the measurement store."""
    from repro.corpus.dataset import build_application
    from repro.eval.validation import CorpusProfile
    from repro.parallel import ShardCache, shard_corpus

    corpus = build_application("llvm", count=4, seed=1)
    shard = shard_corpus(corpus, shard_size=4)[0]
    profile = CorpusProfile.from_outcomes(
        shard.records,
        [(1.0, ("fastpath_extrapolated",))] * 3 + [(1.0, ())])
    assert profile.info == {"fastpath_extrapolated": 3}
    cache = ShardCache(str(tmp_path))
    cache.store(shard, profile)
    loaded = cache.load(shard)
    assert loaded.info == {"fastpath_extrapolated": 3}
    assert loaded.funnel == profile.funnel
    # An entry with no extras loads as no info, not None.
    path = cache.entry_paths(shard)[0]
    with open(path, "w") as fh:
        json.dump({"throughput": 1.0, "extra": []}, fh)
    assert cache.load(shard).info == {"fastpath_extrapolated": 2}


def test_run_report_funnel_info_is_informational_only():
    """The report's fastpath bucket never shifts accepted/dropped."""
    from repro.telemetry.report import funnel_from_counters, \
        render_summary

    counters = {"profiler.blocks_total": 10,
                "profiler.blocks_accepted": 8,
                "profiler.failure.segfault": 2,
                "profiler.fastpath_extrapolated": 7}
    funnel = funnel_from_counters(counters)
    assert funnel["total"] == 10
    assert funnel["accepted"] + sum(funnel["dropped"].values()) == 10
    assert funnel["info"] == {"fastpath_extrapolated": 7}
    text = render_summary({"report": "x", "generated_at": "now",
                           "funnel": funnel})
    assert "info: fastpath_extrapolated" in text
    # Without the counter the bucket vanishes entirely.
    assert "info" not in funnel_from_counters(
        {"profiler.blocks_total": 1, "profiler.blocks_accepted": 1})
