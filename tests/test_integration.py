"""End-to-end integration: the paper's headline claims on a small
corpus (the full-size versions live in benchmarks/)."""

import os

import pytest

from repro import envvars
from repro.corpus import build_corpus
from repro.eval.pipeline import Experiment
from repro.parallel.shard_cache import store_dir
from repro.profiler import (BasicBlockProfiler, config_for_stage,
                            TABLE1_STAGES, AblationStage)
from repro.uarch import Machine

#: The default ``REPRO_CACHE``: the repository's own, untracked store.
REPO_CACHE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".cache")


def _tree_state(root):
    """(path, size, mtime_ns) of every file under ``root``."""
    state = set()
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            state.add((path, st.st_size, st.st_mtime_ns))
    return state


@pytest.fixture(scope="module")
def repo_cache_before():
    return _tree_state(REPO_CACHE)


@pytest.fixture(scope="module")
def experiment(repo_cache_before, tmp_path_factory):
    """Measures into a store of its own, never the repository's
    ``.cache/`` (which would serve whatever an earlier checkout left)."""
    cache = tmp_path_factory.mktemp("integration_cache")
    with envvars.forced("REPRO_CACHE", str(cache)):
        yield Experiment(scale=0.0012, seed=5)


def test_experiment_leaves_repository_cache_untouched(experiment,
                                                      repo_cache_before):
    experiment.measured("haswell")
    assert not store_dir("haswell", 5).startswith(REPO_CACHE + os.sep)
    assert os.listdir(store_dir("haswell", 5))
    assert _tree_state(REPO_CACHE) == repo_cache_before


class TestTable1Shape:
    @pytest.fixture(scope="class")
    def rates(self):
        corpus = build_corpus(scale=0.0008, seed=5)
        out = {}
        for stage in TABLE1_STAGES:
            profiler = BasicBlockProfiler(Machine("haswell", seed=5),
                                          config_for_stage(stage))
            ok = sum(1 for r in corpus
                     if profiler.profile(r.block).ok)
            out[stage] = ok / len(corpus)
        return out

    def test_rates_increase_with_each_technique(self, rates):
        assert rates[AblationStage.NONE] \
            < rates[AblationStage.SINGLE_PHYS_PAGE] \
            <= rates[AblationStage.SMALL_UNROLL]

    def test_rough_paper_magnitudes(self, rates):
        # Paper: 16.65% / 91.28% / 94.24%.
        assert 0.08 < rates[AblationStage.NONE] < 0.30
        assert rates[AblationStage.SINGLE_PHYS_PAGE] > 0.85
        assert rates[AblationStage.SMALL_UNROLL] > 0.90


class TestTable5Shape:
    def test_model_ordering_on_haswell(self, experiment):
        val = experiment.validation("haswell")
        iaca = val.overall_error("IACA")
        mca = val.overall_error("llvm-mca")
        ithemal = val.overall_error("Ithemal")
        osaca = val.overall_error("OSACA")
        # Paper's ordering: Ithemal < IACA ~ llvm-mca << OSACA.
        assert ithemal < iaca
        assert osaca > max(iaca, mca)
        assert iaca < 0.30 and mca < 0.35

    def test_errors_in_paper_ballpark(self, experiment):
        val = experiment.validation("haswell")
        assert 0.05 < val.overall_error("Ithemal") < 0.25
        assert 0.08 < val.overall_error("IACA") < 0.30
        assert 0.2 < val.overall_error("OSACA") < 0.6


class TestCategoryDifficulty:
    def test_stores_easier_than_load_mixes(self, experiment):
        """The paper: store-dominated blocks are easier to predict;
        load-mixing blocks are about twice as hard.  Tested on the
        blocks' instruction mixes directly (the LDA cluster labels
        wobble at this tiny corpus scale)."""
        from repro.eval.metrics import average_error
        from repro.models.residual import block_mix
        val = experiment.validation("haswell")
        blocks = {r.block_id: r.block for r in experiment.corpus}
        store_pairs, load_pairs, memdep_pairs = [], [], []
        for model in ("IACA", "llvm-mca"):
            for row in val.rows:
                predicted = row.predictions.get(model)
                if predicted is None:
                    continue
                block = blocks[row.block_id]
                mix = block_mix(block)
                has_rmw = any(i.loads_memory and i.stores_memory
                              for i in block)
                if has_rmw:
                    memdep_pairs.append((predicted, row.measured))
                elif mix["store"] > 0.25 and mix["load"] < 0.05 \
                        and mix["vector"] < 0.2:
                    store_pairs.append((predicted, row.measured))
                elif mix["load"] > 0.3 and mix["vector"] < 0.2:
                    load_pairs.append((predicted, row.measured))
        assert store_pairs and load_pairs and memdep_pairs
        store_err = average_error(store_pairs)
        load_err = average_error(load_pairs)
        memdep_err = average_error(memdep_pairs)
        assert store_err < load_err
        # Memory-carried dependencies are the hardest of all —
        # the paper's "weakness [in] model[ing] memory dependence".
        assert memdep_err > load_err


class TestProfiledFraction:
    def test_full_technique_matches_table1_final_row(self, experiment):
        val = experiment.validation("haswell")
        # Paper: 94.24% profiled with the full technique.
        assert val.profiled_fraction > 0.9
