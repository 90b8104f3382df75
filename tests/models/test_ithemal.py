"""The learned model: training protocol and behaviour."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.models import IthemalModel, TrainingConfig
from repro.models.features import FEATURE_DIM, block_features
from repro.models.training import MlpRegressor
from repro.profiler import BasicBlockProfiler
from repro.uarch import Machine

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))


@pytest.fixture(scope="module")
def trained(small_corpus_module):
    blocks, measured = small_corpus_module
    model = IthemalModel(TrainingConfig(epochs=150))
    model.fit(blocks, measured, "haswell")
    return model, blocks, measured


@pytest.fixture(scope="module")
def small_corpus_module():
    from repro.corpus import build_application
    corpus = build_application("llvm", count=150, seed=11)
    profiler = BasicBlockProfiler(Machine("haswell"))
    blocks, measured = [], []
    for record in corpus:
        result = profiler.profile(record.block)
        if result.ok and result.throughput > 0:
            blocks.append(record.block)
            measured.append(result.throughput)
    return blocks, measured


class TestTrainingProtocol:
    def test_untrained_returns_error(self):
        model = IthemalModel()
        from repro.corpus import div_block
        pred = model.predict_safe(div_block(), "haswell")
        assert not pred.ok
        assert "no trained model" in pred.error

    def test_is_trained_per_uarch(self, trained):
        model, _, _ = trained
        assert model.is_trained("haswell")
        assert not model.is_trained("skylake")

    def test_fit_length_mismatch(self):
        model = IthemalModel()
        with pytest.raises(ValueError):
            model.fit([], [1.0], "haswell")

    def test_reasonable_in_sample_error(self, trained):
        model, blocks, measured = trained
        errors = []
        for block, actual in zip(blocks, measured):
            pred = model.predict_safe(block, "haswell")
            errors.append(abs(pred.throughput - actual) / actual)
        assert sum(errors) / len(errors) < 0.25

    def test_predictions_positive_and_capped(self, trained):
        model, blocks, _ = trained
        for block in blocks[:20]:
            pred = model.predict_safe(block, "haswell")
            assert 0.25 <= pred.throughput < 10_000

    def test_no_interpretable_schedule(self, trained):
        """The paper: Ithemal outputs a single number, no trace."""
        model, blocks, _ = trained
        pred = model.predict_safe(blocks[0], "haswell")
        assert pred.ok and not hasattr(model, "schedule_trace")

    def test_deterministic(self, trained):
        model, blocks, _ = trained
        a = model.predict_safe(blocks[0], "haswell").throughput
        b = model.predict_safe(blocks[0], "haswell").throughput
        assert a == b

    def test_training_independent_of_hash_seed(self):
        # The training-set RNG is seeded per uarch; string hashing is
        # salted by PYTHONHASHSEED, so two interpreters must still fit
        # identical networks.  Skylake plus vector-heavy blocks makes
        # both RNG-driven subsampling rules fire.
        script = (
            "from repro.corpus import build_application\n"
            "from repro.models import IthemalModel, TrainingConfig\n"
            "blocks = [r.block for app in ('openblas', 'llvm')\n"
            "          for r in build_application(app, count=60, seed=5)\n"
            "          if r.block.is_supported]\n"
            "ys = [1.0 + len(b) * 0.5 for b in blocks]\n"
            "model = IthemalModel(TrainingConfig(epochs=5))\n"
            "model.fit(blocks, ys, 'skylake')\n"
            "print([model.predict(b, 'skylake').throughput\n"
            "       for b in blocks])\n")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=SRC + os.pathsep
                       + os.environ.get("PYTHONPATH", ""))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestFeatures:
    def test_feature_dim_consistent(self):
        from repro.corpus import div_block
        assert block_features(div_block()).shape == (FEATURE_DIM,)

    def test_features_capture_block_differences(self):
        from repro.isa.parser import parse_block
        a = block_features(parse_block("add %rbx, %rax"))
        b = block_features(parse_block("mulps %xmm1, %xmm0"))
        assert not np.allclose(a, b)

    def test_bound_feature_tracks_chain(self):
        from repro.isa.parser import parse_block
        chained = block_features(parse_block("mulps %xmm1, %xmm0"))
        light = block_features(parse_block("add %rbx, %rax"))
        assert chained[-2] > light[-2]

    def test_zero_idiom_has_no_chain(self):
        from repro.isa.parser import parse_block
        idiom = block_features(
            parse_block("vxorps %xmm2, %xmm2, %xmm2"))
        assert idiom[-2] == pytest.approx(0.25)  # front-end floor


class TestMlpRegressor:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 5))
        y = x @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + 1.0
        net = MlpRegressor(TrainingConfig(epochs=200, hidden=32))
        net.fit(x, y)
        pred = net.predict(x)
        assert np.mean(np.abs(pred - y)) < 0.25

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MlpRegressor().predict(np.zeros((1, 3)))

    def test_training_losses_decrease(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 4))
        y = (x ** 2).sum(axis=1)
        net = MlpRegressor(TrainingConfig(epochs=100))
        net.fit(x, y)
        losses = net.training_losses
        assert losses[-1] < losses[0]

    def test_seeded_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 3))
        y = x.sum(axis=1)
        a = MlpRegressor(TrainingConfig(epochs=30, seed=5)).fit(x, y)
        b = MlpRegressor(TrainingConfig(epochs=30, seed=5)).fit(x, y)
        assert np.allclose(a.predict(x), b.predict(x))
