"""CostModel interface contract."""

import pytest

from repro.corpus import div_block
from repro.errors import ModelError
from repro.models.base import CostModel, Prediction, predictions_table


class Stub(CostModel):
    name = "stub"

    def predict(self, block, uarch):
        return Prediction(self.name, uarch, 2.0)


class Crashy(CostModel):
    name = "crashy"

    def predict(self, block, uarch):
        raise ModelError("parser exploded")


class TestPrediction:
    def test_ok_flag(self):
        assert Prediction("m", "haswell", 1.0).ok
        assert not Prediction("m", "haswell", None, error="x").ok

    def test_defaults(self):
        pred = Prediction("m", "haswell", 1.0)
        assert pred.error is None


class TestPredictSafe:
    def test_passthrough(self):
        pred = Stub().predict_safe(div_block(), "haswell")
        assert pred.ok and pred.throughput == 2.0

    def test_model_error_becomes_error_prediction(self):
        pred = Crashy().predict_safe(div_block(), "haswell")
        assert not pred.ok
        assert "parser exploded" in pred.error

    def test_supports_default(self):
        assert Stub().supports(div_block(), "haswell")


def test_predictions_table():
    table = predictions_table([Stub(), Crashy()], div_block(),
                              "haswell")
    assert table["stub"].ok
    assert not table["crashy"].ok


def test_cost_model_is_abstract():
    with pytest.raises(TypeError):
        CostModel()
