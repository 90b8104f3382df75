"""Cost-model tuning from measured data."""

import pytest

from repro.eval.tuning import TunedModel, tune
from repro.models import LlvmMcaModel
from repro.profiler import BasicBlockProfiler
from repro.uarch import Machine


@pytest.fixture(scope="module")
def measured_fp_blocks():
    """FP-heavy blocks where llvm-mca's stale Skylake table hurts."""
    from repro.isa.parser import parse_block
    texts = [
        "addss %xmm1, %xmm0",
        "mulps %xmm1, %xmm0",
        "addps %xmm1, %xmm0\nmulps %xmm3, %xmm2",
        "vfmadd231ps %xmm1, %xmm2, %xmm0",
        "mulsd %xmm1, %xmm0\naddsd %xmm3, %xmm2",
        "vmulps %ymm1, %ymm2, %ymm0\nvaddps %ymm0, %ymm3, %ymm3",
        "cmove %rbx, %rax\ncmp %rcx, %rdx",
        "addps %xmm1, %xmm0\naddps %xmm3, %xmm2\naddps %xmm5, %xmm4",
    ]
    profiler = BasicBlockProfiler(Machine("skylake"))
    blocks, values = [], []
    for text in texts:
        block = parse_block(text)
        result = profiler.profile(block)
        assert result.ok
        blocks.append(block)
        values.append(result.throughput)
    return blocks, values


class TestTune:
    def test_reduces_error_on_stale_classes(self, measured_fp_blocks):
        blocks, values = measured_fp_blocks
        tuned, report = tune(LlvmMcaModel(), blocks, values,
                             "skylake", max_classes=6,
                             sample_per_class=8)
        assert report.error_after <= report.error_before
        assert report.error_after < report.error_before - 0.01

    def test_report_names_adjusted_classes(self, measured_fp_blocks):
        blocks, values = measured_fp_blocks
        _, report = tune(LlvmMcaModel(), blocks, values, "skylake",
                         max_classes=6, sample_per_class=8)
        adjusted = {a.timing_class for a in report.adjustments}
        # The stale Skylake FP classes are what tuning repairs.
        assert adjusted & {"fp_add", "fp_mul", "fma", "cmov"}

    def test_base_model_untouched(self, measured_fp_blocks):
        blocks, values = measured_fp_blocks
        base = LlvmMcaModel()
        before = base.predict_safe(blocks[0], "skylake").throughput
        tune(base, blocks, values, "skylake", max_classes=3,
             sample_per_class=4)
        assert base.predict_safe(blocks[0], "skylake").throughput \
            == before

    def test_tuned_model_is_usable_model(self, measured_fp_blocks):
        blocks, values = measured_fp_blocks
        tuned, _ = tune(LlvmMcaModel(), blocks, values, "skylake",
                        max_classes=3, sample_per_class=4)
        assert tuned.name == "llvm-mca+tuned"
        pred = tuned.predict_safe(blocks[0], "skylake")
        assert pred.ok and pred.throughput > 0

    def test_identity_scales_change_nothing(self, measured_fp_blocks):
        blocks, _ = measured_fp_blocks
        base = LlvmMcaModel()
        identity = TunedModel(base, {})
        for block in blocks[:3]:
            assert identity.simulate(block, "skylake") == \
                base.simulate(block, "skylake")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tune(LlvmMcaModel(), [], [1.0], "skylake")
