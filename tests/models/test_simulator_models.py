"""IACA / llvm-mca / OSACA analogues: structure and case studies."""

import pytest

from repro.corpus import div_block, gzip_crc_block, zero_idiom_block
from repro.models import (IacaModel, LlvmMcaModel, OsacaModel,
                          predictions_table)
from repro.models import simulator_models
from repro.isa.parser import parse_block


@pytest.fixture(scope="module")
def iaca():
    return IacaModel()


@pytest.fixture(scope="module")
def mca():
    return LlvmMcaModel()


@pytest.fixture(scope="module")
def osaca():
    return OsacaModel()


class TestCaseStudy1Division:
    """Paper: measured 21.62; IACA 98.00, llvm-mca 99.04 (width
    confusion), OSACA 12.25 (optimistic flat entry)."""

    def test_iaca_grossly_overpredicts(self, iaca):
        pred = iaca.predict_safe(div_block(), "haswell")
        assert pred.throughput > 60

    def test_mca_grossly_overpredicts(self, mca):
        pred = mca.predict_safe(div_block(), "haswell")
        assert pred.throughput > 60

    def test_osaca_underpredicts(self, osaca):
        pred = osaca.predict_safe(div_block(), "haswell")
        assert pred.throughput < 18


class TestCaseStudy2ZeroIdiom:
    """Paper: measured 0.25; IACA 0.24, llvm-mca 1.00, OSACA 1.00."""

    def test_iaca_recognises_idiom(self, iaca):
        pred = iaca.predict_safe(zero_idiom_block(), "haswell")
        assert pred.throughput == pytest.approx(0.25, abs=0.05)

    def test_mca_misses_idiom(self, mca):
        pred = mca.predict_safe(zero_idiom_block(), "haswell")
        assert pred.throughput == pytest.approx(1.0, abs=0.15)

    def test_osaca_misses_idiom(self, osaca):
        pred = osaca.predict_safe(zero_idiom_block(), "haswell")
        assert pred.throughput == pytest.approx(1.0, abs=0.15)


class TestCaseStudy3CrcScheduling:
    """Paper: measured 8.25; IACA 8.00, llvm-mca 13.04, OSACA '-'."""

    def test_iaca_close(self, iaca):
        pred = iaca.predict_safe(gzip_crc_block(), "haswell")
        assert pred.throughput == pytest.approx(8.25, rel=0.25)

    def test_mca_overpredicts_by_delaying_the_load(self, iaca, mca):
        block = gzip_crc_block()
        # Structurally (before each tool's table-residual), the fused
        # load-op scheduling costs llvm-mca ~5 cycles/iteration: the
        # paper reports 8.00 vs 13.04.
        iaca_raw = iaca.simulate(block, "haswell")
        mca_raw = mca.simulate(block, "haswell")
        assert iaca_raw == pytest.approx(8.0, abs=0.5)
        assert mca_raw == pytest.approx(13.0, abs=1.0)
        # The final predictions keep the ordering.
        iaca_pred = iaca.predict_safe(block, "haswell").throughput
        mca_pred = mca.predict_safe(block, "haswell").throughput
        assert mca_pred > iaca_pred

    def test_osaca_parser_crashes(self, osaca):
        pred = osaca.predict_safe(gzip_crc_block(), "haswell")
        assert not pred.ok
        assert "parser" in pred.error

    def test_schedule_traces_differ(self, iaca, mca):
        """Fig. 11: IACA dispatches the byte-xor load earlier."""
        block = gzip_crc_block()
        iaca_trace = iaca.schedule_trace(block, "haswell", unroll=3)
        mca_trace = mca.schedule_trace(block, "haswell", unroll=3)
        def last_load(records):
            return max(r.dispatch for r in records
                       if r.kind in ("load", "load_op")
                       and r.slot == 3)
        assert last_load(iaca_trace.records) < \
            last_load(mca_trace.records)


class TestOsacaParserBugs:
    def test_imm_to_mem_treated_as_nop(self, osaca):
        """Bug 1: under-reported throughput for RMW-with-immediate."""
        real = parse_block("addq $1, (%rbx)")
        pred = osaca.predict_safe(real, "haswell")
        rmw_reg = parse_block("addq %rax, (%rbx)")
        pred_reg = osaca.predict_safe(rmw_reg, "haswell")
        assert pred.throughput < pred_reg.throughput

    def test_index_no_base_crashes(self, osaca):
        pred = osaca.predict_safe(
            parse_block("mov 0x1000(, %rax, 8), %rbx"), "haswell")
        assert not pred.ok

    def test_fp_cmp_crashes(self, osaca):
        pred = osaca.predict_safe(
            parse_block("cmpps $2, %xmm1, %xmm0"), "haswell")
        assert not pred.ok

    def test_shift_by_cl_parsed_as_one(self, osaca):
        by_cl = osaca.predict_safe(
            parse_block("shl %cl, %rax"), "haswell")
        assert by_cl.ok  # parses (wrongly) rather than crashing


class TestModelBehaviour:
    def test_all_models_deterministic(self):
        block = parse_block("add (%rdi), %rax\nimul %rbx, %rcx")
        for model in simulator_models():
            a = model.predict_safe(block, "haswell").throughput
            b = model.predict_safe(block, "haswell").throughput
            assert a == b

    def test_models_differ_from_each_other(self):
        block = parse_block(
            "mulps %xmm1, %xmm0\nadd (%rdi), %rax\nshl $3, %rbx")
        preds = {m.name: m.predict_safe(block, "haswell").throughput
                 for m in simulator_models()}
        assert len(set(preds.values())) >= 2

    def test_predictions_table_helper(self):
        table = predictions_table(simulator_models(), div_block(),
                                  "haswell")
        assert set(table) == {"IACA", "llvm-mca", "OSACA"}

    def test_models_work_on_all_uarches(self):
        block = parse_block("add %rbx, %rax\nmov (%rdi), %rcx")
        for model in simulator_models():
            for uarch in ("ivybridge", "haswell", "skylake"):
                pred = model.predict_safe(block, uarch)
                assert pred.ok and pred.throughput > 0

    def test_mca_skylake_regression(self):
        """The stale-Skylake-model effect: mca degrades on SKL more
        than IACA does (Table V's pattern)."""
        from repro.eval.metrics import relative_error
        from repro.profiler import profile_block
        blocks = [
            "addss %xmm1, %xmm0",
            "mulps %xmm1, %xmm0\naddps %xmm3, %xmm2",
            "cmove %rbx, %rax\ncmp %rcx, %rdx",
        ]
        iaca, mca = IacaModel(), LlvmMcaModel()

        def mean_err(model, uarch):
            errors = []
            for text in blocks:
                measured = profile_block(text, uarch).throughput
                predicted = model.predict_safe(
                    parse_block(text), uarch).throughput
                errors.append(relative_error(predicted, measured))
            return sum(errors) / len(errors)

        assert mean_err(mca, "skylake") > mean_err(iaca, "skylake")
