"""The scheduler's ``checkpoint=`` reading equals a standalone schedule.

``PortSimulatorModel.simulate`` reads both unroll factors of IACA's
two-factor steady-state formula from one schedule: the makespan after
``u1`` iterations is a checkpoint of the run to ``u2``.  That is exact
only because the scheduler is online and models pass no annotations.
This suite pins it on every microarchitecture × the golden corpus, for
each port model's scheduler (its own tables and policies) and for the
ground-truth machine's scheduler without annotations, and checks that
``simulate`` still returns what two standalone schedules give.
"""

import json
import os

import pytest

from repro.errors import ModelError, UnsupportedInstructionError
from repro.isa.parser import parse_block
from repro.models.iaca import IacaModel
from repro.models.llvm_mca import LlvmMcaModel
from repro.models.osaca import OsacaModel
from repro.models.portsim import PortSimulatorModel
from repro.uarch import Machine

UARCHES = ("ivybridge", "haswell", "skylake")
U1, U2 = PortSimulatorModel.UNROLL_PAIR


@pytest.fixture(scope="module")
def golden_blocks():
    path = os.path.join(os.path.dirname(__file__), "..", "data",
                        "golden_corpus.json")
    with open(path) as fh:
        return [parse_block(b["text"]) for b in json.load(fh)["blocks"]]


def _checkpoint_matches(sched, block):
    """Compare the checkpointed run with standalone u1 and u2 runs;
    ``False`` when the scheduler cannot time the block at all."""
    try:
        combined = sched.schedule(block, U2, checkpoint=U1)
    except UnsupportedInstructionError:
        return False
    assert combined.checkpoint_cycles == sched.schedule(block, U1).cycles
    assert combined.cycles == sched.schedule(block, U2).cycles
    return True


@pytest.mark.parametrize("uarch", UARCHES)
@pytest.mark.parametrize("model_cls", (IacaModel, LlvmMcaModel, OsacaModel))
def test_model_checkpoint_equals_standalone(golden_blocks, uarch,
                                            model_cls):
    model = model_cls()
    sched = model._scheduler(uarch)
    timed = 0
    for block in golden_blocks:
        try:
            analysed = model.preprocess(block)
        except ModelError:
            continue
        timed += _checkpoint_matches(sched, analysed)
    assert timed >= len(golden_blocks) // 2


@pytest.mark.parametrize("uarch", UARCHES)
def test_ground_truth_checkpoint_equals_standalone(golden_blocks, uarch):
    sched = Machine(uarch, seed=0).scheduler
    timed = sum(_checkpoint_matches(sched, block)
                for block in golden_blocks)
    assert timed >= len(golden_blocks) // 2


@pytest.mark.parametrize("uarch", UARCHES)
@pytest.mark.parametrize("model_cls", (IacaModel, LlvmMcaModel, OsacaModel))
def test_simulate_matches_two_standalone_schedules(golden_blocks, uarch,
                                                   model_cls):
    model = model_cls()
    sched = model._scheduler(uarch)
    for block in golden_blocks:
        try:
            analysed = model.preprocess(block)
            c2 = sched.schedule(analysed, U2).cycles
        except (ModelError, UnsupportedInstructionError):
            continue
        c1 = sched.schedule(analysed, U1).cycles
        expected = max((c2 - c1) / (U2 - U1),
                       1.0 / sched.desc.issue_width)
        assert model.simulate(analysed, uarch) == expected
