"""The profiling engine must not pull in the evaluation package.

``repro.eval`` brings ``scipy`` and the whole experiment pipeline with
it; the engine, its pool workers and ``repro serve`` only need the
profiler.  Checked in a fresh interpreter so no other test's imports
leak into ``sys.modules``.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))

_SCRIPT = """
import sys
from repro.corpus.dataset import BlockRecord, Corpus
from repro.isa.parser import parse_block
from repro.parallel import profile_corpus_sharded

corpus = Corpus([BlockRecord(block=parse_block(text), application="t",
                             frequency=1, block_id=i)
                 for i, text in enumerate(["addq %rax, %rbx",
                                           "imulq %rcx, %rdx"])])
profile = profile_corpus_sharded(corpus, "haswell", jobs=1)
assert profile.funnel["total"] == 2, profile.funnel
print(sorted(name for name in sys.modules
             if name.split(".")[0] == "scipy"
             or name == "repro.eval" or name.startswith("repro.eval.")))
"""


def test_sharded_profiling_imports_neither_eval_nor_scipy(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH",
                                                            ""),
               REPRO_CACHE=str(tmp_path / "cache"))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
