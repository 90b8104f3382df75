"""Record the Table V output digests that ``run.py`` checks against.

Usage (from the repository root)::

    python3 perfbench/record_digests.py SEED [SEED ...]

For each seed and each ``table5-*`` workload this runs one pass exactly
as the benchmark does (fresh interpreter, fresh cache, the store fill
first for ``table5-grown-pooled``) and writes its per-uarch digests
into ``perfbench/expected.json``, keeping the entries already there.
Re-record only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from common import SRC, WORK_ROOT, child_env


def main(seeds) -> None:
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    work = WORK_ROOT / f"record-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ.clear()
    os.environ.update(child_env(work))
    sys.path.insert(0, str(SRC))
    try:
        for seed in seeds:
            for name in run.TABLE5:
                outcome = run.run_table5(name, seed, 0.0, False, work, {})
                if outcome["problems"]:
                    raise SystemExit(f"{name} seed {seed}: "
                                     f"{outcome['problems']}")
                digests = outcome["digests"]
                expected.setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {digests}", flush=True)
                path.write_text(json.dumps(expected, indent=1,
                                           sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]])
