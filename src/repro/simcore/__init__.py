"""Simulation-core fast path.

Three layers, all provably byte-identical to full simulation (the
differential suite under ``tests/simcore`` holds them to it):

* **Steady-state extrapolation** — the functional executor and the
  timing model both detect when an unrolled run's per-iteration
  signature (architectural state delta, memory footprint, cycle delta)
  becomes periodic, then replicate/extrapolate the remaining
  iterations analytically instead of simulating them
  (:mod:`repro.simcore.fastrun`, :mod:`repro.simcore.periodicity`,
  plus the steady-state hooks in ``uarch/machine.py`` and
  ``uarch/scheduler.py``).
* **Decode/uop caching** — parsed instructions are interned
  (``isa/parser.py``), their hashes cached, and uop decomposition is
  resolved once per static slot per schedule call instead of once per
  dynamic instruction.
* **Corpus-level dedup** — blocks are content-addressed by canonical
  text and profiled once per (uarch, config); duplicates reuse the
  memoised result (``profiler/harness.py``).

Everything is guarded by one switch (:mod:`repro.simcore.config`):
``--no-fastpath`` on the CLI or ``REPRO_NO_FASTPATH=1`` in the
environment falls back to full simulation everywhere.
"""

from repro.simcore.config import enabled

__all__ = ["enabled"]
