"""Simulation-core fast path.

Three layers, all provably byte-identical to full simulation (the
differential suite under ``tests/simcore`` holds them to it):

* **Steady-state reuse** — the functional executor detects when an
  unrolled run's per-iteration architectural state delta becomes
  periodic and extrapolates the remaining iterations; the machine
  replicates the cache annotations once the L1D reaches an all-hit
  fixed point on a periodic trace, and takes the small unroll
  factor's timing as a checkpoint of the large factor's schedule
  (:mod:`repro.simcore.fastrun`, :mod:`repro.simcore.periodicity`,
  ``uarch/machine.py``).
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
