"""Kill switch for block-compiled execution plans.

Mirrors :mod:`repro.simcore.config` (the fast-path switch): plans are
on by default, and are disabled for a process by ``REPRO_NO_BLOCKPLAN``
(which pool workers inherit) or, in tests and benches, within a scope
by ``envvars.forced("REPRO_NO_BLOCKPLAN", True)``.  Lives in its own
dependency-free module so :mod:`repro.runtime.memory`,
:mod:`repro.runtime.executor`, the CLI and the tests can all import it
without touching the executor↔plan import cycle.

The differential suite and the ``switch-differential`` CI job prove
that flipping this switch never changes a single serialized byte of
any profile — it only changes how fast the bytes are produced.
"""

from __future__ import annotations

from repro import envvars


def enabled() -> bool:
    """True when block-compiled plans should be used."""
    return not envvars.get("REPRO_NO_BLOCKPLAN")
