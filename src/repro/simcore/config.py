"""The fast-path switch.

One global predicate, :func:`enabled`, consulted by every fast-path
layer (executor session, annotation early-exit, the machine's
two-factor checkpoint, profile memo).  Disabled by ``REPRO_NO_FASTPATH=1`` in
the environment (exported by the CLI's ``--no-fastpath`` before any
worker forks, so pools inherit it) or, in tests and benches, by
``envvars.forced("REPRO_NO_FASTPATH", True)``.
"""

from __future__ import annotations

from repro import envvars


def enabled() -> bool:
    """Is the simulation-core fast path active?"""
    return not envvars.get("REPRO_NO_FASTPATH")
