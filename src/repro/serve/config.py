"""Service configuration: one immutable dataclass, built from the CLI.

``repro serve`` fills it from the flags it was given; a flag left out
keeps the default below.  Two fields read the registry
(:mod:`repro.envvars`) instead: ``REPRO_SERVE_WINDOW``, and the
deployment path ``REPRO_SERVE_STATE``, whose default is the ``serve/``
subdirectory of the pipeline cache root (``REPRO_CACHE``), so the
daemon and the batch CLI share one cache tree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro import envvars


@dataclass(frozen=True)
class ServeConfig:
    """Every tunable the daemon honours, in one immutable bundle."""

    #: Listen address: exactly one of ``socket`` / ``port`` is set.
    socket: Optional[str] = None
    port: Optional[int] = None
    host: str = "127.0.0.1"

    #: Worker-pool width for batch execution (1 = in-process serial).
    jobs: int = 1

    #: Bounded admission queue capacity; a full queue sheds with 429.
    queue_size: int = 64
    #: Default per-request deadline when the client sends none.
    deadline_ms: float = 30_000
    #: Per-client token-bucket refill rate (req/s); 0 disables limits.
    rate: float = 0.0
    #: Token-bucket burst capacity.
    burst: int = 16
    #: Max requests coalesced into one engine batch.
    batch_size: int = 64
    #: How long the batcher lingers for more requests to coalesce.
    coalesce_ms: float = 5.0
    #: Consecutive worker-trouble batches before the breaker opens.
    breaker_threshold: int = 3
    #: Seconds the breaker stays open before a half-open probe.
    breaker_cooldown_s: float = 5.0
    #: Completed requests per serve-metrics window.
    window: int = field(
        default_factory=lambda: envvars.get("REPRO_SERVE_WINDOW"))
    #: Ceiling on graceful SIGTERM drain before forced shutdown.
    drain_s: float = 10.0
    #: State directory (request journal + per-uarch shard caches).
    state_dir: str = field(
        default_factory=lambda: envvars.get("REPRO_SERVE_STATE")
        or os.path.join(envvars.get("REPRO_CACHE"), "serve"))
