"""The synchronous heart of the service: validate, dedup, execute.

:class:`ProfilingService` owns everything that does not need an event
loop — request validation, content addressing, the request journal,
the circuit breaker, the per-(uarch, seed) measurement stores, and
the batch execution path — so the whole robustness surface is testable
in-process with plain function calls.  The asyncio daemon
(:mod:`repro.serve.daemon`) is a thin transport around it.

Execution model: every block in a request becomes its own **one-block
shard**, content-addressed by the block's text (the shard digest
covers only block texts, never ids), and the batch of unique shards
runs through :func:`repro.parallel.profile_corpus_sharded` — a finite
stream on the one profiling engine, whose pool never outnumbers the
shards, so a one-block batch profiles in-process — against the
pipeline's own per-(uarch, seed) measurement store under
``$REPRO_CACHE``.  Because measurement is a pure function of (block
text, uarch, seed) — even simulated noise is seeded from the text —
two clients sending the same block hit the same store entry, as does
a block the pipeline already measured, so dedup is free and
responses are byte-stable across restarts, replays, and serial/pooled
backends alike.  The state directory holds only the request journal.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.corpus.dataset import BlockRecord, Corpus
from repro.errors import ReproError
from repro.isa.parser import parse_block
from repro.parallel.engine import profile_corpus_sharded
from repro.parallel.shard_cache import ShardCache, store_dir
from repro.parallel.sharding import Shard, shard_digest
from repro.serve import metrics
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.metrics import ServeWindows
from repro.serve.requestlog import REQUEST_LOG_NAME, RequestJournal
from repro.telemetry import core as telemetry

#: Microarchitectures the service accepts (the paper's three).
SERVE_UARCHES = ("ivybridge", "haswell", "skylake")

#: Hard caps keeping a single hostile request from exhausting memory.
MAX_BLOCKS_PER_REQUEST = 4096
MAX_BLOCK_BYTES = 65536


class RequestError(ReproError):
    """A request the service refuses; carries an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def request_digest(uarch: str, seed: int, blocks: List[str]) -> str:
    """Process-stable content address of one profiling request."""
    h = hashlib.blake2b(digest_size=12)
    h.update(f"{uarch}|{seed}|".encode())
    for text in blocks:
        data = text.encode()
        h.update(f"{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


@dataclass
class ProfileRequest:
    """One validated, content-addressed profiling request."""

    blocks: List[str]
    uarch: str
    seed: int
    client: str
    deadline_ms: float
    digest: str
    #: Monotonic admission timestamp (daemon clock).
    admitted_at: float = 0.0

    def body(self) -> Dict:
        """The canonical journalable form (replay re-parses this)."""
        return {"blocks": list(self.blocks), "uarch": self.uarch,
                "seed": self.seed, "client": self.client,
                "deadline_ms": self.deadline_ms}

    def expired(self, now: float) -> bool:
        return (self.deadline_ms > 0
                and (now - self.admitted_at) * 1000.0
                >= self.deadline_ms)


def parse_profile_request(payload: Dict,
                          config: ServeConfig) -> ProfileRequest:
    """Validate a decoded request body; raise :class:`RequestError`.

    Block *syntax* is not validated here — an unparsable block is a
    per-block ``parse_error`` result, not a request-level 400, so one
    bad block in a batch of 100 does not cost the client the other 99.
    """
    if not isinstance(payload, dict):
        raise RequestError(400, "request body must be a JSON object")
    blocks = payload.get("blocks")
    if not isinstance(blocks, list) or not blocks:
        raise RequestError(400, "'blocks' must be a non-empty list")
    if len(blocks) > MAX_BLOCKS_PER_REQUEST:
        raise RequestError(
            413, f"too many blocks (max {MAX_BLOCKS_PER_REQUEST})")
    for i, text in enumerate(blocks):
        if not isinstance(text, str):
            raise RequestError(400, f"blocks[{i}] must be a string")
        if len(text.encode()) > MAX_BLOCK_BYTES:
            raise RequestError(
                413, f"blocks[{i}] exceeds {MAX_BLOCK_BYTES} bytes")
    uarch = payload.get("uarch", "haswell")
    if uarch not in SERVE_UARCHES:
        raise RequestError(
            400, f"unknown uarch {uarch!r} "
                 f"(expected one of {', '.join(SERVE_UARCHES)})")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise RequestError(400, "'seed' must be an integer")
    client = payload.get("client", "default")
    if not isinstance(client, str) or len(client) > 120:
        raise RequestError(400, "'client' must be a short string")
    deadline_ms = payload.get("deadline_ms", config.deadline_ms)
    if not isinstance(deadline_ms, (int, float)) \
            or isinstance(deadline_ms, bool) or deadline_ms < 0:
        raise RequestError(400, "'deadline_ms' must be >= 0")
    return ProfileRequest(
        blocks=[str(t) for t in blocks], uarch=uarch, seed=seed,
        client=client, deadline_ms=float(deadline_ms),
        digest=request_digest(uarch, seed, blocks))


class ProfilingService:
    """Validation, journaling, dedup, and batch execution — no I/O loop."""

    def __init__(self, config: ServeConfig,
                 clock: Callable[[], float] = time.monotonic,
                 worker_fn=None, serial_fn=None):
        self.config = config
        self.clock = clock
        #: Test hooks forwarded to the engine (fault injection).
        self.worker_fn = worker_fn
        self.serial_fn = serial_fn
        self.breaker = CircuitBreaker(config.breaker_threshold,
                                      config.breaker_cooldown_s,
                                      clock=clock)
        self.windows = ServeWindows(config.window)
        self.journal = RequestJournal(
            os.path.join(config.state_dir, REQUEST_LOG_NAME))
        self._caches: Dict[Tuple[str, int], ShardCache] = {}
        #: Filled by :meth:`recover`; daemon replays before serving.
        self.recovered: Dict[str, Dict] = {}

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        os.makedirs(self.config.state_dir, exist_ok=True)
        self.recovered = self.journal.open()
        if self.recovered:
            telemetry.count("serve.recovered_requests",
                            len(self.recovered))
            telemetry.event("serve.recovery",
                            pending=len(self.recovered))

    def recover(self) -> int:
        """Replay journaled requests that never got a ``done`` record.

        Runs before the listener opens: a SIGKILLed daemon's in-flight
        work is re-executed (deterministically — content addressing
        plus the shard cache make the results byte-identical to what
        the dead process would have produced) and journaled as done,
        so clients polling by request digest can still collect it.
        """
        replayed = 0
        for digest, body in sorted(self.recovered.items()):
            try:
                request = parse_profile_request(body, self.config)
            except RequestError:
                self.journal.record_dropped(digest, "unreplayable")
                continue
            request.admitted_at = self.clock()
            results, _ = self.execute([request], journal=False)
            self.journal.record_done(digest, results[0])
            telemetry.count("serve.replayed_requests")
            replayed += 1
        self.recovered = {}
        return replayed

    def close(self) -> None:
        self.journal.close()

    # ------------------------------------------------------------------
    # caches

    def cache_for(self, uarch: str, seed: int) -> ShardCache:
        key = (uarch, seed)
        if key not in self._caches:
            self._caches[key] = ShardCache(store_dir(uarch, seed))
        return self._caches[key]

    # ------------------------------------------------------------------
    # execution

    def lookup_memo(self, request: ProfileRequest) -> Optional[List]:
        """Journal-memo hit: identical request already answered."""
        results = self.journal.completed.get(request.digest)
        if results:
            metrics.count_replay_hit()
            return results
        metrics.count_replay_miss()
        return None

    def execute(self, requests: List[ProfileRequest],
                journal: bool = True) -> Tuple[List[List], Dict]:
        """Run a coalesced batch; one result list per request.

        All requests in a batch share (uarch, seed) — the daemon
        groups before calling.  Blocks dedup across the whole batch:
        each distinct text parses once, profiles once (or hits the
        shard cache), and fans back out to every requesting position.
        Returns the per-request results plus the engine stats.
        """
        assert requests, "empty batch"
        uarch = requests[0].uarch
        seed = requests[0].seed
        assert all(r.uarch == uarch and r.seed == seed
                   for r in requests), "mixed batch"

        if journal:
            for request in requests:
                self.journal.record_request(request.digest,
                                            request.body())

        # Parse + dedup: one shard per distinct block text.
        shards: List[Shard] = []
        by_text: Dict[str, int] = {}       # text -> block_id
        parse_errors: Dict[str, str] = {}  # text -> message
        for request in requests:
            for text in request.blocks:
                if text in by_text or text in parse_errors:
                    continue
                try:
                    block = parse_block(text, source="serve")
                except ReproError as exc:
                    parse_errors[text] = str(exc)
                    telemetry.count("serve.parse_errors")
                    continue
                block_id = len(shards)
                record = BlockRecord(block=block, application="serve",
                                     frequency=1, block_id=block_id)
                shards.append(Shard(index=block_id, records=(record,),
                                    digest=shard_digest((record,))))
                by_text[text] = block_id

        stats: Dict = {}
        throughputs: Dict[int, float] = {}
        reasons: Dict[int, str] = {}
        if shards:
            corpus = Corpus([s.records[0] for s in shards])
            cache = self.cache_for(uarch, seed)
            pool_granted = self.breaker.allow_pool()
            jobs = self.config.jobs if pool_granted else 1
            if jobs != self.config.jobs:
                telemetry.count("serve.scalar_fallback_batches")
            profile = profile_corpus_sharded(
                corpus, uarch, seed=seed, jobs=jobs, shards=shards,
                cache=cache, worker_fn=self.worker_fn,
                serial_fn=self.serial_fn, stats=stats,
                run_label=f"serve batch x{len(requests)}")
            throughputs = profile.throughputs
            troubled = bool(stats.get("retried")
                            or stats.get("failed"))
            # Only pool-granted batches inform the breaker: a scalar
            # fallback succeeding says nothing about pool health, and
            # letting it close the breaker would skip the half-open
            # probe entirely.
            if pool_granted and self.config.jobs > 1:
                if troubled:
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
            reasons = self._drop_reasons(
                cache, shards, throughputs)

        results = [self._assemble(request, by_text, throughputs,
                                  reasons, parse_errors)
                   for request in requests]
        if journal:
            for request, result in zip(requests, results):
                self.journal.record_done(request.digest, result)
        return results, stats

    def _drop_reasons(self, cache: ShardCache, shards: List[Shard],
                      throughputs: Dict[int, float]) -> Dict[int, str]:
        """Per-block drop reason, read back from the block's entry.

        A block missing from the merged throughputs was dropped; its
        store entry names the reason.  A block whose entry never made
        it to the store (worker failure, disk full) reads as
        ``unknown``.
        """
        reasons: Dict[int, str] = {}
        for shard in shards:
            block_id = shard.records[0].block_id
            if block_id in throughputs:
                continue
            reason = "unknown"
            profile = cache.load(shard)
            if profile is not None and profile.funnel["dropped"]:
                (reason,) = profile.funnel["dropped"]
            reasons[block_id] = reason
        return reasons

    @staticmethod
    def _assemble(request: ProfileRequest, by_text: Dict[str, int],
                  throughputs: Dict[int, float],
                  reasons: Dict[int, str],
                  parse_errors: Dict[str, str]) -> List:
        """One ordered result entry per block in the request."""
        results = []
        for text in request.blocks:
            if text in parse_errors:
                results.append({"status": "parse_error",
                                "detail": parse_errors[text]})
                continue
            block_id = by_text[text]
            if block_id in throughputs:
                results.append({"status": "ok",
                                "throughput": throughputs[block_id]})
            else:
                results.append({"status": "dropped",
                                "reason": reasons.get(block_id,
                                                      "unknown")})
        return results

    # ------------------------------------------------------------------
    # health

    def health(self, queue_depth: int = 0,
               draining: bool = False) -> Dict:
        return {
            "status": "draining" if draining else "ok",
            "breaker": self.breaker.state,
            "queue_depth": queue_depth,
            "jobs": self.config.jobs,
            "window": self.windows.last,
            "pending_journal": len(self.journal.pending),
        }


def canonical_results_bytes(results: List) -> bytes:
    """The byte form the replay-identity tests compare."""
    return json.dumps(results, sort_keys=True).encode()
