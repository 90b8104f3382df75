"""End-to-end experiment pipeline with caching.

Every bench and example needs the same expensive artefacts: a corpus,
its classification, per-uarch ground-truth measurements, and model
predictions.  ``Experiment`` builds them once per (scale, seed) —
memoised in-process and, for the measurements (the slow part, ~20 ms a
block), in the per-(uarch, seed) measurement store under
``$REPRO_CACHE`` (:mod:`repro.parallel.shard_cache`), keyed by block
content, so repeated bench runs are fast, a grown corpus re-measures
only shards holding new blocks, and edits to the generators invalidate
cleanly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from repro import envvars, telemetry
from repro.telemetry import profiling
from repro.classify.categories import ClassifierResult, classify_blocks
from repro.corpus.dataset import Corpus, build_corpus, build_google_corpus
from repro.eval.validation import ValidationResult, validate
from repro.models.base import CostModel
from repro.models.iaca import IacaModel
from repro.models.ithemal import IthemalModel
from repro.models.llvm_mca import LlvmMcaModel
from repro.models.osaca import OsacaModel
from repro.parallel import (ShardCache, profile_corpus_sharded,
                            shard_corpus)
from repro.parallel.shard_cache import store_dir
from repro.resilience import RunJournal, journal_name

UARCHES = ("ivybridge", "haswell", "skylake")


@dataclass
class Experiment:
    """Shared lazy artefacts for one (scale, seed) configuration.

    Unset fields read the registry when the experiment is built:
    ``REPRO_SCALE`` (default 1/250 of the paper's 358k blocks),
    ``REPRO_SEED``, ``REPRO_JOBS`` and ``REPRO_SHARD_SIZE``.
    """

    scale: float = field(default_factory=lambda: envvars.get("REPRO_SCALE"))
    seed: int = field(default_factory=lambda: envvars.get("REPRO_SEED"))
    #: Worker processes for :meth:`measured` (1 = serial in-process,
    #: the default here; the CLI defaults to every core instead, see
    #: ``repro.parallel.default_jobs``).
    jobs: int = field(default_factory=lambda: envvars.get("REPRO_JOBS") or 1)
    shard_size: int = field(
        default_factory=lambda: envvars.get("REPRO_SHARD_SIZE"))
    _corpus: Optional[Corpus] = field(default=None, repr=False)
    _classification: Optional[ClassifierResult] = field(default=None,
                                                        repr=False)
    _measured: Dict[str, Dict[int, float]] = field(default_factory=dict,
                                                   repr=False)
    _funnels: Dict[str, Dict] = field(default_factory=dict, repr=False)
    _infos: Dict[str, Dict] = field(default_factory=dict, repr=False)
    _validations: Dict[str, ValidationResult] = field(
        default_factory=dict, repr=False)
    _models: Optional[List[CostModel]] = field(default=None, repr=False)
    _google: Optional[Dict[str, Corpus]] = field(default=None, repr=False)

    # ------------------------------------------------------------------

    @property
    def corpus(self) -> Corpus:
        if self._corpus is None:
            with profiling.phase("corpus_build"), \
                    telemetry.span("experiment.corpus_build",
                                   scale=self.scale,
                                   seed=self.seed) as sp:
                self._corpus = build_corpus(scale=self.scale,
                                            seed=self.seed)
                sp.annotate(blocks=len(self._corpus))
            telemetry.set_gauge("experiment.corpus_size",
                                len(self._corpus))
        return self._corpus

    @property
    def google_corpora(self) -> Dict[str, Corpus]:
        if self._google is None:
            with telemetry.span("experiment.google_corpus_build"):
                self._google = build_google_corpus(scale=self.scale,
                                                   seed=self.seed)
        return self._google

    @property
    def classification(self) -> ClassifierResult:
        if self._classification is None:
            with profiling.phase("classify"), \
                    telemetry.span("experiment.classify") as sp:
                self._classification = classify_blocks(self.corpus.blocks)
                sp.annotate(blocks=len(self.corpus))
        return self._classification

    @property
    def models(self) -> List[CostModel]:
        """The paper's four predictors (Ithemal trained lazily)."""
        if self._models is None:
            self._models = [IacaModel(), LlvmMcaModel(), IthemalModel(),
                            OsacaModel()]
        return self._models

    # ------------------------------------------------------------------

    def measured(self, uarch: str,
                 corpus: Optional[Corpus] = None,
                 tag: str = "main",
                 jobs: Optional[int] = None) -> Dict[int, float]:
        """Ground-truth throughputs (disk-cached, optionally parallel).

        Measurement goes through the sharded engine regardless of
        ``jobs``: the corpus is split into deterministic shards, shards
        whose every block is in the (uarch, seed) measurement store are
        loaded, and only the rest are profiled — serially in-process
        for ``jobs=1``, across a worker pool otherwise.  Serial and
        parallel runs are bit-identical
        (``tests/parallel/test_determinism.py``).  Every ``tag`` shares
        the store; each keeps its own run journal.
        """
        key = f"{tag}:{uarch}"
        if key in self._measured:
            return self._measured[key]
        corpus = corpus if corpus is not None else self.corpus
        jobs = self.jobs if jobs is None else max(1, jobs)
        cache = ShardCache(store_dir(uarch, self.seed))
        shards = shard_corpus(corpus, self.shard_size)
        # Always-on run journal inside the store: a run killed at any
        # point resumes from its completed shards (verified by
        # checksum) on the next call with the same (corpus, uarch,
        # seed).
        journal = RunJournal(os.path.join(cache.directory,
                                          journal_name(tag)))
        with profiling.phase(f"measure:{key}"), \
                telemetry.span("experiment.measure", uarch=uarch,
                               tag=tag, jobs=jobs) as sp:
            stats: Dict = {}
            profile = profile_corpus_sharded(
                corpus, uarch, seed=self.seed, jobs=jobs,
                shards=shards, cache=cache, journal=journal,
                stats=stats, run_label=key)
            if stats["profiled"] or stats["failed"]:
                telemetry.count("cache.misses")
                telemetry.count("cache.writes", stats["written"])
                telemetry.event("cache.miss", path=cache.directory,
                                tag=tag, uarch=uarch,
                                shards=stats["shards"],
                                cache_hits=stats["cache_hits"])
                sp.annotate(cache="miss", **stats)
            else:
                telemetry.count("cache.hits")
                telemetry.event("cache.hit", path=cache.directory,
                                tag=tag, uarch=uarch,
                                shards=stats["shards"])
                sp.annotate(cache="hit")
        self._measured[key] = profile.throughputs
        self._funnels[key] = profile.funnel
        self._infos[key] = profile.info
        return profile.throughputs

    def funnel(self, uarch: str, tag: str = "main") -> Optional[Dict]:
        """Accept/drop breakdown recorded with the measurements.

        ``None`` until :meth:`measured` has run.
        """
        return self._funnels.get(f"{tag}:{uarch}")

    def info(self, uarch: str, tag: str = "main") -> Optional[Dict]:
        """Informational per-run tallies (e.g. fast-path usage).

        ``None`` until :meth:`measured` has run.  Unlike the funnel,
        these never affect accepted/dropped accounting.
        """
        return self._infos.get(f"{tag}:{uarch}")

    def validation(self, uarch: str) -> ValidationResult:
        """Full §V validation for one microarchitecture (cached).

        With telemetry enabled, each fresh validation also writes a
        run report (``reports/run_validation_<uarch>.{json,txt}``)
        covering stage timings, cache behaviour, and the coverage
        funnel.
        """
        if uarch not in self._validations:
            with profiling.phase(f"validate:{uarch}"), \
                    telemetry.span("experiment.validate", uarch=uarch):
                categories = {
                    record.block_id: category
                    for record, category in
                    zip(self.corpus.records,
                        self.classification.categories)
                }
                self._validations[uarch] = validate(
                    self.corpus, uarch, self.models,
                    categories=categories, seed=self.seed,
                    measured=self.measured(uarch))
            if telemetry.is_enabled():
                self.write_run_report(uarch)
        return self._validations[uarch]

    def write_run_report(self, uarch: str,
                         directory: Optional[str] = None) -> Dict:
        """Emit the telemetry run report for one validation run."""
        funnel = self.funnel(uarch)
        info = self.info(uarch)
        if funnel is not None and info:
            # Attach at report-build time only: the stored funnel stays
            # byte-identical whether the fast path ran or not.
            funnel = {**funnel, "info": dict(info)}
        report = telemetry.build_run_report(
            telemetry.registry(), name=f"run_validation_{uarch}",
            meta={"uarch": uarch, "scale": self.scale,
                  "seed": self.seed, "corpus_size": len(self.corpus)},
            funnel=funnel)
        telemetry.write_run_report(report, directory)
        return report

    def validations(self, uarches: Sequence[str] = UARCHES
                    ) -> Dict[str, ValidationResult]:
        return {uarch: self.validation(uarch) for uarch in uarches}

    def google_validation(self, app: str,
                          uarch: str = "haswell") -> ValidationResult:
        """§V case study: validate models on Spanner/Dremel blocks.

        Like the paper, the models arrive pre-built (Ithemal trained on
        the main suite's measurements) and are evaluated on the
        production application's most frequently executed blocks.
        OSACA is excluded ("due to licensing issues").
        """
        self.validation(uarch)  # ensures Ithemal is trained
        corpus = self.google_corpora[app]
        models = [m for m in self.models if m.name != "OSACA"]
        return validate(corpus, uarch, models, seed=self.seed,
                        measured=self.measured(uarch, corpus=corpus,
                                               tag=app),
                        train_fraction=0.0)


@lru_cache(maxsize=4)
def default_experiment(scale: float, seed: int) -> Experiment:
    """Process-wide shared experiment (what the benches use)."""
    return Experiment(scale=scale, seed=seed)
