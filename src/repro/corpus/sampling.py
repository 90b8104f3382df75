"""Deterministic stratified corpus sampling and error projection.

Profiling the full corpus is the expensive half of the pipeline; at
validation scales a stratified sample answers "what would the Table
III error columns look like?" at a fraction of the cost, with honest
uncertainty attached.  Three pieces:

* **Strata.**  Blocks are stratified by ``application x category``
  where the category is a cheap *per-block* structural class derived
  from the instruction mix (:func:`block_category`) — unlike the
  corpus-global LDA clustering it needs no second pass, so it works
  on a stream.
* **Deterministic, order-blind sampling.**  Whether a block is kept
  depends only on ``(seed, stratum, block text)`` via a CRC-32 keyed
  threshold — never on arrival order or on the rest of the corpus —
  so a streamed sample (:func:`sample_stream`) and a materialised
  sample agree, and re-runs are exactly reproducible.
  :func:`sample_corpus` additionally enforces *exact* per-stratum
  quotas by hash rank (the estimator's variance is then the
  classical stratified one).
* **Projection.**  :func:`project_validation` post-stratifies a
  sample's validation rows: per-stratum mean relative errors are
  recombined with *full-corpus* stratum weights, yielding projected
  overall and per-application error tables with seeded bootstrap
  percentile confidence intervals.  The CI covers sampling noise
  only — blocks not sampled contribute through their stratum's
  weight, which is why stratification (not uniform sampling) is what
  makes small fractions usable.

``$REPRO_SAMPLE`` sets the default fraction for the CLI.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.corpus.dataset import BlockRecord, Corpus

__all__ = ["CATEGORIES", "block_category", "stratum",
           "stratum_counts", "sample_stream",
           "sample_corpus", "project_validation", "render_projection"]

#: Every category :func:`block_category` can produce, in report order.
CATEGORIES = ("vector", "load_store", "load_heavy", "store_heavy",
              "mixed", "scalar")

#: Default bootstrap replicates for projection CIs.
DEFAULT_BOOTSTRAP = 200


def block_category(block) -> str:
    """Cheap structural class of one block, from its instruction mix.

    Thresholds on :func:`repro.models.residual.block_mix` fractions —
    the same mix the residual model weights by — chosen so the strata
    line up with the difficulty classes the paper reports (vectorised
    hardest, store-dominated easiest).  Pure per-block: usable on a
    stream, unlike the corpus-global LDA categories.
    """
    from repro.models.residual import block_mix
    mix = block_mix(block)
    if mix["vector"] >= 0.5:
        return "vector"
    if mix["load"] >= 0.25 and mix["store"] >= 0.25:
        return "load_store"
    if mix["load"] >= 0.25:
        return "load_heavy"
    if mix["store"] >= 0.25:
        return "store_heavy"
    if mix["vector"] > 0 or mix["bitmanip"] > 0:
        return "mixed"
    return "scalar"


def stratum(record: BlockRecord) -> Tuple[str, str]:
    """The ``(application, category)`` cell a record belongs to."""
    return record.application, block_category(record.block)


def stratum_counts(records: Iterable[BlockRecord]
                   ) -> Dict[Tuple[str, str], int]:
    """Population count per stratum (one streaming pass)."""
    counts: Dict[Tuple[str, str], int] = {}
    for record in records:
        cell = stratum(record)
        counts[cell] = counts.get(cell, 0) + 1
    return counts


def _keep_key(seed: int, app: str, category: str, text: str) -> float:
    """Deterministic per-block sampling key in [0, 1).

    CRC-32 of ``seed | stratum | block text`` — content-addressed, so
    the keep decision is identical whatever order blocks arrive in
    and whatever else is in the corpus (``PYTHONHASHSEED``-immune,
    like the shard digests).
    """
    crc = zlib.crc32(f"{seed}|{app}|{category}|".encode())
    crc = zlib.crc32(text.encode(), crc)
    return crc / 2.0 ** 32


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"sample fraction must be in (0, 1], "
                         f"got {fraction}")


def sample_stream(records: Iterable[BlockRecord], fraction: float,
                  seed: int = 0) -> Iterator[BlockRecord]:
    """Lazily keep ~``fraction`` of a record stream, per stratum.

    Order-blind thresholding: each block is kept iff its content key
    falls below ``fraction``, so the kept *set* is a pure function of
    the blocks themselves.  Per-stratum counts are binomial (not
    exact); use :func:`sample_corpus` when exact quotas matter more
    than constant memory.
    """
    _check_fraction(fraction)
    for record in records:
        app, category = stratum(record)
        if _keep_key(seed, app, category,
                     record.block.text()) < fraction:
            yield record


def sample_corpus(corpus: Iterable[BlockRecord], fraction: float,
                  seed: int = 0) -> Corpus:
    """Exact-quota stratified sample of a materialised corpus.

    Each stratum contributes ``round(fraction * n_s)`` blocks (never
    fewer than one), chosen by ascending content key — the same key
    :func:`sample_stream` thresholds on, so the two samplers agree in
    expectation and both are deterministic and order-blind.  Corpus
    order is preserved in the output.
    """
    _check_fraction(fraction)
    records = list(corpus)
    cells: Dict[Tuple[str, str],
                List[Tuple[float, int, BlockRecord]]] = {}
    for record in records:
        app, category = stratum(record)
        key = _keep_key(seed, app, category, record.block.text())
        cells.setdefault((app, category), []).append(
            (key, record.block_id, record))
    keep_ids = set()
    for cell in sorted(cells):
        ranked = sorted(cells[cell], key=lambda kr: (kr[0], kr[1]))
        quota = max(1, int(round(fraction * len(ranked))))
        for _, block_id, _ in ranked[:quota]:
            keep_ids.add(block_id)
    scale = getattr(corpus, "scale", None)
    kept = [r for r in records if r.block_id in keep_ids]
    return Corpus(kept, scale=scale) if scale is not None \
        else Corpus(kept)


# ---------------------------------------------------------------------------
# Projection: sample errors -> full-corpus error tables with CIs
# ---------------------------------------------------------------------------

def _percentile(ordered: List[float], q: float) -> float:
    if not ordered:
        return float("nan")
    rank = max(0, min(len(ordered) - 1,
                      int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _post_stratified(cell_errors: Dict[Tuple[str, str], List[float]],
                     full_counts: Dict[Tuple[str, str], int],
                     means: Dict[Tuple[str, str], float]
                     ) -> Optional[float]:
    """``sum_s W_s * mean_s`` over covered strata, W renormalised."""
    covered = [cell for cell in cell_errors if cell in means]
    weight_total = sum(full_counts.get(cell, 0) for cell in covered)
    if not weight_total:
        return None
    return sum(full_counts.get(cell, 0) / weight_total * means[cell]
               for cell in sorted(covered))


def project_validation(result, sample_records: Iterable[BlockRecord],
                       full_counts: Dict[Tuple[str, str], int], *,
                       models: Optional[List[str]] = None,
                       bootstrap: int = DEFAULT_BOOTSTRAP,
                       seed: int = 0,
                       confidence: float = 0.95) -> Dict:
    """Project full-corpus error tables from a sampled validation.

    ``result`` is the :class:`~repro.eval.validation.ValidationResult`
    of validating the *sample*; ``sample_records`` maps its rows back
    to strata; ``full_counts`` is :func:`stratum_counts` over the full
    corpus (cheap — it never profiles anything).  Per model, the
    projected overall and per-application mean relative errors are
    post-stratified estimates with seeded per-stratum bootstrap
    percentile intervals, so re-running with the same seed reproduces
    every digit.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), "
                         f"got {confidence}")
    strata_by_id = {record.block_id: stratum(record)
                    for record in sample_records}
    model_names = models or list(result.model_names)
    alpha = (1.0 - confidence) / 2.0
    projection: Dict = {
        "uarch": result.uarch,
        "confidence": confidence,
        "bootstrap": int(bootstrap),
        "seed": seed,
        "sampled_rows": len(result.rows),
        "full_blocks": sum(full_counts.values()),
        "models": {},
    }

    for model in model_names:
        cell_errors: Dict[Tuple[str, str], List[float]] = {}
        for row in result.rows:
            cell = strata_by_id.get(row.block_id)
            predicted = row.predictions.get(model)
            if cell is None or predicted is None or row.measured <= 0:
                continue
            error = abs(predicted - row.measured) / row.measured
            cell_errors.setdefault(cell, []).append(error)
        for errors in cell_errors.values():
            errors.sort()  # fixed accumulation order

        means = {cell: sum(errors) / len(errors)
                 for cell, errors in cell_errors.items()}
        estimate = _post_stratified(cell_errors, full_counts, means)

        # Seeded per-stratum bootstrap: resample each stratum's
        # errors with replacement, recombine with the same weights.
        rng = random.Random(f"{seed}|{result.uarch}|{model}")
        replicates: List[float] = []
        for _ in range(max(0, int(bootstrap))):
            boot_means = {}
            for cell in sorted(cell_errors):
                errors = cell_errors[cell]
                boot = [errors[rng.randrange(len(errors))]
                        for _ in errors]
                boot_means[cell] = sum(boot) / len(boot)
            replicate = _post_stratified(cell_errors, full_counts,
                                         boot_means)
            if replicate is not None:
                replicates.append(replicate)
        replicates.sort()

        per_app: Dict[str, Dict] = {}
        apps = sorted({app for app, _ in cell_errors})
        for app in apps:
            app_cells = {cell: errors
                         for cell, errors in cell_errors.items()
                         if cell[0] == app}
            app_means = {cell: means[cell] for cell in app_cells}
            app_estimate = _post_stratified(app_cells, full_counts,
                                            app_means)
            if app_estimate is not None:
                per_app[app] = {
                    "estimate": app_estimate,
                    "sampled": sum(len(v)
                                   for v in app_cells.values()),
                }

        projection["models"][model] = {
            "overall": {
                "estimate": estimate,
                "low": _percentile(replicates, alpha),
                "high": _percentile(replicates, 1.0 - alpha),
                "sampled": sum(len(v) for v in cell_errors.values()),
            },
            "per_application": per_app,
            "strata": {
                f"{app}/{category}": {
                    "weight": full_counts.get((app, category), 0),
                    "sampled": len(cell_errors[(app, category)]),
                    "mean_error": means[(app, category)],
                }
                for app, category in sorted(cell_errors)
            },
        }
    return projection


def render_projection(projection: Dict) -> str:
    """The ``repro validate --sample`` table, as text."""
    pct = int(round(projection["confidence"] * 100))
    lines = [
        f"projected error tables ({projection['uarch']}): "
        f"{projection['sampled_rows']} sampled rows -> "
        f"{projection['full_blocks']} blocks, {pct}% CI "
        f"({projection['bootstrap']} bootstrap replicates, "
        f"seed {projection['seed']})",
    ]
    for model, tables in sorted(projection["models"].items()):
        overall = tables["overall"]
        if overall["estimate"] is None:
            lines.append(f"  {model:<12} no usable rows")
            continue
        lines.append(
            f"  {model:<12} overall {overall['estimate']:7.2%}  "
            f"[{overall['low']:.2%}, {overall['high']:.2%}]  "
            f"(n={overall['sampled']})")
        for app, cell in sorted(tables["per_application"].items()):
            lines.append(f"    {app:<14} {cell['estimate']:7.2%}  "
                         f"(n={cell['sampled']})")
    return "\n".join(lines)
