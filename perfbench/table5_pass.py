"""One Table V pass in a fresh interpreter (spawned by ``run.py``).

Usage::

    python perfbench/table5_pass.py --scale S --seed N --jobs J --out FILE
        [--fill] [--trace]

The measurement cache is whatever ``$REPRO_CACHE`` names; ``run.py``
gives every pass a fresh one.  The pass imports the pipeline (set-up,
ending at ``ready``), builds the application corpus at scale S,
starting at the offset seed N picks, and runs ``Experiment.validation``
for ivybridge, haswell and skylake (the timed region, ``start`` to
``end``), then,
untimed, digests the outputs and checks them.  ``--fill`` only
measures the corpus into the cache (the untimed store fill of
``table5-grown-pooled``).  ``--trace`` wraps the program's public
functions (``tracing.py``) around the timed region and adds the
per-layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import time

from common import CORPUS_SEED, UARCHES, rotation

#: Predictors in the digest.  Ithemal is left out: its training-set RNG
#: is seeded with ``hash(uarch)``, which ``PYTHONHASHSEED`` salts per
#: process, so its predictions differ between identical runs.
DIGEST_MODELS = ("IACA", "llvm-mca", "OSACA")
#: Funnel buckets that are failures of the program, not paper drops.
FAILURE_BUCKETS = ("worker_failure", "quarantined")
INFO_SHARES = (("simcore.fastpath_share", "fastpath_extrapolated"),
               ("runtime.blockplan_share", "blockplan_compiled"),
               ("runtime.lanes_share", "lanes_vectorized"))


def uarch_digest(throughputs, funnel, rows) -> str:
    """Digest of one uarch's measurements, funnel and predictions."""
    doc = {
        "throughputs": sorted((int(k), repr(v))
                              for k, v in throughputs.items()),
        "funnel": funnel,
        "predictions": [[row.block_id] + [repr(row.predictions.get(m))
                                          for m in DIGEST_MODELS]
                        for row in rows],
    }
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_outputs(experiment, validations) -> dict:
    """Digests plus the checks that need no recorded reference."""
    problems = []
    digests = {}
    failures = 0
    ithemal_error = {}
    for uarch in UARCHES:
        result = validations[uarch]
        throughputs = experiment.measured(uarch)
        funnel = experiment.funnel(uarch)
        digests[uarch] = uarch_digest(throughputs, funnel, result.rows)
        dropped = funnel.get("dropped", {})
        if funnel["accepted"] + sum(dropped.values()) != funnel["total"] \
                or funnel["total"] != len(experiment.corpus):
            problems.append(f"{uarch}: funnel does not cover the corpus")
        failures += sum(dropped.get(b, 0) for b in FAILURE_BUCKETS)
        if not result.rows:
            problems.append(f"{uarch}: no validation rows")
        missing = 0
        for row in result.rows:
            if not (row.measured > 0 and math.isfinite(row.measured)):
                problems.append(f"{uarch}: bad measurement {row.block_id}")
            value = row.predictions.get("Ithemal")
            if value is None or not math.isfinite(value):
                missing += 1
        if missing:
            problems.append(f"{uarch}: {missing} Ithemal predictions "
                            "missing or not finite")
        ithemal_error[uarch] = result.overall_error("Ithemal")
    combined = hashlib.sha256(
        "|".join(digests[u] for u in UARCHES).encode()).hexdigest()[:16]
    return {"digests": digests, "digest": combined, "problems": problems,
            "failures": failures, "ithemal_error": ithemal_error}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--fill", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.corpus.dataset import Corpus
    from repro.eval import pipeline
    ready = time.monotonic()

    def experiment_over_corpus():
        # The benchmark generates the corpus (with the pipeline's own
        # generator) and hands it to the program through the
        # Experiment's corpus field.
        corpus = pipeline.build_corpus(scale=args.scale, seed=CORPUS_SEED)
        start = rotation(args.seed, len(corpus))
        corpus = Corpus(corpus.records[start:] + corpus.records[:start],
                        scale=corpus.scale)
        return pipeline.Experiment(scale=args.scale, seed=CORPUS_SEED,
                                   jobs=args.jobs, _corpus=corpus)

    if args.fill:
        experiment = experiment_over_corpus()
        for uarch in UARCHES:
            experiment.measured(uarch)
        with open(args.out, "w") as fh:
            json.dump({"blocks": len(experiment.corpus)}, fh)
        return

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer().install()
    validations = {}
    start = time.monotonic()
    experiment = experiment_over_corpus()
    for uarch in UARCHES:
        validations[uarch] = experiment.validation(uarch)
    end = time.monotonic()
    if tracer is not None:
        tracer.uninstall()

    out = {"ready": ready, "start": start, "end": end,
           "blocks": len(experiment.corpus)}
    out.update(check_outputs(experiment, validations))
    if tracer is not None:
        layers = tracer.summary(start, end)
        total = sum(experiment.funnel(u)["total"] for u in UARCHES)
        for name, key in INFO_SHARES:
            layers[name] = sum((experiment.info(u) or {}).get(key, 0)
                               for u in UARCHES) / total
        out["layers"] = layers
    with open(args.out, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
