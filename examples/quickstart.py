"""Quickstart: fit a FlexER model once, then query new records online.

The script builds a small AmazonMI-like benchmark (products described by
title only, five resolution intents), fits the FlexER pipeline once
(per-intent matchers → multiplex intent graph → GraphSAGE) into a
persistable :class:`repro.ResolverModel`, evaluates the corpus
resolution with the paper's measures, and then resolves a micro-batch of
*held-out* records against the fitted corpus with ``model.query()`` —
no refitting, candidates retrieved by the bundled ANN index.

To run the staged pipeline on a pre-split benchmark instead, use
:meth:`repro.pipeline.PipelineRunner.run` (see
``examples/compare_baselines.py``); see
``examples/end_to_end_resolve.py`` for persistence (save → load → query)
and blocking-quality reporting.

Run with::

    PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.datasets import BENCHMARK_LABELERS
from repro.evaluation import format_table


def main() -> None:
    # 1. Build a benchmark and hold the last few records out of the
    #    corpus — they will arrive later as "new" records to query.
    benchmark = repro.load_benchmark("amazon_mi", num_pairs=200, products_per_domain=15, seed=7)
    records = list(benchmark.dataset.records)
    corpus = repro.Dataset(records=records[:-5], name=benchmark.dataset.name)
    new_records = records[-5:]
    print(f"benchmark: {benchmark.name}")
    print(f"  corpus records: {len(corpus)}  held-out records: {len(new_records)}")
    print(f"  intents: {', '.join(benchmark.intents)}\n")

    # 2. Fit once.  The labeler provides per-intent ground truth for the
    #    blocked corpus pairs; the returned model bundles every fitted
    #    component and is persistable via model.save(path).
    labeler = BENCHMARK_LABELERS["amazon_mi"]
    products = benchmark.record_products

    def label_pair(left, right):
        return labeler.label_pair(products[left.record_id], products[right.record_id])

    model = repro.fit(
        corpus,
        intents=labeler.intent_names,
        labeler=label_pair,
        config=repro.FlexERConfig.fast(),
    )

    # 3. Evaluate the corpus resolution with the paper's measures.
    evaluation = model.fit_result.evaluate()
    rows = [
        [intent, metrics.precision, metrics.recall, metrics.f1]
        for intent, metrics in evaluation.per_intent.items()
    ]
    print(format_table(["Intent", "P", "R", "F1"], rows, title="Per-intent corpus results"))
    print(
        f"\nMI-P={evaluation.mi_precision:.3f}  MI-R={evaluation.mi_recall:.3f}  "
        f"MI-F={evaluation.mi_f1:.3f}  MI-Acc={evaluation.mi_accuracy:.3f}"
    )

    # 4. Query many: resolve the held-out records against the corpus
    #    online (frozen inference over the touched subgraph only).
    result = model.query(new_records, k=3, mode="online")
    print(f"\nquery: {len(result.record_ids)} new records -> {len(result)} candidate pairs")
    equivalent = set(result.matches("equivalence"))
    for record in new_records:
        matches = [
            pair.other(record.record_id)
            for pair in result.pairs_for(record.record_id)
            if pair in equivalent
        ]
        print(f"  {record.record_id}: equivalent to {matches or 'nothing in the corpus'}")


if __name__ == "__main__":
    main()
