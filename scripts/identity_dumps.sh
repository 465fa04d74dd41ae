#!/usr/bin/env bash
# Write the deterministic output artifacts of the pipeline CLI into OUT_DIR.
#
# Usage: scripts/identity_dumps.sh OUT_DIR
#
# Every command that fits trains the matchers for 2 epochs and the
# GraphSAGE models for 6, long enough that most amazon_mi intents keep an
# earlier epoch than the last (query and update load the saved model and
# take no training flags).  The files are byte-reproducible, so a change
# that must not alter any output is checked by running the script at two
# commits and comparing the two directories file by file:
#
#   scripts/identity_dumps.sh /tmp/before   # at the parent commit
#   scripts/identity_dumps.sh /tmp/after    # at the change
#   for f in /tmp/before/*; do cmp "$f" "/tmp/after/${f##*/}"; done
#
# It writes:
#   resolve_<solver>_<executor>.npz  resolve --dump-result for each solver,
#                                    serial and with two worker processes
#                                    (the script fails if the two differ)
#   resolve_walmart_amazon.npz       resolve --dump-result on walmart_amazon
#   resolve_token.npz                resolve --dump-result with the token
#                                    blocker (every other dump blocks
#                                    with qgram)
#   model.npz, fit_query.npz         fit --save-model and its --dump-query
#   query_online.npz                 query --dump-result on the saved model
#   model_blocker.npz,               the same fit and online query with the
#   fit_query_blocker.npz,           blocker retriever, which probes the
#   query_online_blocker.npz         qgram index instead of ann_knn vectors
#   update_query.npz                 an update cycle's --dump-result
#   model_<r>.npz, fit_query_<r>.npz for each sub-linear retriever <r>
#   candidates_<r>.npz,              (hnsw, and lsh with 64 bands of 6
#   update_query_<r>.npz             rows): fit --save-model and its
#                                    --dump-query, retrieval-eval
#                                    --dump-candidates, and an update
#                                    cycle's --dump-result on the model
#   update_chain_fingerprints.txt    the fingerprint after each of three
#                                    seeded update cycles on a copy of
#                                    model.npz (each edits a fitted title,
#                                    so it refreshes pairs, adds held-out
#                                    records and, after the first, deletes
#                                    an earlier-added one), saved as
#                                    segments after every cycle
#   update_chain_live.npz            online answers of the updated model
#   update_chain_loaded.npz          the same answers from the chain
#                                    reloaded in a fresh process (the
#                                    script fails if the reloaded
#                                    fingerprint or answers differ)
#   scenario_streaming_processes.json
#                                    the streaming-smoke scenario report
#                                    under two worker processes
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
mkdir -p "$1"
out="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."
# An artifact cache shared with another commit would replay its outputs.
unset REPRO_CACHE_DIR

small=(--dataset amazon_mi --num-pairs 120 --products 10)
epochs=(--matcher-epochs 2 --gnn-epochs 6)
pipeline() {
    PYTHONPATH=src python -m repro.pipeline "$@" > /dev/null
}

for solver in in_parallel multi_label naive; do
    pipeline resolve "${small[@]}" "${epochs[@]}" --solver "$solver" \
        --executor serial --dump-result "$out/resolve_${solver}_serial.npz"
    pipeline resolve "${small[@]}" "${epochs[@]}" --solver "$solver" \
        --executor processes --workers 2 --dump-result "$out/resolve_${solver}_processes.npz"
    cmp "$out/resolve_${solver}_serial.npz" "$out/resolve_${solver}_processes.npz"
done
pipeline resolve --dataset walmart_amazon --num-pairs 120 --products 10 "${epochs[@]}" \
    --dump-result "$out/resolve_walmart_amazon.npz"
pipeline resolve "${small[@]}" "${epochs[@]}" --blocker token \
    --dump-result "$out/resolve_token.npz"

pipeline fit "${small[@]}" "${epochs[@]}" --save-model "$out/model.npz" \
    --query-holdout 6 --query-k 4 --dump-query "$out/fit_query.npz"
pipeline query "${small[@]}" --model "$out/model.npz" \
    --query-holdout 6 --query-k 4 --query-mode online --dump-result "$out/query_online.npz"
pipeline fit "${small[@]}" "${epochs[@]}" --retriever blocker \
    --save-model "$out/model_blocker.npz" \
    --query-holdout 6 --query-k 4 --dump-query "$out/fit_query_blocker.npz"
pipeline query "${small[@]}" --model "$out/model_blocker.npz" --query-holdout 6 --query-k 4 \
    --query-mode online --dump-result "$out/query_online_blocker.npz"
pipeline update "${small[@]}" --model "$out/model.npz" \
    --query-holdout 6 --upsert 3 --query-k 4 --no-save --dump-result "$out/update_query.npz"
for retriever in hnsw lsh; do
    retriever_args=(--retriever "$retriever")
    if [[ $retriever == lsh ]]; then
        # The default 12-row bands leave this small corpus's buckets empty.
        retriever_args+=(--retriever-arg num_bands=64 --retriever-arg rows_per_band=6)
    fi
    pipeline fit "${small[@]}" "${epochs[@]}" "${retriever_args[@]}" \
        --save-model "$out/model_$retriever.npz" \
        --query-holdout 6 --query-k 4 --dump-query "$out/fit_query_$retriever.npz"
    pipeline retrieval-eval "${small[@]}" --model "$out/model_$retriever.npz" \
        --query-holdout 6 --dump-candidates "$out/candidates_$retriever.npz"
    pipeline update "${small[@]}" --model "$out/model_$retriever.npz" --query-holdout 6 \
        --upsert 3 --query-k 4 --no-save --dump-result "$out/update_query_$retriever.npz"
done

# An update chain that refreshes pairs and replays its segments on load.
# The records match the fit's: the CLI's default seed and the same
# --query-holdout 6.
chain="$(mktemp -d)"
trap 'rm -rf "$chain"' EXIT
cp "$out/model.npz" "$chain/model.npz"
chain_step() {
    PYTHONPATH=src python - "$1" "$out" "$chain/model.npz" <<'EOF'
import sys
from pathlib import Path

import numpy as np

from repro import ResolverModel, load_benchmark
from repro.data.records import Record
from repro.data.serialization import write_artifact
from repro.datasets import TitlePerturber

step, out, path = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
benchmark = load_benchmark("amazon_mi", num_pairs=120, products_per_domain=10, seed=42)
records = list(benchmark.dataset.records)
holdout, probes = records[-6:-2], records[-2:]
fingerprints = out / "update_chain_fingerprints.txt"


def dump_answers(model, name):
    arrays, metadata = model.query(probes, k=4, mode="online").as_arrays()
    write_artifact(out / name, arrays, metadata)


if step == "live":
    model = ResolverModel.load(path)
    fitted = list(model.corpus.records)
    rng = np.random.default_rng(0)
    perturber = TitlePerturber(rng=rng)
    added, lines = [], []
    for cycle, new in enumerate([holdout[:2], holdout[2:3], holdout[3:]], start=1):
        record = fitted[rng.integers(len(fitted))]
        values = dict(record.values, title=perturber.perturb(record.values["title"]))
        deletes = [added.pop(0)] if added else []
        result = model.update(
            upserts=[Record(record.record_id, values, record.source), *new],
            deletes=deletes,
            compact="never",
        )
        if not result.refreshed_pairs:
            sys.exit(f"update cycle {cycle} refreshed no pair")
        added.extend(new_record.record_id for new_record in new)
        model.save(path)
        lines.append(f"{cycle} {model.fingerprint()}")
    fingerprints.write_text("\n".join(lines) + "\n")
    dump_answers(model, "update_chain_live.npz")
else:
    model = ResolverModel.load(path)
    live = fingerprints.read_text().split()[-1]
    if model.fingerprint() != live:
        sys.exit(f"reloaded update chain fingerprint {model.fingerprint()} != live {live}")
    dump_answers(model, "update_chain_loaded.npz")
EOF
}
chain_step live
chain_step loaded
cmp "$out/update_chain_live.npz" "$out/update_chain_loaded.npz"
pipeline scenario --name streaming-smoke --seed 0 --executor processes --workers 2 \
    --report "$out/scenario_streaming_processes.json"

echo "identity dumps written to $out"
