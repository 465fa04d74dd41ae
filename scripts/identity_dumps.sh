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
#   model.npz, fit_query.npz         fit --save-model and its --dump-query
#   query_online.npz                 query --dump-result on the saved model
#   update_query.npz                 an update cycle's --dump-result
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

pipeline fit "${small[@]}" "${epochs[@]}" --save-model "$out/model.npz" \
    --query-holdout 6 --query-k 4 --dump-query "$out/fit_query.npz"
pipeline query "${small[@]}" --model "$out/model.npz" \
    --query-holdout 6 --query-k 4 --query-mode online --dump-result "$out/query_online.npz"
pipeline update "${small[@]}" --model "$out/model.npz" \
    --query-holdout 6 --upsert 3 --query-k 4 --no-save --dump-result "$out/update_query.npz"
pipeline scenario --name streaming-smoke --seed 0 --executor processes --workers 2 \
    --report "$out/scenario_streaming_processes.json"

echo "identity dumps written to $out"
