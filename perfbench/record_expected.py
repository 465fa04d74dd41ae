"""Record the stored F1 tables and pair counts of the fit workloads' pools.

Usage (from the repository root)::

    python3 perfbench/record_expected.py fit-deep fit-wide

Fits every pool corpus of each named workload once and writes
``perfbench/expected/<workload>.json``.  Re-record only for a change
that is meant to alter fit predictions; the fit workloads' output check
compares every timed op against these tables.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import json  # noqa: E402

from perfbench.workloads import EXPECTED_DIR, WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    for name in names:
        workload = WORKLOADS[name](seed=0, workdir=ROOT)
        tables, pairs = {}, {}
        for index in range(workload.pool_size):
            corpus, labeler = workload.pool_corpus(index)
            model = workload.fit(corpus, labeler)
            tables[str(index)] = workload.f1_table(model)
            pairs[str(index)] = len(model.fit_result.candidates)
        path = EXPECTED_DIR / f"{name}.json"
        stored = {"workload": name, "pairs": pairs, "f1": tables}
        path.write_text(json.dumps(stored, indent=1) + "\n")
        print(f"wrote {len(tables)} tables to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
