"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-deep --seed 1 --seconds 16 --trace 0

Pins the BLAS/OpenMP pools to one thread before numpy loads, puts the
checkout's ``src/`` on the import path, and runs
:func:`perfbench.runner.main`.  See ``perfbench/README.md``.
"""

import os
import sys
from pathlib import Path

# A second BLAS thread on a 2-core host buys no wall time and makes runs noisier.
for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.runner import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
