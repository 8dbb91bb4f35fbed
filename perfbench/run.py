"""Launcher for the secpon benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload secure-session --seed 1 --seconds 20 --trace 0

It refuses to run (exit 2) unless the checkout holds ``src/secpon``, caps
the BLAS/OpenMP thread pools at one thread before numpy loads, so every
workload runs in one single-threaded process, and hands over to
``bench.main``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "secpon" / "__init__.py").is_file():
        print(f"perfbench: no secpon package under {src}; "
              "run this from the root of a secpon checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
