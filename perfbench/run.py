"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload enhance|gainfile|stream \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat every
metric by name with its unit, plus the machine record.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS/OpenMP pools must be sized before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def bootstrap() -> Path | None:
    """Pin native thread pools to one thread and put the checkout on the path.

    Returns the checkout root, or ``None`` when it holds no ``src/fbeq``.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "fbeq" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(root), str(root / "src")]
    return root


if __name__ == "__main__":
    ROOT = bootstrap()
    if ROOT is None:
        print("perfbench: no src/fbeq package next to the benchmark; run it from "
              "the root of a source checkout", file=sys.stderr)
        sys.exit(2)
    from perfbench.bench import main

    sys.exit(main(sys.argv[1:], ROOT))
