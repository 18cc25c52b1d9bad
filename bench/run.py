"""bellrsp benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
``--trace 0`` times the workload untraced and reports the end-to-end
metrics. ``--trace 1`` is the separate traced run that reports the per-layer
metrics. Lines ``metric NAME VALUE UNIT n=COUNT`` come first, and the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. See ``harness.py`` for what each mode measures.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "bellrsp" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'bellrsp'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    # One BLAS thread, set before numpy loads: idle OpenBLAS threads spin on
    # the second core, which the Monte Carlo pool and the host also need.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import harness

    harness.main()
