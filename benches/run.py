"""proxmg benchmark: end-to-end solve metrics, or per-layer metrics from a traced run.

Usage, from the repository root:

    python3 benches/run.py --workload deep-n63 --seed 0 --seconds 30 --trace 0

The run is one single-threaded process: the BLAS and OpenMP pools are pinned
to one thread before numpy loads.  It first warms up (each of the workload's
solves once with a short iteration budget, on its own fresh hierarchy), then
repeats passes of the workload, each solve on a fresh hierarchy, until the
next pass would overrun ``--seconds``.  Before every pass the hierarchy
builds alone are timed a few more times, and after every solve a frozen
reference computation gauges the host's speed (see reference.py); each solve
is scaled by the speed measured on either side of it.  Outputs are checked
between passes, outside the timed regions, and every pass must reproduce the
first bit for bit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; the traced
passes must reproduce the untraced results exactly.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import proxmg from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "proxmg" / "__init__.py").is_file():
        raise SystemExit(f"error: no proxmg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import proxmg
    if Path(proxmg.__file__).resolve().parent != (SRC / "proxmg").resolve():
        raise SystemExit(f"error: imported proxmg from {proxmg.__file__}, not {SRC}")


if __name__ == "__main__":
    import_library()
    import harness
    sys.exit(harness.main())
