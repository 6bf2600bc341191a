"""The benchmark's command runs to its JSON result line.

``benches/run.py`` ends by printing one JSON object, built in part from the
solves' traces; a trace field that does not serialize, such as a numpy
scalar, stops it there while every library test still passes.  This runs
the command in a subprocess, for one second of a traced deep-n63 pass, and
reads that line back.  Nothing under ``benches`` is changed.

Every workload's ``peak_rss_mb`` includes what ``import proxmg`` loads, so
the imports are pinned too: ``scipy.sparse.linalg`` alone adds about 9 MB,
near a sixth of a workload's peak.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_traced_bench_run_prints_its_json_result():
    result = subprocess.run(
        [sys.executable, "benches/run.py", "--workload", "deep-n63", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0, out


def test_importing_proxmg_leaves_scipy_sparse_linalg_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, proxmg; "
         "print('scipy.sparse.linalg' in sys.modules, 'proxmg' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["False", "True"]
