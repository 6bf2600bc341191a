"""The benchmark's command runs to its JSON result line.

``benches/run.py`` ends by printing one JSON object, built in part from the
solves' traces; a trace field that does not serialize, such as a numpy
scalar, stops it there while every library test still passes.  This runs
the command in a subprocess, for one second of a traced deep-n63 pass, and
reads that line back.  Nothing under ``benches`` is changed.
"""

import json
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
