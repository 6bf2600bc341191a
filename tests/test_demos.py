"""Every demo script, and README's quick start, runs against the library in ``src``.

The demos call the public solver signatures (demo 05 through ``cli.SOLVERS``),
so a removed option or a renamed trace field shows up here as a failing script.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def test_readme_quick_start_prints_its_certificates(tmp_path):
    # README's first python block, as a reader would paste it
    readme = (ROOT / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    passes = [line for line in result.stdout.splitlines() if line.startswith("PASS  ")]
    assert len(passes) == 6, result.stdout
