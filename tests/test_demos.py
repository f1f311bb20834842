"""Smoke tests: every script in ``demos/``, and the README's quick start, runs to completion in a fresh process."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       env=env, cwd=tmp_path, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.strip()


def test_readme_quick_start_runs(tmp_path):
    # the first python block of the README (its "Quick start") prints the
    # verdict of a resonant core-free sweep
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    assert r.stdout.splitlines()[-1].split()[0] == "resonant", r.stdout  # not "non-resonant"
