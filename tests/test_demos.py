"""Smoke test: every script in ``demos/`` runs to completion in a fresh process."""

import os
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
