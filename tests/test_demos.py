"""Smoke test: every script in demos/ runs to completion against src/, with
warnings as errors, as in the pytest process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WRITES_CSV = ("02_time_sweep", "03_field_sweep")


def test_demos_are_found():
    assert {path.stem for path in DEMOS} >= set(WRITES_CSV)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    if demo.stem in WRITES_CSV:
        assert list((tmp_path / "demo_output").glob("*.csv"))
