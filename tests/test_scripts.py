"""Smoke test for scripts/: each script starts, and its imports resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_sar_demo_runs():
    result = run_script("sar_demo.py")
    assert result.returncode == 0, result.stderr
    assert "switched" in result.stdout


@pytest.mark.parametrize("name", ["curriculum_study.py", "toy_experiment.py", "step_memory.py", "cli_sweep.py"])
def test_help(name):
    result = run_script(name, "--help")
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout
