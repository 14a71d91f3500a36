"""Smoke test for scripts/: each script starts, and its imports resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SWEEP = ROOT / "tests" / "golden" / "cli_sweep.sha256"
# one BLAS thread, so the golden digests do not depend on the machine's core count
ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def run_script(name, *args, env=None):
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
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


def test_step_memory_runs_one_tiny_step():
    result = run_script("step_memory.py", "--layers", "1", "--hidden", "4", "--projection", "0", "--vocab", "20",
                        "--batch", "2", "--frames", "10", "--input-dim", "6")
    assert result.returncode == 0, result.stderr
    rows = [line.split()[0] for line in result.stdout.splitlines()[3:9]]
    assert rows == ["forward", "ctc", "backward", "eval", "save", "load"], result.stdout
    assert result.stdout.splitlines()[-1].startswith("corpus: raw "), result.stdout


def _digests(lines):
    """path -> sha256 of a sweep output's artifact lines."""
    return {path: sha for sha, path in (line.split("  ", 1) for line in lines if not line.startswith("#"))}


def test_cli_sweep_matches_golden_digests(tmp_path):
    """Every artifact of the CLI sweep is byte for byte what the golden file
    records; see scripts/cli_sweep.py for how to regenerate it."""
    result = run_script("cli_sweep.py", "--out", str(tmp_path / "sweep"), env=ONE_THREAD)
    assert result.returncode == 0, result.stderr
    got, want = result.stdout.splitlines(), GOLDEN_SWEEP.read_text(encoding="utf-8").splitlines()
    headers = [f"{w!r} is now {g!r}" for g, w in zip(got, want) if g.startswith("#") and g != w]
    got_digests, want_digests = _digests(got), _digests(want)
    differing = sorted(p for p in got_digests.keys() | want_digests.keys() if got_digests.get(p) != want_digests.get(p))
    assert not differing and got == want, (
        f"{len(differing)} of {len(want_digests)} artifacts differ, first {differing[:5]}; header fields: {headers}"
    )
