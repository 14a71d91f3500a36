"""Smoke test for scripts/: each script starts, and its imports resolve."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from a2w.checkpoint import Checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_SWEEP = ROOT / "tests" / "golden" / "cli_sweep.sha256"
# one BLAS thread, so the golden digests do not depend on the machine's core count
ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def run_script(name, *args, env=None, cwd=None):
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_sar_demo_runs():
    result = run_script("sar_demo.py")
    assert result.returncode == 0, result.stderr
    assert "switched" in result.stdout


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
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
    records; see scripts/cli_sweep.py for how to regenerate it. ``--out`` is
    relative, as the warm run changes directory."""
    result = run_script("cli_sweep.py", "--out", "sweep", env=ONE_THREAD, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    got, want = result.stdout.splitlines(), GOLDEN_SWEEP.read_text(encoding="utf-8").splitlines()
    headers = [f"{w!r} is now {g!r}" for g, w in zip(got, want) if g.startswith("#") and g != w]
    got_digests, want_digests = _digests(got), _digests(want)
    differing = sorted(p for p in got_digests.keys() | want_digests.keys() if got_digests.get(p) != want_digests.get(p))
    assert not differing and got == want, (
        f"{len(differing)} of {len(want_digests)} artifacts differ, first {differing[:5]}; header fields: {headers}"
    )


def test_cli_sweep_compare_says_how_far_each_artifact_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    (a / "run").mkdir(parents=True)
    tensors = {"model.out.W": np.linspace(1.0, 2.0, 6).reshape(2, 3), "model.b": np.zeros(3)}
    save_checkpoint(Checkpoint(tensors=tensors, config={"lr": "0.1"}, epoch=2), a / "run" / "epoch002.ckpt")
    records = [{"epoch": n, "lr": 0.1, "train_loss": 3.0 / n, "heldout_loss": 4.0 / n, "seconds": 1.0} for n in (1, 2)]
    records_text = "".join(json.dumps(r) + "\n" for r in records)
    (a / "run" / "train_run.jsonl").write_text(records_text, encoding="utf-8")
    for name in ("hyp.tsv", "same_ids.tsv", "no_tab.tsv"):
        (a / name).write_text("u1\tTHE CAT\nu2\tA DOG\n", encoding="utf-8")
    (a / "score_asc.txt").write_text("WER 0.00% (S=0 I=0 D=0 N=4)\n", encoding="utf-8")
    shutil.copytree(a, b)
    slower = records_text.replace('"seconds": 1.0', '"seconds": 2.0')
    (b / "run" / "train_run.jsonl").write_text(slower, encoding="utf-8")
    tensors["model.out.W"][1, 2] *= 1 + 1e-12
    save_checkpoint(Checkpoint(tensors=tensors, config={"lr": "0.1"}, epoch=2), b / "run" / "epoch002.ckpt")

    def compare():
        result = run_script("cli_sweep.py", "--compare", a, b)
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()

    assert compare() == ["run/epoch002.ckpt: model.out.W 1e-12"]  # wall time is not compared
    records[1]["heldout_loss"] *= 1.5
    (b / "run" / "train_run.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (b / "hyp.tsv").write_text("u1\tTHE CAT\nu2\tA CAT\nu3\t\n", encoding="utf-8")
    (b / "same_ids.tsv").write_text("u1\tTHE CAT\nu2\tA CAT DOG\n", encoding="utf-8")
    (b / "no_tab.tsv").write_text("u1\tTHE CAT\nu2 A DOG\n", encoding="utf-8")
    (b / "score_asc.txt").write_text("WER 25.00% (S=1 I=0 D=0 N=4)\n", encoding="utf-8")
    assert compare() == [
        "hyp.tsv: 2 of 3 lines differ; no WER: reference and hypothesis ids differ, e.g. ['u3']",
        f"no_tab.tsv: 1 of 2 lines differ; no WER: {b / 'no_tab.tsv'}:2: expected id<TAB>text, got 'u2 A DOG'",
        "run/epoch002.ckpt: model.out.W 1e-12",
        "run/train_run.jsonl: first differing epoch 2; heldout_loss 0.333",
        "same_ids.tsv: 1 of 2 lines differ; B against A: WER 25.00% (S=0 I=1 D=0 N=4)",
        "score_asc.txt: WER 0.00% (S=0 I=0 D=0 N=4) vs WER 25.00% (S=1 I=0 D=0 N=4)",
    ]
