#!/usr/bin/env python3
"""Digest every artifact of a fixed sweep of `a2w` commands, so that two
checkouts can be compared byte for byte.

    python scripts/cli_sweep.py --out /tmp/sweep > digests.txt

The sweep drives only the command line (in-process, through
``a2w.cli.cli_main``) on a small synthetic corpus:

* ``a2w synth``;
* ``a2w train`` in ascending, descending and random order, float32 with
  dropout, and a 2+1-epoch resume;
* positional and simple spell-and-recognize runs, each decoded in word,
  chars and switched mode;
* a spell-and-recognize run warm-started from the ascending run's last
  checkpoint, whose ``warm_start.txt`` names a copied, a misshapen and an
  extra tensor;
* ``a2w score``, with and without ``--strip-sar``.

It prints three ``# <name> <version>`` header lines (python, numpy and
numpy's BLAS, which the float arithmetic depends on), then one
``sha256  relative/path`` line per file under ``--out``, sorted by path.
Each ``train_run.jsonl`` record loses its wall-clock ``seconds`` field
before hashing, and each ``score`` output is saved as a file. Run it at
two commits and diff the output: equal lines mean equal corpora,
deterministic record fields, checkpoints, transcripts, ``.sar`` files and
scores. Takes about 8 s on a 2-vCPU machine.

``tests/golden/cli_sweep.sha256`` is the output with BLAS pinned to one
thread, and ``tests/test_scripts.py`` compares a fresh sweep with it. A
change that alters the arithmetic on purpose regenerates it:

    OPENBLAS_NUM_THREADS=1 python scripts/cli_sweep.py --out DIR > tests/golden/cli_sweep.sha256
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from a2w.cli import cli_main  # noqa: E402

TINY = ["--layers", "1", "--hidden", "16", "--projection", "8", "--epochs", "12", "--batch_size", "8",
        "--heldout_fraction", "0.2", "--dropout", "0", "--lr", "0.1", "--seed", "3"]
SAR = ["--targets", "sar", "--stacking", "false", "--projection", "0", "--epochs", "20"]
WORD_RUNS = {
    "asc": ["--layers", "2"],
    "desc": ["--order", "descending"],
    "random": ["--order", "random", "--grad_clip", "1.0"],
    "f32": ["--dtype", "float32", "--dropout", "0.25"],
}


def a2w(*argv) -> str:
    """Run one command; its stdout, or SystemExit when it does not exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli_main([str(a) for a in argv])
    if status != 0:
        raise SystemExit(f"a2w {' '.join(map(str, argv))} exited {status}")
    return out.getvalue()


def sweep(out: Path) -> None:
    corpus = out / "corpus"
    a2w("synth", "--out", corpus, "--seed", 7, "--count", 80, "--vocab-size", 6, "--feature-dim", 4,
        "--min-words", 1, "--max-words", 3, "--min-frames", 10, "--max-frames", 14,
        "--oov-pool", 3, "--oov-rate", 0.15)
    ref = out / "ref.tsv"
    rows = [line.rsplit("\t", 1)[0] for line in (corpus / "corpus.tsv").read_text(encoding="utf-8").splitlines()]
    ref.write_text("\n".join(rows) + "\n", encoding="utf-8")

    for name, flags in WORD_RUNS.items():
        a2w("train", "--corpus", corpus, "--out", out / name, *TINY, *flags)
    a2w("train", "--corpus", corpus, "--out", out / "resume", *TINY, "--epochs", 2)
    a2w("train", "--corpus", corpus, "--out", out / "resume", *TINY, "--epochs", 3,
        "--resume", out / "resume" / "epoch002.ckpt")
    for charset in ("positional", "simple"):
        a2w("train", "--corpus", corpus, "--out", out / f"sar_{charset}", *TINY, *SAR, "--charset", charset)
    cwd = Path.cwd()
    os.chdir(out)  # the config records warm_ckpt, so it is relative to --out
    try:
        a2w("train", "--corpus", corpus, "--out", out / "warm", *TINY, *SAR, "--epochs", 2,
            "--warm_ckpt", "asc/epoch012.ckpt")
    finally:
        os.chdir(cwd)

    decoded = out / "decoded"
    decoded.mkdir()
    for name in [*WORD_RUNS, "resume"]:
        a2w("decode", "--run", out / name, "--corpus", corpus, "--out", decoded / f"{name}.tsv")
    a2w("decode", "--run", out / "asc", "--corpus", corpus, "--out", decoded / "asc_epoch1.tsv", "--epoch", 1)
    for charset in ("positional", "simple"):
        for mode in ("word", "chars", "switched"):
            hyp = decoded / f"sar_{charset}_{mode}.tsv"
            a2w("decode", "--run", out / f"sar_{charset}", "--corpus", corpus, "--out", hyp, "--mode", mode)

    scores = {
        "asc": [decoded / "asc.tsv"],
        "f32": [decoded / "f32.tsv"],
        "sar_positional_switched": [decoded / "sar_positional_switched.tsv"],
        "sar_positional_switched_strip": [decoded / "sar_positional_switched.sar", "--strip-sar"],
        "sar_simple_chars_strip": [decoded / "sar_simple_chars.sar", "--strip-sar"],
    }
    for name, args in scores.items():
        (out / f"score_{name}.txt").write_text(a2w("score", ref, *args), encoding="utf-8")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "train_run.jsonl":
        records = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        data = "".join(json.dumps({k: v for k, v in r.items() if k != "seconds"}) + "\n" for r in records).encode()
    return hashlib.sha256(data).hexdigest()


def header() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# blas {blas['name']} {blas['version']}"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="new directory for the sweep's files")
    args = parser.parse_args()
    out = Path(args.out).resolve()  # the warm run changes directory
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    sweep(out)
    print("\n".join(header()))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
