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

To see how far two sweeps differ, not only whether, compare their
directories:

    python scripts/cli_sweep.py --compare DIR_A DIR_B

prints one line per artifact whose digest differs: for a checkpoint, the
largest relative difference of each differing tensor (read with
``load_checkpoint``); for ``train_run.jsonl``, that of each differing
deterministic field and the first epoch that differs; for a transcript
``.tsv``, the count of differing lines and B's WER against A (both read with
``read_transcripts``); for a ``score_*.txt``, both score lines; for any other
file, the count of differing lines. It is a diagnostic, not a tolerance.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from a2w.checkpoint import load_checkpoint  # noqa: E402
from a2w.cli import cli_main  # noqa: E402
from a2w.decoder import read_transcripts  # noqa: E402
from a2w.scoring import corpus_wer  # noqa: E402

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


def rel_diff(a, b) -> float:
    """The largest |a - b| / max(|a|, |b|) over two equal-shape arrays; 0 where both are 0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0, scale, 1.0), initial=0.0))


def _compare_checkpoints(path_a: Path, path_b: Path) -> str:
    a, b = load_checkpoint(path_a), load_checkpoint(path_b)
    parts = [f"epoch {a.epoch} vs {b.epoch}"] if a.epoch != b.epoch else []
    keys = sorted(a.config.keys() | b.config.keys())
    parts += [f"config {key}" for key in keys if a.config.get(key) != b.config.get(key)]
    for name in sorted(a.tensors.keys() | b.tensors.keys()):
        x, y = a.tensors.get(name), b.tensors.get(name)
        if x is None or y is None or x.shape != y.shape:
            parts.append(f"{name} {'absent' if x is None or y is None else 'reshaped'}")
        elif not np.array_equal(x, y):
            parts.append(f"{name} {rel_diff(x, y):.3g}")
    return ", ".join(parts)


def _compare_records(path_a: Path, path_b: Path) -> str:
    a, b = ([json.loads(line) for line in p.read_text(encoding="utf-8").splitlines()] for p in (path_a, path_b))
    if len(a) != len(b):
        return f"{len(a)} records vs {len(b)}"
    fields = [k for k in (a[0] if a else ()) if k != "seconds" and any(x[k] != y[k] for x, y in zip(a, b))]
    first = next((x["epoch"] for x, y in zip(a, b) if any(x[k] != y[k] for k in fields)), None)
    diffs = (f"{k} {rel_diff([x[k] for x in a], [y[k] for y in b]):.3g}" for k in fields)
    return f"first differing epoch {first}; " + ", ".join(diffs)


def _compare_lines(path_a: Path, path_b: Path) -> str:
    a, b = path_a.read_bytes().splitlines(), path_b.read_bytes().splitlines()
    differing = sum(x != y for x, y in itertools.zip_longest(a, b))
    return f"{differing} of {max(len(a), len(b))} lines differ"


def _compare_transcripts(path_a: Path, path_b: Path) -> str:
    lines = _compare_lines(path_a, path_b)
    try:
        return f"{lines}; B against A: {corpus_wer(read_transcripts(path_a), read_transcripts(path_b))}"
    except (KeyError, ValueError) as exc:  # the ids differ, a file is malformed, or A is empty where B is not
        return f"{lines}; no WER: {exc.args[0]}"


def _compare_scores(path_a: Path, path_b: Path) -> str:
    return " vs ".join(p.read_text(encoding="utf-8").strip() for p in (path_a, path_b))


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One ``relative/path: how it differs`` line per artifact whose digest
    differs between two sweep directories, sorted by path."""
    files = [{p.relative_to(d) for p in d.rglob("*") if p.is_file()} for d in (dir_a, dir_b)]
    lines = []
    for rel in sorted(files[0] | files[1]):
        path_a, path_b = dir_a / rel, dir_b / rel
        if rel not in files[0] or rel not in files[1]:
            lines.append(f"{rel.as_posix()}: only in {dir_a if rel in files[0] else dir_b}")
        elif digest(path_a) != digest(path_b):
            if rel.suffix == ".ckpt":
                how = _compare_checkpoints(path_a, path_b)
            elif rel.name == "train_run.jsonl":
                how = _compare_records(path_a, path_b)
            elif rel.suffix == ".tsv" and rel.name != "corpus.tsv":
                how = _compare_transcripts(path_a, path_b)
            elif rel.name.startswith("score_"):
                how = _compare_scores(path_a, path_b)
            else:
                how = _compare_lines(path_a, path_b)
            lines.append(f"{rel.as_posix()}: {how}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    task = parser.add_mutually_exclusive_group(required=True)
    task.add_argument("--out", help="new directory for the sweep's files")
    task.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"), help="two sweep directories to compare")
    args = parser.parse_args()
    if args.compare:
        for line in compare(*map(Path, args.compare)):
            print(line)
        return
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
