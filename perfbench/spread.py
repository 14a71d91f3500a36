"""Run workloads over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workloads train_desk decode_sar --seeds 1-10 --seconds 30 \
        [--trace 0] [--out perfbench/baseline.json]

For every workload and metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, the spread the benchmark's bounds are checked
against. Runs are sequential, one child process at a time. ``--out``
writes the summaries, every run's result and each run's stamp as JSON;
``perfbench/baseline.json`` holds the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import summarize

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    stamp = next(json.loads(line[6:]) for line in lines if line.startswith("stamp "))
    return json.loads(lines[-1]), stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["train_desk", "train_paper", "decode_sar"])
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, stamp = run(workload, seed, args.seconds, args.trace)
            runs.append({"result": result, "stamp": stamp})
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, first in runs[0]["result"]["metrics"].items():
            summary[name] = {"unit": first["unit"],
                             **summarize([r["result"]["metrics"][name]["value"] for r in runs])}
            s = summary[name]
            print(f"  {name:28s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {100 * s['spread']:.2f}%  n={s['n']}", flush=True)
        report[workload] = {"summary": summary, "runs": runs}

    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
