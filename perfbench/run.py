"""a2w benchmark: training epochs and a spell-and-recognize decode.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop in this process for ``--seconds`` and
prints every end-to-end metric with its unit (``--trace 0``), or every
per-layer metric from wrapped module calls plus ``trace.overhead_pct``
(``--trace 1``). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Without
``--workload`` (or with ``all``) each workload runs in its own child
process, one after the other. The exit code is 1 if a correctness check
failed and 2 if the benchmark could not run; ``perfbench/README.md`` lists
the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import PER_LAYER, Tracer, installed, layer_metrics
from stats import summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("train_desk", "train_paper", "decode_sar")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 2

END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "heldout_loss": "nats/utt",
    "decode_utts_per_s": "utt/s",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    limit = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def import_program():
    """Import a2w from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "a2w" / "__init__.py").is_file():
        print(f"error: no a2w sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import a2w

    if Path(a2w.__file__).resolve().parent != src / "a2w":
        print(f"error: a2w imported from {a2w.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def source_digest() -> str:
    """sha256 over the a2w sources, which identifies the program where no
    git metadata is present."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "a2w").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(workload: str, seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def median(values: list[float]) -> float | None:
    """Median of the finite values; None (JSON null) when no repetition
    produced one, which only happens when every repetition failed."""
    finite = [v for v in values if math.isfinite(v)]
    return summarize(finite)["median"] if finite else None


def measure(workload, seconds: float, trace: bool) -> dict:
    """The closed loop: repetitions until ``seconds`` have passed. With
    ``trace`` they alternate untraced and traced, starting untraced."""
    tracer = Tracer()
    untraced, traced = [], []
    started = time.perf_counter()
    while len(untraced) + len(traced) < MIN_REPS or time.perf_counter() - started < seconds:
        tracing = trace and len(untraced) > len(traced)
        tracer.run_id = len(traced)
        with installed(tracer) if tracing else nullcontext():
            rep = workload.rep(tracer if tracing else None)
        (traced if tracing else untraced).append(rep)
    reps = untraced + traced

    if trace:
        per_run = [layer_metrics(tracer, run_id) for run_id in range(len(traced))]
        values = {name: median([m[name] for m in per_run]) for name in PER_LAYER}
        units = dict(PER_LAYER)
        on, off = median([r.epoch_s for r in traced]), median([r.epoch_s for r in untraced])
        values["trace.overhead_pct"] = 100.0 * (on / off - 1.0) if on and off else None
        units["trace.overhead_pct"] = "%"
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace_{workload.name}_{workload.seed}.json").write_text(json.dumps(tracer.to_json()))
    else:
        values = {
            "setup_s": median(workload.setup_samples),
            "epoch_s": median([r.epoch_s for r in untraced]),
            "heldout_loss": workload.heldout_loss(),
            "decode_utts_per_s": median([r.utts_per_s for r in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "epoch_s": [r.epoch_s for r in reps],
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "reps": len(reps),
        "metrics": {name: (value, units[name]) for name, value in values.items()},
    }


def run_one(args) -> int:
    pin_threads()
    import_program()
    import workloads

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, args.seed, work_dir)
        workload.prepare()
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} reps={result['reps']} "
          f"epoch_s per rep: {' '.join(f'{t:.4f}' for t in result['epoch_s'])}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:28s} {value!s:>20s} {unit}")
    print(f"{'ops_attempted':28s} {result['attempted']:>20d} count")
    print(f"{'ops_failed':28s} {result['failed']:>20d} count")
    print("stamp " + json.dumps(stamp(args.workload, args.seed)))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
