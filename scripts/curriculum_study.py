#!/usr/bin/env python3
"""Data-order study: train the same model under ascending, descending, and
random curriculum orders (several seeds each) and tabulate heldout WER plus
padding waste.

    python scripts/curriculum_study.py --work /tmp/a2w-order [--seeds 3]
"""

import argparse
from pathlib import Path

from a2w.ablation import run_ablation
from a2w.config import TrainConfig
from a2w.pipeline import ORDERS, SynthSpec, synth_corpus, sort_and_batch
from a2w.trainer import prepare_corpus


def padding_report(utts, batch_size):
    rows = []
    for name in ORDERS:
        batches = sort_and_batch(utts, name, batch_size)
        cells = sum(b.size * b.max_frames for b in batches)
        used = sum(int(b.lengths.sum()) for b in batches)
        rows.append((name, 1.0 - used / cells))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    spec = SynthSpec(vocab_size=10, feature_dim=8, min_frames=4, max_frames=8,
                     min_words=2, max_words=6, proto_seed=13)
    train_utts = synth_corpus(spec, 320, seed=31)
    heldout = synth_corpus(spec, 120, seed=32, id_prefix="held")

    base = TrainConfig(layers=2, hidden=24, projection=16, dropout=0.1, epochs=10,
                       flat_epochs=10, lr=0.02, grad_clip=2.0, batch_size=8,
                       seed=101, min_count=1, init="uniform-fan-in-gain:2")

    print("aggregate padding waste (whole epoch):")
    for name, waste in padding_report(prepare_corpus(train_utts, base), base.batch_size):
        print(f"  {name:<10} {100 * waste:5.1f}%")

    result = run_ablation(base, ["full", "descending", "random"], train_utts, heldout, Path(args.work),
                          seeds=[base.seed + i for i in range(args.seeds)])
    print()
    print(result.render_text())


if __name__ == "__main__":
    main()
