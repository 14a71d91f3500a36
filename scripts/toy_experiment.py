#!/usr/bin/env python3
"""End-to-end desk experiment: synthesize a corpus, train the 6-layer
recipe, greedy-decode the heldout split, and score it.

    python scripts/toy_experiment.py --work /tmp/a2w-toy [--epochs 30]

Takes a few minutes at the default sizes. The config mirrors the
acceptance run: curriculum order, momentum 0.9, dropout 0.25, output
projection, flat-then-decay learning rate.
"""

import argparse
import time
from pathlib import Path

from a2w.config import TrainConfig
from a2w.decoder import write_transcripts
from a2w.pipeline import SynthSpec, synth_corpus, save_corpus
from a2w.scoring import corpus_wer
from a2w.trainer import run_training


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", required=True, help="output directory")
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--train-count", type=int, default=2000)
    parser.add_argument("--heldout-count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    work = Path(args.work)
    spec = SynthSpec(vocab_size=20, feature_dim=8, min_frames=4, max_frames=8,
                     min_words=2, max_words=5, noise=0.1, proto_seed=42)
    train_utts = synth_corpus(spec, args.train_count, seed=11)
    heldout = synth_corpus(spec, args.heldout_count, seed=22, id_prefix="held")
    save_corpus(train_utts, work / "corpus-train")
    save_corpus(heldout, work / "corpus-heldout")

    cfg = TrainConfig(layers=6, hidden=32, projection=32, dropout=0.25,
                      epochs=args.epochs, flat_epochs=20, lr=0.03, grad_clip=2.0,
                      batch_size=4, seed=args.seed, min_count=1,
                      init="uniform-fan-in-gain:3")
    started = time.perf_counter()
    run, trained = run_training(cfg, train_utts, heldout, work / "run")
    for record in run.records:
        print(f"epoch {record.epoch:2d}  lr {record.lr:.5f}  "
              f"train {record.train_loss:7.3f}  heldout {record.heldout_loss:7.3f}")
    print(f"trained in {time.perf_counter() - started:.0f}s")

    rows = trained.decode(heldout)
    write_transcripts(work / "heldout-hyp.tsv", [(utt_id, words) for utt_id, words, _ in rows])
    refs = {u.id: list(u.transcript) for u in heldout}
    print(corpus_wer(refs, {utt_id: words for utt_id, words, _ in rows}))


if __name__ == "__main__":
    main()
