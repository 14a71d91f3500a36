#!/usr/bin/env python3
"""Where one training step's memory goes, phase by phase (tracemalloc).

    python scripts/step_memory.py --hidden 512 --vocab 10000 --batch 16 --frames 100

Builds a synthetic corpus of exactly one batch, trains one epoch of one
step on it through ``a2w.trainer.train`` (so the step is the real one),
then reloads the epoch checkpoint. ``a2w.trainer``'s ``model_forward``,
``model_backward``, ``evaluate_loss`` and ``save_checkpoint`` are wrapped
from outside to mark the phases:

    forward      the training forward (the one given an rng), with its cache
    ctc          from the end of that forward to the start of backward
    backward     model_backward
    eval         the heldout loss (no-cache forward plus CTC)
    save, load   the epoch checkpoint written, then read back

For each phase it prints the traced bytes held when the phase starts and
the peak reached during it, both above what was held before training
began (corpus, model and optimizer state), and the peak above the
phase's own start; the checkpoint file size comes next.

The raw features are ``input_dim / 6`` wide at twice the frames, and the
paper's front end (deltas, then stacking) turns them into the network's
``T x input_dim`` input. Last comes the corpus side: the raw features,
the bytes a transformed copy of them would take, and the traced bytes
that ``prepare_corpus`` and the batch list of ``sort_and_batch`` hold
(the transforms run when a batch is read, so these hold no frames).
"""

import argparse
import os
import tempfile
import tracemalloc

import numpy as np

import a2w.trainer as trainer
from a2w.checkpoint import load_checkpoint
from a2w.config import TrainConfig
from a2w.network import init_model
from a2w.pipeline import ASCENDING, Utterance, sort_and_batch

MB = 1 << 20


def synthetic_split(prefix, count, frames, dim, words, vocab, rng):
    """``count`` utterances of ``frames`` x ``dim`` features, each with a
    random transcript of ``words`` word ids."""
    utts = []
    for k in range(count):
        transcript = tuple(str(w) for w in rng.integers(1, vocab, size=words))
        utts.append(Utterance(f"{prefix}{k}", rng.normal(size=(frames, dim)), transcript))
    return utts


class PhaseMeter:
    """Wraps the trainer's phase boundaries and records tracemalloc marks."""

    def __init__(self):
        self.rows = {}
        self.base = 0
        self.ctc_start = 0

    def mark(self, name, start):
        peak = tracemalloc.get_traced_memory()[1]
        self.rows[name] = (start - self.base, peak - self.base, peak - start)

    def phase(self, name, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        self.mark(name, start)
        return result

    def install(self):
        forward, backward = trainer.model_forward, trainer.model_backward
        evaluate, save = trainer.evaluate_loss, trainer.save_checkpoint

        def model_forward(*args, **kwargs):
            if kwargs.get("rng") is None:  # the heldout forward, inside the eval phase
                return forward(*args, **kwargs)
            result = self.phase("forward", forward, *args, **kwargs)
            tracemalloc.reset_peak()
            self.ctc_start = tracemalloc.get_traced_memory()[0]
            return result

        def model_backward(*args, **kwargs):
            self.mark("ctc", self.ctc_start)
            return self.phase("backward", backward, *args, **kwargs)

        trainer.model_forward, trainer.model_backward = model_forward, model_backward
        trainer.evaluate_loss = lambda *args: self.phase("eval", evaluate, *args)
        trainer.save_checkpoint = lambda *args: self.phase("save", save, *args)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--hidden", type=int, default=128, help="units per direction")
    parser.add_argument("--projection", type=int, default=64, help="0 disables the bottleneck")
    parser.add_argument("--vocab", type=int, default=960, help="output labels, blank included")
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--frames", type=int, default=100)
    parser.add_argument("--input-dim", type=int, default=240, help="network input, 6x the raw feature width")
    parser.add_argument("--dtype", default="float64", choices=("float64", "float32"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.input_dim % 6:
        parser.error(f"--input-dim must be divisible by 6, not {args.input_dim}")

    rng = np.random.default_rng(args.seed)
    words = max(1, args.frames // 4)  # always alignable at T frames
    raw_train = synthetic_split("train", args.batch, 2 * args.frames, args.input_dim // 6, words, args.vocab, rng)
    raw_held = synthetic_split("held", args.batch, 2 * args.frames, args.input_dim // 6, words, args.vocab, rng)
    cfg = TrainConfig(layers=args.layers, hidden=args.hidden, projection=args.projection, dtype=args.dtype,
                      epochs=1, batch_size=args.batch, grad_clip=2.0, seed=args.seed, deltas=True, stacking=True)
    model_config = trainer.build_model_config(cfg, args.input_dim, args.vocab)
    model = init_model(model_config, np.random.default_rng(args.seed))
    encode = lambda words: [int(w) for w in words]  # noqa: E731

    itemsize = np.dtype(args.dtype).itemsize
    logits_mb = args.frames * args.batch * args.vocab * itemsize / MB
    params_mb = sum(p.nbytes for p in model.params.values()) / MB
    print(f"shape: L={args.layers} H={args.hidden} d={args.projection} V={args.vocab} B={args.batch} "
          f"T={args.frames} F={args.input_dim} {args.dtype}")
    print(f"one T x B x V array: {logits_mb:.1f} MB; parameters: {params_mb:.1f} MB")

    state = trainer.OptimizerState.zeros_like(model.params, rho=cfg.momentum)
    meter = PhaseMeter()
    meter.install()
    with tempfile.TemporaryDirectory() as work:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_utts, held_utts = trainer.prepare_corpus(raw_train, cfg), trainer.prepare_corpus(raw_held, cfg)
            batches = sort_and_batch(train_utts, ASCENDING, args.batch, encode)
            corpus_held = tracemalloc.get_traced_memory()[0] - start
            del batches
            meter.base = tracemalloc.get_traced_memory()[0]
            run = trainer.train(model, train_utts, held_utts, cfg, work, encode, state=state)
            ckpt_path = run.checkpoint_paths[-1]
            meter.phase("load", load_checkpoint, ckpt_path)
        finally:
            tracemalloc.stop()
        file_mb = os.path.getsize(ckpt_path) / MB

    print(f"{'phase':10s} {'start MB':>10s} {'peak MB':>10s} {'peak-start MB':>14s}")
    for name in ("forward", "ctc", "backward", "eval", "save", "load"):
        start, peak, rise = meter.rows[name]
        print(f"{name:10s} {start / MB:10.1f} {peak / MB:10.1f} {rise / MB:14.1f}")
    print(f"checkpoint file: {file_mb:.1f} MB")
    raw_mb = sum(u.features.nbytes for u in raw_train) / MB
    transformed_mb = sum(u.features.nbytes for u in train_utts) / MB
    print(f"corpus: raw {raw_mb:.2f} MB, transformed {transformed_mb:.2f} MB if copied; "
          f"prepared corpus and batch list hold {corpus_held / MB:.3f} MB")


if __name__ == "__main__":
    main()
