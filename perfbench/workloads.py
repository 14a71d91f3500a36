"""The three workloads: what each sets up, times and checks.

Every workload is a closed loop with one caller: a repetition starts only
after the previous one has ended. The workload seed draws the utterances
and their noise. The word prototypes, the model init and the dropout seed
are part of each workload's fixed definition, so the loss after the epoch
is a fixed-seed number.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from a2w.alphabet import JointAlphabet, build_charset, build_sar_targets, build_vocabulary
from a2w.checkpoint import load_checkpoint, save_checkpoint
from a2w.config import TrainConfig, config_from_items
from a2w.decoder import decode_utterances, parse_hypothesis, render_hypothesis
from a2w.network import Model, ModelConfig, init_model
from a2w.pipeline import SynthSpec, synth_corpus, synth_vocabulary
from a2w.scoring import corpus_wer
from a2w.seeding import derive_seed
from a2w.trainer import (
    LabelSpace,
    OptimizerState,
    build_label_space,
    check_feasible,
    evaluate_loss,
    make_checkpoint,
    prepare_corpus,
    train,
)


@dataclass
class Rep:
    """One timed repetition and the outcome of its correctness checks."""

    epoch_s: float
    utts_per_s: float
    attempted: int
    failed: int


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _model_config(cfg: TrainConfig, input_dim: int, output_dim: int) -> ModelConfig:
    return ModelConfig(
        input_dim=input_dim,
        output_dim=output_dim,
        num_layers=cfg.layers,
        hidden_per_direction=cfg.hidden,
        projection_dim=cfg.projection,
        dropout_rate=cfg.dropout,
        init_scheme=cfg.init,
        dtype=cfg.dtype,
    )


def _init(cfg: TrainConfig, input_dim: int, space: LabelSpace) -> Model:
    """Cold init with the same seed derivation as ``run_training``."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 0x1417)))
    return init_model(_model_config(cfg, input_dim, space.size), rng)


def model_from_checkpoint(ckpt) -> Model:
    """Rebuild the model from the config snapshot a checkpoint carries."""
    cfg = config_from_items({k: v for k, v in ckpt.config.items() if k not in ("input_dim", "output_dim")})
    config = _model_config(cfg, int(ckpt.config["input_dim"]), int(ckpt.config["output_dim"]))
    dtype = np.dtype(cfg.dtype)
    return Model(config, {k: v.astype(dtype) for k, v in ckpt.model_tensors().items()})


def decode_pass(ckpt_path, raw, cfg: TrainConfig, space: LabelSpace, mode: str, tracer):
    """One timed ``a2w decode`` + ``a2w score``: load the checkpoint,
    transform the features, decode, score. Returns (seconds, checkpoint,
    rows, WER report)."""
    started = time.perf_counter()
    with _span(tracer, "checkpoint.load_checkpoint"):
        ckpt = load_checkpoint(ckpt_path)
    model = model_from_checkpoint(ckpt)
    utts = prepare_corpus(raw, cfg)
    with _span(tracer, "decoder.decode_utterances"):
        rows = decode_utterances(model, utts, space.vocab, joint=space.joint, mode=mode, batch_size=cfg.batch_size)
    with _span(tracer, "scoring.corpus_wer"):
        report = corpus_wer({u.id: list(u.transcript) for u in raw}, {i: w for i, w, _ in rows})
    return time.perf_counter() - started, ckpt, rows, report


def _digest(rows) -> str:
    h = hashlib.sha256()
    for utt_id, words, hyp in rows:
        h.update(f"{utt_id}\t{' '.join(words)}\t{render_hypothesis(hyp) if hyp else ''}\n".encode())
    return h.hexdigest()


# -- correctness accounting -------------------------------------------------


def epoch_failures(steps: int, losses: tuple, fingerprint: tuple, reference: tuple | None, reload_ok: bool) -> int:
    """Steps of one epoch that count as failed.

    ``losses`` are the epoch's train and heldout loss. The train loss sums
    the steps' losses, so it is finite only if every step's loss was.
    ``reload_ok`` says the epoch checkpoint reloaded equal to the model and
    the decode passes agreed. The fingerprint must equal the first
    repetition's. A check that fails for the epoch fails all its steps.
    """
    if not reload_ok or not all(math.isfinite(x) for x in losses):
        return steps
    if reference is not None and fingerprint != reference:
        return steps
    return 0


def utterance_failures(rows, reference_rows, single_rows, charset) -> int:
    """Utterances of one decode pass that fail a check.

    An utterance fails if its hypothesis differs from the reference pass,
    differs from its one-at-a-time decode (for the sampled ids), or does
    not survive ``parse_hypothesis(render_hypothesis(h))``.
    """
    failed = 0
    for row, ref in zip(rows, reference_rows, strict=True):
        utt_id, words, hyp = row
        ok = row == ref
        if utt_id in single_rows:
            ok = ok and single_rows[utt_id] == (words, hyp)
        if hyp is not None:
            ok = ok and parse_hypothesis(render_hypothesis(hyp), charset) == hyp
        failed += not ok
    return failed


# -- training workloads -----------------------------------------------------


@dataclass(frozen=True)
class TrainShape:
    spec: SynthSpec
    train_count: int
    heldout_count: int
    config: TrainConfig


SHAPES = {
    # the acceptance criterion-6 recipe: 6x32 BLSTM, batch 4, V=22
    "train_desk": TrainShape(
        spec=SynthSpec(vocab_size=20, feature_dim=8, min_frames=4, max_frames=8,
                       min_words=2, max_words=5, noise=0.1, proto_seed=42),
        train_count=2000,
        heldout_count=200,
        config=TrainConfig(layers=6, hidden=32, projection=32, dropout=0.25, epochs=1, flat_epochs=20,
                           lr=0.03, grad_clip=2.0, batch_size=4, seed=5, min_count=1, init="uniform-fan-in-gain:3"),
    ),
    # paper-like: 40 -> 120 -> 240 inputs, 2x128 BLSTM, batch 16, T 73-133, V~960
    "train_paper": TrainShape(
        spec=SynthSpec(vocab_size=960, feature_dim=40, min_frames=16, max_frames=19,
                       min_words=9, max_words=14, noise=0.1, proto_seed=43),
        train_count=512,
        heldout_count=64,
        config=TrainConfig(layers=2, hidden=128, projection=64, dropout=0.25, epochs=1, flat_epochs=10,
                           lr=0.01, grad_clip=2.0, batch_size=16, min_count=1),
    ),
}

# heldout decode passes per repetition; their median time gives utt/s
DECODE_PASSES = 3

# a few steps of a tiny model, run untimed so imports, BLAS threads and
# allocator pools are warm before the first timed repetition
_WARM_UP = TrainShape(
    spec=SynthSpec(vocab_size=6, feature_dim=8, min_frames=4, max_frames=6, min_words=2, max_words=3, proto_seed=1),
    train_count=16,
    heldout_count=4,
    config=TrainConfig(layers=1, hidden=8, projection=4, epochs=1, batch_size=4),
)


class TrainWorkload:
    """Set up, train one epoch from cold init, then decode and score the
    heldout split from the epoch checkpoint, the way ``a2w decode`` and
    ``a2w score`` would."""

    def __init__(self, shape: TrainShape, seed: int, work_dir: Path):
        self.shape = shape
        self.seed = seed
        self.work_dir = work_dir
        self.reference: tuple | None = None
        self.setup_samples: list[float] = []
        self.losses: list[float] = []

    def prepare(self) -> None:
        TrainWorkload(_WARM_UP, self.seed, self.work_dir / "warm-up").rep(None)

    def heldout_loss(self) -> float:
        return statistics.median(self.losses) if self.losses else math.nan

    def rep(self, tracer) -> Rep:
        shape = self.shape
        rep_dir = self.work_dir / f"rep{len(self.setup_samples)}"
        started = time.perf_counter()
        cfg = shape.config
        raw_train = synth_corpus(shape.spec, shape.train_count, seed=derive_seed(self.seed, 1))
        raw_held = synth_corpus(shape.spec, shape.heldout_count, seed=derive_seed(self.seed, 2), id_prefix="held")
        train_utts = prepare_corpus(raw_train, cfg)
        held_utts = prepare_corpus(raw_held, cfg)
        space = build_label_space(train_utts, cfg)
        check_feasible(train_utts, space.encode)
        check_feasible(held_utts, space.encode)
        model = _init(cfg, train_utts[0].features.shape[1], space)
        self.setup_samples.append(time.perf_counter() - started)
        steps = math.ceil(len(train_utts) / cfg.batch_size)

        try:
            with _span(tracer, "trainer.train"):
                started = time.perf_counter()
                run = train(model, train_utts, held_utts, cfg, rep_dir, space.encode)
                epoch_s = time.perf_counter() - started
        except Exception:  # a failed epoch is counted, not fatal to the run
            traceback.print_exc(file=sys.stderr)
            shutil.rmtree(rep_dir, ignore_errors=True)
            return Rep(math.nan, math.nan, steps, steps)

        ckpt_path = run.checkpoint_paths[-1]
        passes = [decode_pass(ckpt_path, raw_held, cfg, space, "word", tracer) for _ in range(DECODE_PASSES)]
        utts_per_s = len(raw_held) / statistics.median(seconds for seconds, *_ in passes)
        _, ckpt, rows, report = passes[-1]
        tensors = ckpt.model_tensors()
        reload_ok = all(p_rows == rows for _, _, p_rows, _ in passes) and tensors.keys() == model.params.keys()
        reload_ok = reload_ok and all(np.array_equal(tensors[k], model.params[k]) for k in tensors)
        record = run.records[-1]
        fingerprint = (record.deterministic_fields(), report.errors, _digest(rows))
        losses = (record.train_loss, record.heldout_loss)
        failed = epoch_failures(steps, losses, fingerprint, self.reference, reload_ok)
        if self.reference is None and not failed:
            self.reference = fingerprint
        self.losses.append(record.heldout_loss)
        shutil.rmtree(rep_dir, ignore_errors=True)
        return Rep(epoch_s, utts_per_s, steps, failed)


# -- decode workload --------------------------------------------------------

DECODE_SPEC = SynthSpec(vocab_size=271, feature_dim=40, min_frames=10, max_frames=14, min_words=2, max_words=6,
                        noise=0.1, oov_pool_size=60, oov_rate=0.1, proto_seed=44)
DECODE_CONFIG = TrainConfig(layers=2, hidden=32, projection=32, dropout=0.0, batch_size=16, min_count=1,
                            targets="sar", charset="positional", stacking=False, init="uniform-fan-in-gain:3")
DECODE_COUNT = 256
DECODE_SAMPLE = 8
SETUP_REPEATS = 3


class DecodeWorkload:
    """Switched-mode spell-and-recognize decode plus WER of a fixed-seed,
    untrained joint word+character model, timed from loading its
    checkpoint to the corpus WER."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.setup_samples: list[float] = []

    def _setup(self) -> None:
        started = time.perf_counter()
        cfg = DECODE_CONFIG
        raw = synth_corpus(DECODE_SPEC, DECODE_COUNT, seed=derive_seed(self.seed, 1), id_prefix="dec")
        utts = prepare_corpus(raw, cfg)
        main_words, _ = synth_vocabulary(DECODE_SPEC)
        vocab = build_vocabulary(main_words, cfg.min_count)
        joint = JointAlphabet(vocab=vocab, charset=build_charset(cfg.charset))
        space = LabelSpace(vocab=vocab, joint=joint, encode=lambda words: build_sar_targets(words, joint).labels)
        check_feasible(utts, space.encode)
        model = _init(cfg, utts[0].features.shape[1], space)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.ckpt_path = self.work_dir / "sar.ckpt"
        save_checkpoint(make_checkpoint(model, OptimizerState.zeros_like(model.params), cfg, 0), self.ckpt_path)
        self.setup_samples.append(time.perf_counter() - started)
        self.cfg, self.raw, self.space, self.model = cfg, raw, space, model

    def prepare(self) -> None:
        for _ in range(SETUP_REPEATS):
            self._setup()
        # the reference pass doubles as the warm-up
        _, _, self.reference, _ = decode_pass(self.ckpt_path, self.raw, self.cfg, self.space, "switched", None)
        sample = prepare_corpus(self.raw[:DECODE_SAMPLE], self.cfg)
        self.single = {
            utt_id: (words, hyp)
            for utt_id, words, hyp in decode_utterances(self.model, sample, self.space.vocab, joint=self.space.joint,
                                                        mode="switched", batch_size=1)
        }

    def rep(self, tracer) -> Rep:
        epoch_s, _, rows, _ = decode_pass(self.ckpt_path, self.raw, self.cfg, self.space, "switched", tracer)
        failed = utterance_failures(rows, self.reference, self.single, self.space.joint.charset)
        return Rep(epoch_s, len(rows) / epoch_s, len(rows), failed)

    def heldout_loss(self) -> float:
        """Mean CTC loss of the checkpoint model on the decode corpus: a
        fingerprint of the forward numerics, computed after timing."""
        utts = prepare_corpus(self.raw, self.cfg)
        return evaluate_loss(self.model, utts, self.space.encode, self.cfg.batch_size)


def make(name: str, seed: int, work_dir: Path):
    workload = DecodeWorkload(seed, work_dir) if name == "decode_sar" else TrainWorkload(SHAPES[name], seed, work_dir)
    workload.name = name
    return workload
