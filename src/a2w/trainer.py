"""Optimization loop: Nesterov momentum, the flat-then-decay learning-rate
schedule, curriculum epochs, heldout tracking, and per-epoch checkpoints.

The velocity update evaluates the gradient at the displaced point
``theta + rho * v`` and then subtracts the refreshed velocity:

    v_n     = rho * v_{n-1} + lr * grad(theta_{n-1} + rho * v_{n-1})
    theta_n = theta_{n-1} - v_n

Since ``theta -= v``, the point ``theta + rho * v`` lies behind ``theta``,
not ahead of it: Nesterov momentum as Sutskever et al. (2013) define it
takes the gradient at ``theta - rho * v`` in this sign convention.
Acceptance criterion 4 pins the arithmetic above: two steps on
``theta**2 / 2`` from 1 at lr 0.1 and rho 0.9 reach 0.711, where the
other sign reaches 0.729.

With ``rho = 0`` the same arithmetic is bitwise plain SGD:
``theta + 0 * v == theta`` and ``0 * v + lr * g == lr * g``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .alphabet import (
    JointAlphabet,
    Vocabulary,
    build_charset,
    build_sar_targets,
    build_vocabulary,
    encode_words,
    load_alphabet,
    save_alphabet,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import TrainConfig, config_from_items, config_to_items, save_config
from .ctc import InfeasibleAlignment, ctc_loss, min_frames_for
from .decoder import SarHypothesis, decode_utterances, forward_batches
from .network import Model, ModelConfig, init_model, model_backward, model_forward, param_shapes
from .pipeline import (
    Utterance,
    compute_deltas,
    sort_and_batch,
    stack_decimate,
)
from .seeding import derive_seed


CHECKPOINT_NAME = "epoch{:03d}.ckpt"  # of each 1-based epoch, in the run directory
RECORDS_NAME = "train_run.jsonl"  # one EpochRecord line per epoch, in the run directory


class DivergedGradient(RuntimeError):
    """Raised when a gradient stops being finite; the run aborts."""


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate for a 1-based epoch index: ``cfg.lr`` for
    ``cfg.flat_epochs`` epochs, then one sqrt(1/2) decay per epoch.

    The decayed value is computed as 2**(-n/2), which equals sqrt(1/2)**n but
    is exact for even n (halving every second epoch introduces no drift).
    """
    if epoch < 1:
        raise ValueError("epochs are 1-based")
    n = epoch - cfg.flat_epochs
    if n <= 0:
        return cfg.lr
    return cfg.lr * 2.0 ** (-n / 2.0)


@dataclass
class OptimizerState:
    velocity: dict[str, np.ndarray]
    rho: float = 0.9

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray], rho: float = 0.9):
        return cls(velocity={k: np.zeros_like(v) for k, v in params.items()}, rho=rho)


GradFn = Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]]


def nesterov_step(
    params: dict[str, np.ndarray],
    grad_fn: GradFn,
    state: OptimizerState,
    lr: float,
) -> float:
    """One momentum update, in place on the parameters, the velocity and the gradients that
    ``grad_fn`` returns at a fresh evaluation point; returns the loss at that point."""
    rho = state.rho
    loss, grads = grad_fn({name: state.velocity[name] * rho + p for name, p in params.items()})
    _check_finite(grads)
    for name, p in params.items():
        v, g = state.velocity[name], grads[name]
        v *= rho
        g *= lr
        v += g
        p -= v
    return loss


def _check_finite(grads: dict[str, np.ndarray]) -> None:
    if math.isfinite(sum(float(np.sum(g)) for g in grads.values())):
        return
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergedGradient(f"non-finite gradient in {name}")


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients down, in place, so their joint L2 norm is at most
    max_norm; returns ``grads``."""
    if max_norm <= 0:
        return grads
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if not total > max_norm:  # a NaN norm scales nothing, so the finite check names the tensor
        return grads
    scale = max_norm / total
    for g in grads.values():
        g *= scale
    return grads


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    heldout_loss: float
    seconds: float

    def deterministic_fields(self) -> tuple:
        """Everything except wall time, for replay-equivalence comparisons."""
        return (self.epoch, self.lr, self.train_loss, self.heldout_loss)


@dataclass
class TrainRun:
    records: list[EpochRecord] = field(default_factory=list)
    checkpoint_paths: list[str] = field(default_factory=list)

    def best_heldout_epoch(self) -> int:
        return min(self.records, key=lambda r: (r.heldout_loss, r.epoch)).epoch


def transform_features(features: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    out = features
    if cfg.deltas:
        out = compute_deltas(out)
    if cfg.stacking:
        out = stack_decimate(out)
    return out


@dataclass(frozen=True, eq=False)
class PreparedUtterance:
    """An utterance seen through a run config's feature transforms. It holds
    no transformed copy: each read of ``features`` transforms the source's,
    and a result that is not finite raises ValueError naming the utterance.
    """

    source: Utterance | PreparedUtterance
    cfg: TrainConfig

    @property
    def id(self) -> str:
        return self.source.id

    @property
    def transcript(self) -> tuple[str, ...]:
        return self.source.transcript

    @property
    def num_frames(self) -> int:
        n = self.source.num_frames
        return (n + 1) // 2 if self.cfg.stacking else n

    @property
    def features(self) -> np.ndarray:
        f = transform_features(self.source.features, self.cfg)
        if not np.all(np.isfinite(f)):
            raise ValueError(f"{self.id}: features must be finite")
        return f


def prepare_corpus(utts: Sequence[Utterance], cfg: TrainConfig) -> list[PreparedUtterance]:
    """The utterances as the run config's model reads them; the transforms
    run when a batch's ``features`` are read at the model's input width."""
    return [PreparedUtterance(u, cfg) for u in utts]


@dataclass(frozen=True)
class LabelSpace:
    """The target encoder plus the alphabets behind it."""

    vocab: Vocabulary
    joint: JointAlphabet | None
    encode: Callable[[Sequence[str]], Sequence[int]]

    @property
    def size(self) -> int:
        return self.joint.size if self.joint else self.vocab.size


@dataclass(frozen=True)
class TrainedModel:
    """A model with the run config and label space that reading raw utterances through it takes."""

    cfg: TrainConfig
    model: Model
    space: LabelSpace

    def decode(self, utts: Sequence[Utterance], mode="word") -> list[tuple[str, list[str], SarHypothesis | None]]:
        """``decode_utterances`` rows of raw utterances, read through the run's transforms and batch size."""
        prepared, space, batch_size = prepare_corpus(utts, self.cfg), self.space, self.cfg.batch_size
        return decode_utterances(self.model, prepared, space.vocab, joint=space.joint, mode=mode, batch_size=batch_size)


def label_space(vocab: Vocabulary, cfg: TrainConfig) -> LabelSpace:
    """Word targets, or spell-and-recognize targets over the config's charset."""
    if cfg.targets != "sar":
        return LabelSpace(vocab=vocab, joint=None, encode=lambda words: encode_words(words, vocab))
    joint = JointAlphabet(vocab=vocab, charset=build_charset(cfg.charset))
    return LabelSpace(vocab=vocab, joint=joint, encode=lambda words: build_sar_targets(words, joint).labels)


def build_label_space(train_utts: Sequence[Utterance], cfg: TrainConfig) -> LabelSpace:
    vocab = build_vocabulary((" ".join(u.transcript) for u in train_utts), cfg.min_count)
    return label_space(vocab, cfg)


def check_feasible(utts: Sequence[Utterance], encode) -> None:
    """Raise, naming the utterance, when a transcript cannot be encoded (the
    encoder's ValueError type) or its target needs more frames than it has."""
    for u in utts:
        try:
            target = encode(u.transcript)
        except ValueError as exc:
            raise type(exc)(f"utterance {u.id}: {exc}") from None
        needed = min_frames_for(target)
        if u.num_frames < needed:
            raise InfeasibleAlignment(f"utterance {u.id}: {u.num_frames} frames < {needed} required for its target")


def evaluate_loss(model: Model, utts: Sequence[Utterance], encode, batch_size: int) -> float:
    """Mean per-utterance CTC loss over the batches of ``forward_batches``."""
    total = 0.0
    for batch, lattices in forward_batches(model, utts, batch_size):
        total += sum(ctc_loss(lat, encode(u.transcript)).log_loss for lat, u in zip(lattices, batch.utts))
    return total / len(utts)


def make_checkpoint(model: Model, state: OptimizerState, cfg: TrainConfig, epoch: int) -> Checkpoint:
    # save_checkpoint writes every tensor as <f8, so a float32 model's arrays go in as they are
    tensors = {f"model.{k}": v for k, v in model.params.items()}
    tensors.update({f"opt.v.{k}": v for k, v in state.velocity.items()})
    snapshot = config_to_items(cfg)
    snapshot["input_dim"] = str(model.config.input_dim)
    snapshot["output_dim"] = str(model.config.output_dim)
    return Checkpoint(tensors=tensors, config=snapshot, epoch=epoch)


def build_model_config(cfg: TrainConfig, input_dim: int, output_dim: int) -> ModelConfig:
    """The network shape a run config describes, for the given data dims."""
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


def _match(
    path: str | Path, ckpt: Checkpoint, config: ModelConfig, prefix: str
) -> tuple[dict[str, np.ndarray], list[str]]:
    """The checkpoint's tensors under ``prefix`` that fit the model ``config``
    describes, by parameter name and cast to its dtype, and one line for each
    tensor, in name order, that the checkpoint lacks, adds or shapes differently.
    A fitting tensor that is not finite raises ValueError naming ``path`` and the tensor."""
    want = param_shapes(config)
    have = {name.removeprefix(prefix): tensor for name, tensor in ckpt.tensors.items() if name.startswith(prefix)}
    fits, misfits = {}, []
    for name in sorted(want.keys() | have.keys()):
        found, wanted = have[name].shape if name in have else "absent", want.get(name, "absent")
        if found == wanted:
            fits[name] = have[name].astype(config.dtype)
            if not np.all(np.isfinite(fits[name])):
                raise ValueError(f"{path}: tensor {prefix}{name} is not finite")
        else:
            misfits.append(f"tensor {prefix}{name} is {found} in the checkpoint and {wanted} in the model")
    return fits, misfits


def _load(path: str | Path, ckpt: Checkpoint, config: ModelConfig, prefix: str) -> dict[str, np.ndarray]:
    """The tensors ``_match`` fits; a misfit raises ValueError naming ``path`` and the first one."""
    fits, misfits = _match(path, ckpt, config, prefix)
    if misfits:
        raise ValueError(f"{path}: {misfits[0]}")
    return fits


def model_from_checkpoint(path: str | Path) -> tuple[TrainConfig, Model]:
    """Inverse of saving ``make_checkpoint``: the run config and the model a
    checkpoint file snapshots. A missing ``input_dim`` or ``output_dim``
    record, or model tensors that do not fit the config, raise ValueError
    naming the file and the record or tensor."""
    ckpt = load_checkpoint(path)
    items = dict(ckpt.config)
    for key in ("input_dim", "output_dim"):
        if key not in items:
            raise ValueError(f"{path}: the checkpoint has no {key} config record")
    input_dim, output_dim = int(items.pop("input_dim")), int(items.pop("output_dim"))
    cfg = config_from_items(items)
    config = build_model_config(cfg, input_dim, output_dim)
    return cfg, Model(config, _load(path, ckpt, config, "model."))


def _records_through(path: Path, last_epoch: int) -> list[str]:
    """The lines of an existing ``train_run.jsonl`` whose epoch is at most
    ``last_epoch``. A line that is not UTF-8 or not a JSON object with an
    integer epoch raises ValueError naming the file and the line, and so
    does a file with no line of a resumed ``last_epoch`` (a run cut between
    that epoch's checkpoint and its record), naming the file and the epoch."""
    kept, found = [], last_epoch == 0 or not path.exists()
    for lineno, raw in enumerate(path.read_bytes().splitlines() if path.exists() else [], 1):
        try:
            line = raw.decode("utf-8")
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        epoch = record.get("epoch") if isinstance(record, dict) else None
        if type(epoch) is not int:
            raise ValueError(f"{path}:{lineno}: not a record with an integer epoch")
        if epoch <= last_epoch:
            kept.append(line + "\n")
        found = found or epoch == last_epoch
    if not found:
        raise ValueError(f"{path}: no record of epoch {last_epoch}, the epoch of the checkpoint resumed from")
    return kept


def train(
    model: Model,
    train_utts: Sequence[Utterance],
    heldout_utts: Sequence[Utterance],
    cfg: TrainConfig,
    out_dir: str | Path,
    encode,
    state: OptimizerState | None = None,
    start_epoch: int = 0,
) -> TrainRun:
    """Run epochs ``start_epoch+1 .. cfg.epochs`` of the full recipe.

    Per epoch: arrange the curriculum batches, take one momentum step per
    batch on the batch-mean CTC loss, evaluate the heldout loss, write a
    checkpoint, and append one record line. Identical seeds give identical
    records apart from wall time. Records of epochs after ``start_epoch``
    left by an earlier run in ``out_dir`` are dropped first, so a resumed
    run's record file lists each epoch once.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / RECORDS_NAME
    kept = _records_through(records_path, start_epoch)
    if state is None:
        state = OptimizerState.zeros_like(model.params, rho=cfg.momentum)
    run = TrainRun()
    n_train = len(train_utts)
    with records_path.open("w", encoding="utf-8") as records_file:
        records_file.writelines(kept)
        for epoch in range(start_epoch + 1, cfg.epochs + 1):
            started = time.perf_counter()
            lr = lr_at(epoch, cfg)
            batches = sort_and_batch(train_utts, cfg.order, cfg.batch_size, derive_seed(cfg.seed, epoch, 0xF00D))
            loss_sum = 0.0
            for batch_idx, batch in enumerate(batches):
                rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, epoch, batch_idx)))

                def grad_fn(point, batch=batch, rng=rng):
                    probe = Model(model.config, point)
                    lattices, cache = model_forward(batch.features(model.config.input_dim), batch.lengths, probe, rng=rng)
                    losses = []
                    for i, (lat, u) in enumerate(zip(lattices, batch.utts)):
                        result = ctc_loss(lat, encode(u.transcript))
                        losses.append(result.log_loss)
                        np.divide(result.grad, batch.size, out=cache.slot(i))
                    del lattices, lat, result
                    grads = clip_global_norm(model_backward(cache), cfg.grad_clip)
                    return sum(losses) / batch.size, grads

                loss = nesterov_step(model.params, grad_fn, state, lr)
                loss_sum += loss * batch.size
            heldout_loss = evaluate_loss(model, heldout_utts, encode, cfg.batch_size)
            ckpt_path = out_dir / CHECKPOINT_NAME.format(epoch)
            save_checkpoint(make_checkpoint(model, state, cfg, epoch), ckpt_path)
            record = EpochRecord(
                epoch=epoch,
                lr=lr,
                train_loss=loss_sum / n_train,
                heldout_loss=heldout_loss,
                seconds=time.perf_counter() - started,
            )
            records_file.write(json.dumps(asdict(record)) + "\n")
            records_file.flush()
            run.records.append(record)
            run.checkpoint_paths.append(str(ckpt_path))
    return run


def run_training(
    cfg: TrainConfig,
    raw_train: Sequence[Utterance],
    raw_heldout: Sequence[Utterance],
    out_dir: str | Path,
    resume_from: str | Path | None = None,
) -> tuple[TrainRun, TrainedModel]:
    """Transforms, alphabets, init/warm-start/resume, then the epoch loop;
    returns the records and the trained model. Writes alphabets and the
    resolved config beside the checkpoints, so decoding needs only the run directory."""
    if not raw_train or not raw_heldout:
        raise ValueError("both the training and heldout splits must be non-empty")
    train_utts = prepare_corpus(raw_train, cfg)
    heldout_utts = prepare_corpus(raw_heldout, cfg)
    space = build_label_space(train_utts, cfg)
    check_feasible(train_utts, space.encode)
    check_feasible(heldout_utts, space.encode)

    # every check that can reject the recipe runs before the first file is written: reading each
    # batch once, as the epochs will, names an utterance whose transform is not finite or not this wide
    input_dim = train_utts[0].features.shape[1]
    for utts in (train_utts, heldout_utts):
        for batch in sort_and_batch(utts, "ascending", cfg.batch_size):
            batch.features(input_dim)
    model_config = build_model_config(cfg, input_dim, space.size)
    state, warm_report, start_epoch = None, None, 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        model = Model(model_config, _load(resume_from, ckpt, model_config, "model."))
        state = OptimizerState(velocity=_load(resume_from, ckpt, model_config, "opt.v."), rho=cfg.momentum)
        start_epoch = ckpt.epoch
        del ckpt  # the model and velocity are copies, so the file buffer can go
        _records_through(Path(out_dir) / RECORDS_NAME, start_epoch)  # names a lost record before any write
    else:
        model = init_model(model_config, np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 0x1417))))
        if cfg.warm_ckpt:
            fits, misfits = _match(cfg.warm_ckpt, load_checkpoint(cfg.warm_ckpt), model_config, "model.")
            if not fits:
                raise ValueError(f"{cfg.warm_ckpt}: no tensor fits the model; {misfits[0]}")
            model.params.update(fits)
            warm_report = [f"copied {len(fits)} tensors, skipped {len(misfits)}"]
            warm_report += [f"  = {name}" for name in fits] + [f"  ! {misfit}" for misfit in misfits]
    if start_epoch >= cfg.epochs:
        at = f"{resume_from} is at epoch {start_epoch}, so " if resume_from is not None else ""
        raise ValueError(f"{at}epochs={cfg.epochs} leaves no epoch to run")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / "config.txt")
    save_alphabet(out_dir / "vocab.txt", space.vocab)
    if warm_report is not None:
        (out_dir / "warm_start.txt").write_text("\n".join(warm_report) + "\n", encoding="utf-8")

    run = train(model, train_utts, heldout_utts, cfg, out_dir, space.encode, state=state, start_epoch=start_epoch)
    return run, TrainedModel(cfg, model, space)


def open_run(run_dir: str | Path, epoch: int | None = None) -> TrainedModel:
    """Inverse of ``run_training``'s directory: the trained model of one
    checkpoint, the latest by epoch number when ``epoch`` is None."""
    run_dir = Path(run_dir)
    pattern = "epoch*.ckpt" if epoch is None else CHECKPOINT_NAME.format(epoch)
    found = sorted(run_dir.glob(pattern), key=lambda p: (len(p.name), p.name))  # epoch999 before epoch1000
    if not found:
        raise FileNotFoundError(f"{run_dir}: no checkpoint matches {pattern}")
    cfg, model = model_from_checkpoint(found[-1])
    space = label_space(load_alphabet(run_dir / "vocab.txt"), cfg)
    if space.size != model.config.output_dim:
        files = f"vocab.txt and the {cfg.charset} charset" if space.joint else "vocab.txt"
        raise ValueError(
            f"{run_dir}: {space.size} labels in {files}, but the checkpoint's output layer has {model.config.output_dim}"
        )
    return TrainedModel(cfg, model, space)
