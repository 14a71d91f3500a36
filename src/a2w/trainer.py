"""Optimization loop: Nesterov momentum, the flat-then-decay learning-rate
schedule, curriculum epochs, heldout tracking, and per-epoch checkpoints.

The velocity update evaluates the gradient at the displaced point
``theta + rho * v`` and then subtracts the refreshed velocity:

    v_n     = rho * v_{n-1} + lr * grad(theta_{n-1} + rho * v_{n-1})
    theta_n = theta_{n-1} - v_n

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
from .network import Model, ModelConfig, init_model, model_backward, model_forward, param_shapes, warm_start
from .pipeline import (
    ASCENDING,
    CurriculumOrder,
    Utterance,
    compute_deltas,
    sort_and_batch,
    stack_decimate,
)
from .seeding import derive_seed


CHECKPOINT_NAME = "epoch{:03d}.ckpt"  # of each 1-based epoch, in the run directory


class DivergedGradient(RuntimeError):
    """Raised when a gradient stops being finite; the run aborts."""


@dataclass(frozen=True)
class LrSchedule:
    """Constant for ``flat_epochs`` epochs, then one sqrt(1/2) decay per epoch."""

    base_lr: float = 0.01
    flat_epochs: int = 10


def lr_at(epoch: int, sched: LrSchedule) -> float:
    """Learning rate for a 1-based epoch index.

    The decayed value is computed as 2**(-n/2), which equals sqrt(1/2)**n but
    is exact for even n (halving every second epoch introduces no drift).
    """
    if epoch < 1:
        raise ValueError("epochs are 1-based")
    n = epoch - sched.flat_epochs
    if n <= 0:
        return sched.base_lr
    return sched.base_lr * 2.0 ** (-n / 2.0)


@dataclass
class OptimizerState:
    velocity: dict[str, np.ndarray]
    rho: float = 0.9
    # the buffers each step's lookahead point is built in; grad_fn may read
    # them only until it returns
    lookahead: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray], rho: float = 0.9):
        return cls(velocity={k: np.zeros_like(v) for k, v in params.items()}, rho=rho)


GradFn = Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]]


def nesterov_step(
    params: dict[str, np.ndarray],
    grad_fn: GradFn,
    state: OptimizerState,
    lr: float,
) -> tuple[dict[str, np.ndarray], OptimizerState, float]:
    """One momentum update, in place on the parameters, the velocity and the
    gradients ``grad_fn`` returns; returns (params, state, loss at the
    evaluation point)."""
    rho = state.rho
    if state.lookahead.keys() != params.keys():
        state.lookahead = {name: np.empty_like(p) for name, p in params.items()}
    for name, buf in state.lookahead.items():
        np.multiply(state.velocity[name], rho, out=buf)
        buf += params[name]
    loss, grads = grad_fn(state.lookahead)
    _check_finite(grads)
    for name, p in params.items():
        v, g = state.velocity[name], grads[name]
        v *= rho
        g *= lr
        v += g
        p -= v
    return params, state, loss


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
    config: TrainConfig
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
    run when a batch's ``features`` are read."""
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


def _label_space(vocab: Vocabulary, cfg: TrainConfig) -> LabelSpace:
    """Word targets, or spell-and-recognize targets over the config's charset."""
    if cfg.targets != "sar":
        return LabelSpace(vocab=vocab, joint=None, encode=lambda words: encode_words(words, vocab))
    joint = JointAlphabet(vocab=vocab, charset=build_charset(cfg.charset))
    return LabelSpace(vocab=vocab, joint=joint, encode=lambda words: build_sar_targets(words, joint).labels)


def build_label_space(train_utts: Sequence[Utterance], cfg: TrainConfig) -> LabelSpace:
    vocab = build_vocabulary((" ".join(u.transcript) for u in train_utts), cfg.min_count)
    return _label_space(vocab, cfg)


def check_feasible(utts: Sequence[Utterance], encode) -> None:
    for u in utts:
        needed = min_frames_for(encode(u.transcript))
        if u.num_frames < needed:
            raise InfeasibleAlignment(f"utterance {u.id}: {u.num_frames} frames < {needed} required for its target")


def evaluate_loss(model: Model, utts: Sequence[Utterance], encode, batch_size: int) -> float:
    """Mean per-utterance CTC loss with dropout disabled."""
    total = 0.0
    for batch in sort_and_batch(utts, ASCENDING, batch_size, encode):
        lattices, _ = model_forward(batch.features, batch.lengths, model)
        total += sum(ctc_loss(lat, tgt).log_loss for lat, tgt in zip(lattices, batch.targets))
    return total / len(utts)


def make_checkpoint(model: Model, state: OptimizerState, cfg: TrainConfig, epoch: int) -> Checkpoint:
    tensors = {f"model.{k}": np.asarray(v, dtype=np.float64) for k, v in model.params.items()}
    tensors.update({f"opt.v.{k}": np.asarray(v, dtype=np.float64) for k, v in state.velocity.items()})
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


def _check_fit(path: str | Path, ckpt: Checkpoint, config: ModelConfig, prefixes: tuple[str, ...]) -> None:
    """Raise ValueError naming ``path`` and the first tensor, by name, under
    ``prefixes`` that the checkpoint lacks, adds or shapes differently from
    the model ``config`` describes."""
    want = {prefix + name: shape for prefix in prefixes for name, shape in param_shapes(config).items()}
    have = {name: tensor.shape for name, tensor in ckpt.tensors.items() if name.startswith(prefixes)}
    for name in sorted(want.keys() | have.keys()):
        if have.get(name) != want.get(name):
            shapes = f"{have.get(name, 'absent')} in the checkpoint and {want.get(name, 'absent')} in the model"
            raise ValueError(f"{path}: tensor {name} is {shapes}")


def config_from_checkpoint(ckpt: Checkpoint) -> tuple[TrainConfig, ModelConfig]:
    """The run config and the network shape a checkpoint's config records snapshot."""
    items = dict(ckpt.config)
    input_dim, output_dim = int(items.pop("input_dim")), int(items.pop("output_dim"))
    cfg = config_from_items(items)
    return cfg, build_model_config(cfg, input_dim, output_dim)


def model_from_checkpoint(path: str | Path) -> tuple[TrainConfig, Model]:
    """Inverse of saving ``make_checkpoint``: the run config and the model a
    checkpoint file snapshots. A missing ``input_dim`` or ``output_dim``
    record, or model tensors that do not fit the config, raise ValueError
    naming the file and the record or tensor."""
    ckpt = load_checkpoint(path)
    for key in ("input_dim", "output_dim"):
        if key not in ckpt.config:
            raise ValueError(f"{path}: the checkpoint has no {key} config record")
    cfg, config = config_from_checkpoint(ckpt)
    _check_fit(path, ckpt, config, ("model.",))
    dtype = np.dtype(cfg.dtype)
    return cfg, Model(config, {k: v.astype(dtype) for k, v in ckpt.model_tensors().items()})


def _records_through(path: Path, last_epoch: int) -> list[str]:
    """The lines of an existing ``train_run.jsonl`` whose epoch is at most
    ``last_epoch``. A line that is not UTF-8 or not a JSON object with an
    integer epoch raises ValueError naming the file and the line."""
    kept = []
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
    records_path = out_dir / "train_run.jsonl"
    kept = _records_through(records_path, start_epoch)
    if state is None:
        state = OptimizerState.zeros_like(model.params, rho=cfg.momentum)
    sched = LrSchedule(base_lr=cfg.lr, flat_epochs=cfg.flat_epochs)
    run = TrainRun(config=cfg)
    n_train = len(train_utts)
    with records_path.open("w", encoding="utf-8") as records_file:
        records_file.writelines(kept)
        for epoch in range(start_epoch + 1, cfg.epochs + 1):
            started = time.perf_counter()
            lr = lr_at(epoch, sched)
            order = CurriculumOrder(cfg.order, derive_seed(cfg.seed, epoch, 0xF00D))
            batches = sort_and_batch(train_utts, order, cfg.batch_size, encode)
            loss_sum = 0.0
            for batch_idx, batch in enumerate(batches):
                rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, epoch, batch_idx)))

                def grad_fn(point, batch=batch, rng=rng):
                    probe = Model(model.config, point)
                    lattices, cache = model_forward(batch.features, batch.lengths, probe, rng=rng)
                    losses = []
                    for i, (lat, target) in enumerate(zip(lattices, batch.targets)):
                        result = ctc_loss(lat, target)
                        losses.append(result.log_loss)
                        np.divide(result.grad, batch.size, out=cache.slot(i))
                    del lattices, lat, result
                    grads = clip_global_norm(model_backward(cache), cfg.grad_clip)
                    return sum(losses) / batch.size, grads

                _, state, loss = nesterov_step(model.params, grad_fn, state, lr)
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


@dataclass
class TrainArtifacts:
    run: TrainRun
    model: Model
    label_space: LabelSpace


def run_training(
    cfg: TrainConfig,
    raw_train: Sequence[Utterance],
    raw_heldout: Sequence[Utterance],
    out_dir: str | Path,
    resume_from: str | Path | None = None,
) -> TrainArtifacts:
    """End-to-end orchestration: transforms, alphabets, init/warm-start/resume,
    then the epoch loop. Writes alphabets and the resolved config beside the
    checkpoints so that decoding needs only the run directory."""
    if not raw_train or not raw_heldout:
        raise ValueError("both the training and heldout splits must be non-empty")
    train_utts = prepare_corpus(raw_train, cfg)
    heldout_utts = prepare_corpus(raw_heldout, cfg)
    space = build_label_space(train_utts, cfg)
    check_feasible(train_utts, space.encode)
    check_feasible(heldout_utts, space.encode)

    # every check that can reject the recipe runs before the first file is written;
    # reading each utterance once rejects a transform that is not finite, by id
    input_dim = train_utts[0].features.shape[1]
    for u in (*train_utts, *heldout_utts):
        if (width := u.features.shape[1]) != input_dim:
            raise ValueError(f"{u.id}: features are {width} wide, not {input_dim}")
    model_config = build_model_config(cfg, input_dim, space.size)
    model = init_model(model_config, np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 0x1417))))
    state, warm_report, start_epoch = None, None, 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        _check_fit(resume_from, ckpt, model_config, ("model.", "opt.v."))
        warm_start(model, ckpt.model_tensors())
        velocity = {k: np.asarray(v, dtype=model.params[k].dtype) for k, v in ckpt.velocity_tensors().items()}
        state = OptimizerState(velocity=velocity, rho=cfg.momentum)
        start_epoch = ckpt.epoch
    elif cfg.warm_ckpt:
        warm_report = warm_start(model, load_checkpoint(cfg.warm_ckpt).model_tensors())
    if start_epoch >= cfg.epochs:
        at = f"{resume_from} is at epoch {start_epoch}, so " if resume_from is not None else ""
        raise ValueError(f"{at}epochs={cfg.epochs} leaves no epoch to run")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / "config.txt")
    save_alphabet(out_dir / "vocab.txt", space.vocab)
    if warm_report is not None:
        (out_dir / "warm_start.txt").write_text(str(warm_report) + "\n", encoding="utf-8")

    run = train(model, train_utts, heldout_utts, cfg, out_dir, space.encode, state=state, start_epoch=start_epoch)
    return TrainArtifacts(run=run, model=model, label_space=space)


def open_run(run_dir: str | Path, epoch: int | None = None) -> tuple[TrainConfig, Model, LabelSpace]:
    """Inverse of ``run_training``'s directory: the run config, the model of
    one checkpoint (the latest when ``epoch`` is None) and its label space."""
    run_dir = Path(run_dir)
    pattern = "epoch*.ckpt" if epoch is None else CHECKPOINT_NAME.format(epoch)
    found = sorted(run_dir.glob(pattern))
    if not found:
        raise FileNotFoundError(f"{run_dir}: no checkpoint matches {pattern}")
    cfg, model = model_from_checkpoint(found[-1])
    space = _label_space(load_alphabet(run_dir / "vocab.txt"), cfg)
    if space.size != model.config.output_dim:
        files = f"vocab.txt and the {cfg.charset} charset" if space.joint else "vocab.txt"
        raise ValueError(
            f"{run_dir}: {space.size} labels in {files}, but the checkpoint's output layer has {model.config.output_dim}"
        )
    return cfg, model, space
