"""From-scratch bidirectional LSTM stack with exact backpropagation.

Layers run a forward-direction LSTM over each utterance's true frames and a
second LSTM over the reversed frames, concatenating the two hidden streams.
Inverted dropout sits between stacked layers only. The output side is a
linear bottleneck (D -> d -> V) when a projection dimension is configured,
otherwise a single D -> V matrix; neither carries a bias, so the factored
parameter count is exactly V*d + d*D.

Gate order is input/forget/cell/output with sigmoid/sigmoid/tanh/sigmoid;
the forget-gate bias starts at 1.0, all other biases at 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ctc import LOGITS, PosteriorLattice


class BadShape(ValueError):
    """Raised for empty or inconsistent tensor shapes."""


class NoForwardCache(RuntimeError):
    """Raised when a backward pass is requested without a cached forward."""


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    output_dim: int
    num_layers: int = 6
    hidden_per_direction: int = 512
    projection_dim: int = 256  # 0 disables the bottleneck
    dropout_rate: float = 0.25
    init_scheme: str = "uniform-fan-in"
    dtype: str = "float64"

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 2 or self.num_layers < 1:
            raise BadShape("input_dim, output_dim and num_layers must be positive (output includes blank)")
        if self.hidden_per_direction < 1:
            raise BadShape("hidden_per_direction must be positive")
        if self.projection_dim and not 0 < self.projection_dim < self.concat_dim:
            raise BadShape("projection_dim must satisfy 0 < d < 2*hidden")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be float64 or float32")
        self.stack_init_gain()  # validates the scheme string

    def stack_init_gain(self) -> float:
        """Multiplier on the recurrent-stack init range.

        "uniform-fan-in" keeps the plain 1/sqrt(fan-in) range everywhere.
        "uniform-fan-in-gain:G" widens the LSTM W/R ranges by G; a cold
        stack loses roughly half its activation scale per layer at G=1,
        so deep desk-scale models that start from scratch (instead of a
        warm checkpoint) need G around 3 to keep signal flowing.
        """
        if self.init_scheme == "uniform-fan-in":
            return 1.0
        if self.init_scheme.startswith("uniform-fan-in-gain:"):
            gain = float(self.init_scheme.split(":", 1)[1])
            if gain <= 0:
                raise ValueError("init gain must be positive")
            return gain
        raise ValueError(f"unknown init scheme {self.init_scheme!r}")

    @property
    def concat_dim(self) -> int:
        return 2 * self.hidden_per_direction

    def layer_input_dim(self, layer: int) -> int:
        return self.input_dim if layer == 0 else self.concat_dim


def init_uniform_fan_in(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Uniform(-eps, eps) entries with eps the inverse square root of the
    trailing (input-vector) dimension."""
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise BadShape(f"cannot initialize shape {shape}")
    eps = 1.0 / np.sqrt(shape[-1])
    return rng.uniform(-eps, eps, size=shape)


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)


def _gate_bias(hidden: int, dtype) -> np.ndarray:
    b = np.zeros(4 * hidden, dtype=dtype)
    b[hidden : 2 * hidden] = 1.0  # forget gate opens at init
    return b


def init_model(config: ModelConfig, rng: np.random.Generator) -> Model:
    dtype = np.dtype(config.dtype)
    hidden = config.hidden_per_direction
    gain = config.stack_init_gain()
    params: dict[str, np.ndarray] = {}
    for layer in range(config.num_layers):
        in_dim = config.layer_input_dim(layer)
        for direction in ("fwd", "bwd"):
            prefix = f"layers.{layer}.{direction}"
            params[f"{prefix}.W"] = (gain * init_uniform_fan_in((4 * hidden, in_dim), rng)).astype(dtype)
            params[f"{prefix}.R"] = (gain * init_uniform_fan_in((4 * hidden, hidden), rng)).astype(dtype)
            params[f"{prefix}.b"] = _gate_bias(hidden, dtype)
    if config.projection_dim:
        params["proj.W"] = init_uniform_fan_in((config.projection_dim, config.concat_dim), rng).astype(dtype)
        params["out.W"] = init_uniform_fan_in((config.output_dim, config.projection_dim), rng).astype(dtype)
    else:
        params["out.W"] = init_uniform_fan_in((config.output_dim, config.concat_dim), rng).astype(dtype)
    return Model(config=config, params=params)


def output_side_param_count(config: ModelConfig) -> int:
    """V*d + d*D with a projection, V*D without; exact, no hidden biases."""
    v, d_cat = config.output_dim, config.concat_dim
    if config.projection_dim:
        return v * config.projection_dim + config.projection_dim * d_cat
    return v * d_cat


def parameter_count(config: ModelConfig) -> int:
    hidden = config.hidden_per_direction
    total = 0
    for layer in range(config.num_layers):
        in_dim = config.layer_input_dim(layer)
        total += 2 * (4 * hidden * in_dim + 4 * hidden * hidden + 4 * hidden)
    return total + output_side_param_count(config)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp may overflow for very negative z; 1/(1+inf) -> 0 is the right limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


@dataclass
class _DirectionCache:
    x: np.ndarray        # B x T x In, in this direction's time order
    gates: np.ndarray    # B x T x 4H post-nonlinearity [i, f, g, o]
    c: np.ndarray        # B x T x H cell states
    tanh_c: np.ndarray
    h: np.ndarray        # B x T x H hidden states


def _run_lstm(x: np.ndarray, w: np.ndarray, r: np.ndarray, b: np.ndarray) -> _DirectionCache:
    batch, t_max, _ = x.shape
    hidden = r.shape[1]
    pre = x @ w.T + b  # input contribution for every frame at once
    gates = np.empty((batch, t_max, 4 * hidden), dtype=x.dtype)
    cs = np.empty((batch, t_max, hidden), dtype=x.dtype)
    tcs = np.empty_like(cs)
    hs = np.empty_like(cs)
    h = np.zeros((batch, hidden), dtype=x.dtype)
    c = np.zeros((batch, hidden), dtype=x.dtype)
    for t in range(t_max):
        z = pre[:, t] + h @ r.T
        gi = _sigmoid(z[:, :hidden])
        gf = _sigmoid(z[:, hidden : 2 * hidden])
        gg = np.tanh(z[:, 2 * hidden : 3 * hidden])
        go = _sigmoid(z[:, 3 * hidden :])
        c = gf * c + gi * gg
        tc = np.tanh(c)
        h = go * tc
        gates[:, t, :hidden] = gi
        gates[:, t, hidden : 2 * hidden] = gf
        gates[:, t, 2 * hidden : 3 * hidden] = gg
        gates[:, t, 3 * hidden :] = go
        cs[:, t] = c
        tcs[:, t] = tc
        hs[:, t] = h
    return _DirectionCache(x=x, gates=gates, c=cs, tanh_c=tcs, h=hs)


def _lstm_backward(cache: _DirectionCache, dh_seq: np.ndarray, w: np.ndarray, r: np.ndarray):
    """Gradients for one direction; dh_seq must be zero on padded frames."""
    batch, t_max, hidden = cache.h.shape
    gates, cs, tcs = cache.gates, cache.c, cache.tanh_c
    dz_seq = np.empty((batch, t_max, 4 * hidden), dtype=cache.x.dtype)
    dh_rec = np.zeros((batch, hidden), dtype=cache.x.dtype)
    dc_rec = np.zeros_like(dh_rec)
    for t in range(t_max - 1, -1, -1):
        gi = gates[:, t, :hidden]
        gf = gates[:, t, hidden : 2 * hidden]
        gg = gates[:, t, 2 * hidden : 3 * hidden]
        go = gates[:, t, 3 * hidden :]
        c_prev = cs[:, t - 1] if t > 0 else np.zeros_like(dc_rec)
        dh = dh_seq[:, t] + dh_rec
        do = dh * tcs[:, t]
        dc = dh * go * (1.0 - tcs[:, t] ** 2) + dc_rec
        di = dc * gg
        dg = dc * gi
        df = dc * c_prev
        dc_rec = dc * gf
        dz = dz_seq[:, t]
        dz[:, :hidden] = di * gi * (1.0 - gi)
        dz[:, hidden : 2 * hidden] = df * gf * (1.0 - gf)
        dz[:, 2 * hidden : 3 * hidden] = dg * (1.0 - gg**2)
        dz[:, 3 * hidden :] = do * go * (1.0 - go)
        dh_rec = dz @ r
    h_prev = np.concatenate([np.zeros((batch, 1, hidden), dtype=cache.h.dtype), cache.h[:, :-1]], axis=1)
    flat_dz = dz_seq.reshape(-1, 4 * hidden)
    grad_w = flat_dz.T @ cache.x.reshape(-1, cache.x.shape[2])
    grad_r = flat_dz.T @ h_prev.reshape(-1, hidden)
    grad_b = flat_dz.sum(axis=0)
    dx = dz_seq @ w
    return dx, grad_w, grad_r, grad_b


def _reversal_index(lengths: np.ndarray, t_max: int) -> np.ndarray:
    """Per-row frame permutation reversing the valid prefix, fixing the padding."""
    idx = np.tile(np.arange(t_max), (len(lengths), 1))
    for i, n in enumerate(lengths):
        idx[i, :n] = np.arange(n - 1, -1, -1)
    return idx


def _gather_frames(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return x[np.arange(x.shape[0])[:, None], idx]


@dataclass
class ForwardCache:
    config: ModelConfig
    lengths: np.ndarray
    rev_idx: np.ndarray
    layer_inputs: list[np.ndarray]
    directions: list[tuple[_DirectionCache, _DirectionCache]]
    dropout_masks: list[np.ndarray | None]
    concat_top: np.ndarray
    proj_h: np.ndarray | None


def model_forward(
    features: np.ndarray,
    lengths: Sequence[int],
    model: Model,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    want_cache: bool = False,
):
    """Run the stack over a padded batch; returns per-utterance logit lattices.

    Frames at or beyond an utterance's true length never influence its
    lattice. With ``train_mode`` set, inter-layer dropout masks are drawn
    from ``rng`` and retained in the cache for the backward pass.
    """
    config = model.config
    x = np.asarray(features, dtype=np.dtype(config.dtype))
    if x.ndim != 3 or x.shape[2] != config.input_dim:
        raise BadShape(f"expected B x T x {config.input_dim} features, got {x.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) != x.shape[0] or np.any(lengths < 1) or np.any(lengths > x.shape[1]):
        raise BadShape("lengths must match the batch and lie in [1, T_max]")
    use_dropout = train_mode and config.dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode dropout needs an rng")

    rev_idx = _reversal_index(lengths, x.shape[1])
    layer_inputs: list[np.ndarray] = []
    directions: list[tuple[_DirectionCache, _DirectionCache]] = []
    masks: list[np.ndarray | None] = []
    current = x
    for layer in range(config.num_layers):
        layer_inputs.append(current)
        fwd = _run_lstm(
            current,
            model.params[f"layers.{layer}.fwd.W"],
            model.params[f"layers.{layer}.fwd.R"],
            model.params[f"layers.{layer}.fwd.b"],
        )
        bwd = _run_lstm(
            _gather_frames(current, rev_idx),
            model.params[f"layers.{layer}.bwd.W"],
            model.params[f"layers.{layer}.bwd.R"],
            model.params[f"layers.{layer}.bwd.b"],
        )
        directions.append((fwd, bwd))
        current = np.concatenate([fwd.h, _gather_frames(bwd.h, rev_idx)], axis=2)
        if layer < config.num_layers - 1:
            if use_dropout:
                keep = rng.random(current.shape) >= config.dropout_rate
                mask = keep.astype(current.dtype) / (1.0 - config.dropout_rate)
                current = current * mask
                masks.append(mask)
            else:
                masks.append(None)

    proj_h = None
    if config.projection_dim:
        proj_h = current @ model.params["proj.W"].T
        logits = proj_h @ model.params["out.W"].T
    else:
        logits = current @ model.params["out.W"].T

    lattices = [
        PosteriorLattice(np.asarray(logits[i, : lengths[i]], dtype=np.float64), LOGITS)
        for i in range(x.shape[0])
    ]
    if not want_cache:
        return lattices, None
    cache = ForwardCache(
        config=config,
        lengths=lengths,
        rev_idx=rev_idx,
        layer_inputs=layer_inputs,
        directions=directions,
        dropout_masks=masks,
        concat_top=current,
        proj_h=proj_h,
    )
    return lattices, cache


def model_backward(upstream: Sequence[np.ndarray], cache: ForwardCache | None, model: Model) -> dict[str, np.ndarray]:
    """Exact parameter gradients given per-utterance d(loss)/d(logits).

    Deterministic: reuses the dropout masks captured by the forward pass.
    """
    if cache is None:
        raise NoForwardCache("model_backward needs the cache from model_forward(want_cache=True)")
    config = cache.config
    dtype = np.dtype(config.dtype)
    batch = len(cache.lengths)
    t_max = cache.concat_top.shape[1]
    v = config.output_dim
    if len(upstream) != batch:
        raise BadShape("one upstream gradient per utterance is required")
    dlogits = np.zeros((batch, t_max, v), dtype=dtype)
    for i, g in enumerate(upstream):
        g = np.asarray(g, dtype=dtype)
        if g.shape != (int(cache.lengths[i]), v):
            raise BadShape(f"utterance {i}: upstream grad must be {int(cache.lengths[i])} x {v}, got {g.shape}")
        dlogits[i, : cache.lengths[i]] = g

    grads: dict[str, np.ndarray] = {}
    hidden = config.hidden_per_direction
    if config.projection_dim:
        grads["out.W"] = dlogits.reshape(-1, v).T @ cache.proj_h.reshape(-1, config.projection_dim)
        dproj = dlogits @ model.params["out.W"]
        grads["proj.W"] = dproj.reshape(-1, config.projection_dim).T @ cache.concat_top.reshape(-1, config.concat_dim)
        dcurrent = dproj @ model.params["proj.W"]
    else:
        grads["out.W"] = dlogits.reshape(-1, v).T @ cache.concat_top.reshape(-1, config.concat_dim)
        dcurrent = dlogits @ model.params["out.W"]

    for layer in range(config.num_layers - 1, -1, -1):
        if layer < config.num_layers - 1 and cache.dropout_masks[layer] is not None:
            dcurrent = dcurrent * cache.dropout_masks[layer]
        fwd, bwd = cache.directions[layer]
        dh_fwd = dcurrent[:, :, :hidden]
        dh_bwd = _gather_frames(dcurrent[:, :, hidden:], cache.rev_idx)
        dx_f, gw, gr, gb = _lstm_backward(fwd, np.ascontiguousarray(dh_fwd), model.params[f"layers.{layer}.fwd.W"], model.params[f"layers.{layer}.fwd.R"])
        grads[f"layers.{layer}.fwd.W"] = gw
        grads[f"layers.{layer}.fwd.R"] = gr
        grads[f"layers.{layer}.fwd.b"] = gb
        dx_b, gw, gr, gb = _lstm_backward(bwd, np.ascontiguousarray(dh_bwd), model.params[f"layers.{layer}.bwd.W"], model.params[f"layers.{layer}.bwd.R"])
        grads[f"layers.{layer}.bwd.W"] = gw
        grads[f"layers.{layer}.bwd.R"] = gr
        grads[f"layers.{layer}.bwd.b"] = gb
        dcurrent = dx_f + _gather_frames(dx_b, cache.rev_idx)
    return grads


@dataclass(frozen=True)
class WarmStartReport:
    copied: tuple[str, ...]
    skipped: tuple[tuple[str, str], ...]  # (name, reason)

    def __str__(self) -> str:
        lines = [f"copied {len(self.copied)} tensors, skipped {len(self.skipped)}"]
        lines.extend(f"  = {name}" for name in self.copied)
        lines.extend(f"  ! {name}: {reason}" for name, reason in self.skipped)
        return "\n".join(lines)


def warm_start(model: Model, source_tensors: dict[str, np.ndarray]) -> WarmStartReport:
    """Copy every tensor whose name and shape match; report the rest.

    ``source_tensors`` uses the model's own parameter names (a checkpoint's
    ``model.`` prefix already stripped). An output layer with a different
    vocabulary size is skipped naturally by the shape rule.
    """
    copied, skipped = [], []
    for name, param in model.params.items():
        if name not in source_tensors:
            skipped.append((name, "missing from source"))
            continue
        src = source_tensors[name]
        if tuple(src.shape) != tuple(param.shape):
            skipped.append((name, f"shape {tuple(src.shape)} != {tuple(param.shape)}"))
            continue
        model.params[name] = np.asarray(src, dtype=param.dtype).copy()
        copied.append(name)
    return WarmStartReport(copied=tuple(copied), skipped=tuple(skipped))
