"""From-scratch bidirectional LSTM stack with exact backpropagation.

Layers run a forward-direction LSTM over each utterance's true frames and a
second LSTM over the reversed frames, concatenating the two hidden streams.
Inverted dropout sits between stacked layers only. The output side is a
linear bottleneck (D -> d -> V) when a projection dimension is configured,
otherwise a single D -> V matrix; neither carries a bias, so the factored
parameter count is exactly V*d + d*D.

Gate order is input/forget/cell/output with sigmoid/sigmoid/tanh/sigmoid;
the forget-gate bias starts at 1.0, all other biases at 0.

Both directions of a layer run in one time loop, and a layer stores its W,
R and b as the loop uses them: fwd and bwd stacked on axis 0 (index 0 and
1; ``param_shapes`` spells the layout). Every buffer is time-major,
2 x T x B x features, with the bwd direction stored in its own (reversed)
time order, so step t is one slice for both. One row gather reverses a
layer's input for the bwd direction; one GEMM per layer writes x @ W.T + b
for every frame into the gate buffer, and each step adds h @ R.T for both
directions with one stacked matmul. The nonlinearity is one tanh over the
whole 4H gate block, using sigmoid(z) = (1 + tanh(z/2)) / 2, so nothing
can overflow. The backward pass mirrors this: one reverse time loop for
both directions, dL/dz written over the gate buffer, then one stacked
GEMM each for the W, R and input gradients.

Memory: a training step holds each large array once. A forward given an
rng is a training forward: it draws the dropout masks from that rng and
returns a cache holding the model it ran, each layer's input, gates, cell
and hidden states (tanh(c) is recomputed by backward, keep-masks are bool)
and the one T x B x V logits buffer, of which the lattices are views. The
caller writes each utterance's d(loss)/d(logits) into ``cache.slot(i)``;
``model_backward(cache)`` zeroes the padded frames, uses the buffer as
dL/dlogits and frees it after the output layer, so the forward's lattices
are invalid after it. A forward without an rng keeps no cache: it lets
go of the features once layer 0's input is built, of a layer's input once
its GEMM has filled the gate buffer, of the gates after the time loop
(which writes only h per step) and of each head input once its product is
made. ``decoder.forward_batches`` forwards k consecutive batches of B as
one batch of kB rows while a step's gate block, 2 x kB x 4H elements,
stays within 4,096 (``decoder.STEP_GATES``), and reads a group's lattices
before the next group's forward. So a pass holds one T x kB x V logits
buffer (122 MB at V = 10k, B = 16, T = 100) and at most 4,096 x T gate
elements per layer.
"""

from __future__ import annotations

import math
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
    """The network shape. The run config's rule table checks each field's
    own value; this checks only the dims and the cross-field bound."""

    input_dim: int
    output_dim: int
    num_layers: int = 6
    hidden_per_direction: int = 512
    projection_dim: int = 256  # 0 disables the bottleneck
    dropout_rate: float = 0.25
    init_scheme: str = "uniform-fan-in"
    dtype: str = "float64"

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 2:
            dims = f"input_dim={self.input_dim}, output_dim={self.output_dim}"
            raise BadShape(f"{dims}: input_dim must be positive and output_dim >= 2 (it includes the blank)")
        if self.projection_dim and self.projection_dim >= self.concat_dim:
            raise BadShape(f"projection={self.projection_dim}: must be < 2*hidden = {self.concat_dim}")

    @property
    def concat_dim(self) -> int:
        return 2 * self.hidden_per_direction

    def layer_input_dim(self, layer: int) -> int:
        return self.input_dim if layer == 0 else self.concat_dim


def init_gain(scheme: str) -> float:
    """Multiplier on the recurrent-stack init range of an init scheme.

    "uniform-fan-in" keeps the plain 1/sqrt(fan-in) range everywhere.
    "uniform-fan-in-gain:G" widens the LSTM W/R ranges by G; a cold
    stack loses roughly half its activation scale per layer at G=1,
    so deep desk-scale models that start cold need G around 3 to keep
    signal flowing. Any other string, or a G that is not finite and
    positive, raises ValueError.
    """
    if scheme == "uniform-fan-in":
        return 1.0
    name, _, text = scheme.partition(":")
    gain = float(text) if name == "uniform-fan-in-gain" else math.nan
    if not 0 < gain < math.inf:
        raise ValueError(f"unknown init scheme {scheme!r}")
    return gain


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


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the model's order: per layer W,
    R and b with fwd (index 0) and bwd (index 1) stacked on axis 0, then
    ``proj.W`` when there is a projection, then ``out.W``."""
    hidden = config.hidden_per_direction
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(config.num_layers):
        shapes[f"layers.{layer}.W"] = (2, 4 * hidden, config.layer_input_dim(layer))
        shapes[f"layers.{layer}.R"] = (2, 4 * hidden, hidden)
        shapes[f"layers.{layer}.b"] = (2, 4 * hidden)
    if config.projection_dim:
        shapes["proj.W"] = (config.projection_dim, config.concat_dim)
    shapes["out.W"] = (config.output_dim, config.projection_dim or config.concat_dim)
    return shapes


def _head(config: ModelConfig) -> tuple[str, ...]:
    """The output matrices, in the order they map the top layer's output to logits."""
    return ("proj.W", "out.W") if config.projection_dim else ("out.W",)


def init_model(config: ModelConfig, rng: np.random.Generator) -> Model:
    """Fan-in uniform weights, drawn per layer as fwd W, fwd R, bwd W, bwd R,
    then proj.W and out.W; the forget-gate biases are 1, the others 0."""
    dtype = np.dtype(config.dtype)
    hidden = config.hidden_per_direction
    gain = init_gain(config.init_scheme)
    params = {name: np.zeros(shape, dtype=dtype) for name, shape in param_shapes(config).items()}
    for layer in range(config.num_layers):
        w, r = params[f"layers.{layer}.W"], params[f"layers.{layer}.R"]
        for d in range(2):
            w[d] = gain * init_uniform_fan_in(w.shape[1:], rng)
            r[d] = gain * init_uniform_fan_in(r.shape[1:], rng)
        params[f"layers.{layer}.b"][:, hidden : 2 * hidden] = 1.0  # forget gate opens at init
    for name in _head(config):
        params[name][...] = init_uniform_fan_in(params[name].shape, rng)
    return Model(config=config, params=params)


def _gate_affine(hidden: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Per-column (scale, shift) that make one tanh every gate nonlinearity.

    A gate is ``shift + scale * tanh(scale * z)``: scale and shift 1/2 give
    ``sigmoid(z) = (1 + tanh(z/2)) / 2`` on the i, f and o blocks, scale 1
    and shift 0 give tanh on the cell block. tanh saturates instead of
    overflowing, so no floating-point warning needs silencing.
    """
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    shift = np.full(4 * hidden, 0.5, dtype=dtype)
    scale[2 * hidden : 3 * hidden] = 1.0
    shift[2 * hidden : 3 * hidden] = 0.0
    return scale, shift


@dataclass
class _LayerCache:
    """Both directions of one layer; axis 0 is the direction, axis 1 its time step."""

    x: np.ndarray      # 2 x T x B x In layer input, in each direction's time order
    gates: np.ndarray  # 2 x T x B x 4H post-nonlinearity [i, f, g, o]
    c: np.ndarray      # 2 x (T+1) x B x H cell states after a zero slot 0
    h: np.ndarray      # 2 x (T+1) x B x H hidden states after a zero slot 0


def _input_gates(x: np.ndarray, w: np.ndarray, b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """One layer's 2 x T x B x 4H gate buffer, ``scale * (x @ W.T + b)`` for
    every frame of both directions (``w`` and ``b`` stack fwd and bwd on
    axis 0): one GEMM per direction over all T x B frames of ``x``."""
    _, t_max, batch, in_dim = x.shape
    # multiplying by 1/2 or 1 is exact, so this yields scale * z bit for bit
    w_t = (w * scale[:, None]).transpose(0, 2, 1)
    gates = np.matmul(x.reshape(2, t_max * batch, in_dim), w_t).reshape(2, t_max, batch, -1)
    gates += (b * scale)[:, None, None]
    return gates


def _blstm_forward(
    gates: np.ndarray, r: np.ndarray, scale: np.ndarray, shift: np.ndarray, want_cache: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run both directions of one layer in a single time loop over the
    2 x T x B x 4H gate buffer that ``_input_gates`` filled.

    ``r`` stacks the fwd and bwd tensors on axis 0, so each step's h @ R.T
    is one stacked matmul, (2, B, H) @ (2, H, 4H). The step works on
    contiguous 2 x B x ... blocks (at desk sizes a numpy call on one costs
    about a third of the same call on strided slices of the cache),
    allocates nothing, and copies its hidden state into ``h``. With
    ``want_cache`` it also writes the gates back over the buffer and copies
    the cell state (tanh(c) is recomputed by backward). Returns ``h`` and
    ``c``, each 2 x (T+1) x B x H after a zero slot 0; ``c`` is None
    without ``want_cache``.
    """
    _, t_max, batch, gate_dim = gates.shape
    hidden = gate_dim // 4
    # multiplying by 1/2 or 1 is exact, so this yields scale * (h @ R.T) bit for bit
    r_t = np.ascontiguousarray((r * scale[:, None]).transpose(0, 2, 1))
    h = np.empty((2, t_max + 1, batch, hidden), dtype=gates.dtype)
    h[:, 0] = 0.0
    c = None
    if want_cache:
        c = np.empty_like(h)
        c[:, 0] = 0.0

    z = np.empty((2, batch, gate_dim), dtype=gates.dtype)
    i, f, g, o = (z[..., n * hidden : (n + 1) * hidden] for n in range(4))
    c_t = np.zeros((2, batch, hidden), dtype=gates.dtype)
    h_t = np.zeros_like(c_t)
    tc = np.empty_like(c_t)
    i_g = np.empty_like(c_t)
    for t in range(t_max):
        np.matmul(h_t, r_t, out=z)
        z += gates[:, t]
        np.tanh(z, out=z)
        z *= scale
        z += shift
        c_t *= f
        np.multiply(i, g, out=i_g)
        c_t += i_g
        np.tanh(c_t, out=tc)
        np.multiply(o, tc, out=h_t)
        h[:, t + 1] = h_t
        if want_cache:
            gates[:, t] = z
            c[:, t + 1] = c_t
    return h, c


def _blstm_backward(cache: _LayerCache, dh: np.ndarray, w: np.ndarray, r: np.ndarray, want_dx: bool):
    """Gradients for both directions of one layer, in one reverse time loop.

    ``dh`` is 2 x T x B x H in each direction's time order and must be zero
    on padded frames. ``cache.gates`` is overwritten and ends up holding
    dL/dz; ``cache.c`` is overwritten with tanh(c) and released. Returns
    stacked (grad_w, grad_r, grad_b) and the 2 x T x B x In input
    gradient, or None when ``want_dx`` is false.
    """
    _, t_max, batch, hidden = dh.shape
    dtype = dh.dtype
    i, f, g, o = (cache.gates[..., k * hidden : (k + 1) * hidden] for k in range(4))
    # The factors that do not depend on the recurrence, for every frame at
    # once, from the stored gate outputs (sigmoid' = a(1-a), tanh' = 1-a^2):
    #   dc_t  = dc_{t+1} f_{t+1} + dh_t * o (1 - tanh(c)^2)
    #   dz_i  = dc_t * g i (1 - i)       dz_f = dc_t * c_{t-1} f (1 - f)
    #   dz_g  = dc_t * i (1 - g^2)       dz_o = dh_t * tanh(c) o (1 - o)
    # Each is formed in place with one scratch buffer, in the operand order
    # of the expressions above, so the values are the same bit for bit.
    scratch = np.empty(dh.shape, dtype=dtype)
    forget = f.copy()
    np.subtract(1.0, f, out=scratch)
    f *= scratch
    f *= cache.c[:, :-1]
    # c_{t-1} is used up, so tanh(c_t) can overwrite the cell states
    tc = np.tanh(cache.c[:, 1:], out=cache.c[:, 1:])
    dc_dh = np.multiply(tc, tc)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    np.subtract(1.0, o, out=scratch)
    o *= scratch
    o *= tc
    np.multiply(g, i, out=scratch)
    np.multiply(g, g, out=g)
    np.subtract(1.0, g, out=g)
    np.multiply(i, g, out=g)
    np.subtract(1.0, i, out=i)
    i *= scratch
    del tc, scratch

    # per step, dz = (those factors) * [dc, dc, dc, dh] over the whole gate block
    dz_step = np.empty((2, batch, 4 * hidden), dtype=dtype)
    factors = np.empty((2, batch, 4, hidden), dtype=dtype)
    dh_t = np.empty((2, batch, hidden), dtype=dtype)
    dh_rec = np.zeros_like(dh_t)
    dc = np.zeros_like(dh_t)
    dc_part = np.empty_like(dh_t)
    for t in range(t_max - 1, -1, -1):
        np.add(dh[:, t], dh_rec, out=dh_t)
        np.multiply(dh_t, dc_dh[:, t], out=dc_part)
        dc += dc_part
        factors[:, :, :3] = dc[:, :, None]
        factors[:, :, 3] = dh_t
        np.multiply(cache.gates[:, t], factors.reshape(dz_step.shape), out=dz_step)
        dc *= forget[:, t]
        np.matmul(dz_step, r, out=dh_rec)
        cache.gates[:, t] = dz_step
    del dc_dh, forget
    cache.c = None

    dz = cache.gates.reshape(2, t_max * batch, 4 * hidden)
    dz_t = dz.transpose(0, 2, 1)
    grad_w = np.matmul(dz_t, cache.x.reshape(2, t_max * batch, -1))
    grad_r = np.matmul(dz_t, cache.h[:, :-1].reshape(2, t_max * batch, hidden))
    grad_b = dz.sum(axis=1)
    dx = np.matmul(dz, w).reshape(2, t_max, batch, -1) if want_dx else None
    return grad_w, grad_r, grad_b, dx


def _reversal_rows(lengths: np.ndarray, t_max: int) -> np.ndarray:
    """Row indices into a T x B frame grid flattened to (T*B) rows that
    reverse each utterance's valid frames in time and fix its padding."""
    t = np.arange(t_max)[:, None]
    batch = len(lengths)
    return (np.where(t < lengths, lengths - 1 - t, t) * batch + np.arange(batch)).ravel()


def _reverse_into(src: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """``out[t, b] = src[n_b - 1 - t, b]`` on utterance b's n_b valid frames and
    ``src[t, b]`` on its padding, for time-major T x B x D arrays."""
    # the rows are always in range; "clip" lets take write into out without buffering it first
    np.take(src.reshape(-1, src.shape[-1]), rows, axis=0, out=out.reshape(-1, out.shape[-1]), mode="clip")


def _concat_into(h: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Write a layer's output, [h_fwd, h_bwd put back in forward time], into T x B x 2H."""
    hidden = h.shape[-1]
    out[..., :hidden] = h[0, 1:]
    _reverse_into(h[1, 1:], rows, out[..., hidden:])


@dataclass
class ForwardCache:
    """What ``model_backward`` needs from one training forward, and consumes:
    the logits buffer becomes dL/dlogits and every buffer is released
    once its layer's gradients are done."""

    model: Model                            # the model the forward ran
    lengths: np.ndarray
    rev_rows: np.ndarray                    # _reversal_rows of the batch
    directions: list[_LayerCache]
    dropout_masks: list[np.ndarray | None]  # B x T x 2H bool keep masks
    head_inputs: list[np.ndarray]           # T x B x in_dim input of each _head matrix, in order
    logits: np.ndarray                      # T x B x V; the lattices are views of it

    def slot(self, i: int) -> np.ndarray:
        """Utterance i's frames of the logits buffer: where its d(loss)/d(logits) goes."""
        return self.logits[: self.lengths[i], i]


def _dropout_scale(config: ModelConfig):
    """1 / (1 - p) in the model dtype: what inverted dropout multiplies kept units by."""
    scalar = np.dtype(config.dtype).type
    return scalar(1.0) / scalar(1.0 - config.dropout_rate)


def model_forward(
    features: np.ndarray,
    lengths: Sequence[int],
    model: Model,
    rng: np.random.Generator | None = None,
):
    """Run the stack over a padded batch; returns (per-utterance logit
    lattices, cache).

    Frames at or beyond an utterance's true length never influence its
    lattice. With an ``rng`` this is a training forward: inter-layer
    dropout masks are drawn from it when the rate is > 0, and the returned
    ``ForwardCache`` keeps what ``model_backward`` needs. Without one the
    cache is None, no cell states are kept, and each buffer is dropped once
    the next is built: a layer's input once its input GEMM has filled the
    gate buffer, and ``features`` once layer 0's input is (a caller that
    keeps no other reference to them lets them go then). The lattices are views
    of one T x B x V logits buffer, which a cache holds and
    ``model_backward`` overwrites.
    """
    config = model.config
    dtype = np.dtype(config.dtype)
    x = np.asarray(features, dtype=dtype)
    if x.ndim != 3 or x.shape[2] != config.input_dim:
        raise BadShape(f"expected B x T x {config.input_dim} features, got {x.shape}")
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(lengths) != x.shape[0] or np.any(lengths < 1) or np.any(lengths > x.shape[1]):
        raise BadShape("lengths must match the batch and lie in [1, T_max]")
    train = rng is not None
    batch, t_max, _ = x.shape
    use_dropout = train and config.dropout_rate > 0.0
    keep_scale = _dropout_scale(config)

    concat = config.concat_dim
    scale, shift = _gate_affine(config.hidden_per_direction, dtype)
    rows = _reversal_rows(lengths, t_max)
    # each layer's input holds both directions' frame orders, time-major
    inputs = np.empty((2, t_max, batch, config.input_dim), dtype=dtype)
    inputs[0] = x.swapaxes(0, 1)
    del features, x  # copied into layer 0's input
    directions: list[_LayerCache] = []
    masks: list[np.ndarray | None] = []
    params = model.params
    for layer in range(config.num_layers):
        _reverse_into(inputs[0], rows, inputs[1])
        prefix = f"layers.{layer}."
        gates = _input_gates(inputs, params[prefix + "W"], params[prefix + "b"], scale)
        if not train:  # the time loop reads only the gate buffer; backward would need the input
            del inputs
        h, c = _blstm_forward(gates, params[prefix + "R"], scale, shift, train)
        if train:
            directions.append(_LayerCache(x=inputs, gates=gates, c=c, h=h))
        del gates, c
        if layer == config.num_layers - 1:
            top = np.empty((t_max, batch, concat), dtype=dtype)
            _concat_into(h, rows, top)
            del h
            break
        inputs = np.empty((2, t_max, batch, concat), dtype=dtype)
        _concat_into(h, rows, inputs[0])
        del h
        keep = None
        if use_dropout:
            keep = rng.random((batch, t_max, concat)) >= config.dropout_rate
            # (x * keep) * s is x times a float mask of 0s and s, bit for bit
            inputs[0] *= keep.swapaxes(0, 1)
            inputs[0] *= keep_scale
        masks.append(keep)

    head_inputs, logits = [], top
    del top
    for name in _head(config):
        if train:  # a no-cache forward lets each head matrix's input go once its product is made
            head_inputs.append(logits)
        logits = logits @ params[name].T

    lattices = [PosteriorLattice(logits[: lengths[i], i], LOGITS) for i in range(batch)]
    if not train:
        return lattices, None
    cache = ForwardCache(
        model=model,
        lengths=lengths,
        rev_rows=rows,
        directions=directions,
        dropout_masks=masks,
        head_inputs=head_inputs,
        logits=logits,
    )
    return lattices, cache


def model_backward(cache: ForwardCache | None) -> dict[str, np.ndarray]:
    """Exact parameter gradients of the cache's model, given each
    utterance's d(loss)/d(logits) written into ``cache.slot(i)``.

    Deterministic: reuses the dropout masks captured by the forward pass.
    Consumes the cache: the logits buffer, with its padded frames zeroed
    here, becomes d(loss)/d(logits), so the forward's lattices are invalid
    afterwards. Each layer's buffers are reused for its gradients and
    released once done, so a cache backs one backward pass only.
    """
    if cache is None:
        raise NoForwardCache("model_backward needs the cache of a model_forward given an rng")
    if cache.head_inputs is None:
        raise NoForwardCache("this forward cache was already consumed by model_backward")
    params = cache.model.params
    config = cache.model.config
    dtype = np.dtype(config.dtype)
    batch = len(cache.lengths)
    dcurrent, inputs = cache.logits, cache.head_inputs
    cache.head_inputs = cache.logits = None
    for i, n in enumerate(cache.lengths):
        dcurrent[n:, i] = 0.0
    t_max = dcurrent.shape[0]

    grads: dict[str, np.ndarray] = {}
    hidden = config.hidden_per_direction
    for name in reversed(_head(config)):
        w, x = params[name], inputs.pop()
        grads[name] = dcurrent.reshape(-1, w.shape[0]).T @ x.reshape(-1, w.shape[1])
        dcurrent = dcurrent @ w
    del x

    keep_scale = _dropout_scale(config)
    for layer in range(config.num_layers - 1, -1, -1):
        if layer < config.num_layers - 1 and cache.dropout_masks[layer] is not None:
            dcurrent *= cache.dropout_masks[layer].swapaxes(0, 1)
            dcurrent *= keep_scale
        dh = np.empty((2, t_max, batch, hidden), dtype=dtype)
        dh[0] = dcurrent[..., :hidden]
        _reverse_into(dcurrent[..., hidden:], cache.rev_rows, dh[1])
        del dcurrent
        layer_cache = cache.directions[layer]
        cache.directions[layer] = None
        prefix = f"layers.{layer}."
        grads[prefix + "W"], grads[prefix + "R"], grads[prefix + "b"], dx = _blstm_backward(
            layer_cache, dh, params[prefix + "W"], params[prefix + "R"], want_dx=layer > 0
        )
        del layer_cache, dh
        if dx is not None:
            dcurrent = dx[0]
            dcurrent += np.take(dx[1].reshape(-1, dx.shape[-1]), cache.rev_rows, axis=0).reshape(dcurrent.shape)
    return grads
