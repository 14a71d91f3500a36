"""Independent reference implementations used only by the test suite."""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from a2w.alphabet import BLANK_ID
from a2w.ctc import (
    LOGITS,
    NEG_INF,
    CtcResult,
    InfeasibleAlignment,
    PosteriorLattice,
    ctc_loss,
    expand_target,
    min_frames_for,
)

ORACLE_MAX_T = 10
ORACLE_MAX_K = 6
_ORACLE_CHUNK = 1 << 20


class OracleTooLarge(ValueError):
    """Raised when brute-force enumeration would exceed the size cap."""


# -- CTC path enumeration and finite differences ----------------------------


def lattice_probs(lattice: PosteriorLattice) -> np.ndarray:
    """The lattice's rows as float64 probabilities: a softmax of logits, or
    the probability rows as given."""
    if lattice.kind == LOGITS:
        return np.exp(lattice.log_probs())
    return lattice.values.astype(np.float64, copy=False)


def ctc_brute_force(lattice: PosteriorLattice, y: Sequence[int]) -> float:
    """Log-probability by enumerating every one of the K^T frame paths.

    Keeps the paths whose collapse equals ``y`` and sums their linear-domain
    probabilities with compensated summation. Returns -inf when no path
    exists. Independent of the forward-backward recursion by construction.
    """
    t_frames, k_labels = lattice.values.shape
    if t_frames > ORACLE_MAX_T or k_labels > ORACLE_MAX_K:
        raise OracleTooLarge(
            f"enumeration capped at T <= {ORACLE_MAX_T}, K <= {ORACLE_MAX_K}; got T={t_frames}, K={k_labels}"
        )
    y = np.asarray(list(y), dtype=np.int64)
    probs = lattice_probs(lattice)
    n_paths = k_labels**t_frames
    partial_sums: list[np.ndarray] = []
    for start in range(0, n_paths, _ORACLE_CHUNK):
        idx = np.arange(start, min(start + _ORACLE_CHUNK, n_paths), dtype=np.int64)
        paths = np.empty((len(idx), t_frames), dtype=np.int64)
        rem = idx
        for t in range(t_frames - 1, -1, -1):
            paths[:, t] = rem % k_labels
            rem = rem // k_labels
        keep = np.ones(paths.shape, dtype=bool)
        keep[:, 1:] = paths[:, 1:] != paths[:, :-1]
        keep &= paths != BLANK_ID
        ok = keep.sum(axis=1) == len(y)
        pos = np.cumsum(keep, axis=1) - 1
        for j, label in enumerate(y):
            ok &= (keep & (pos == j) & (paths == label)).any(axis=1)
        if not ok.any():
            continue
        chosen = paths[ok]
        path_probs = np.ones(len(chosen))
        for t in range(t_frames):
            path_probs *= probs[t, chosen[:, t]]
        partial_sums.append(path_probs)
    if not partial_sums:
        return NEG_INF
    total = math.fsum(np.concatenate(partial_sums))
    return math.log(total) if total > 0.0 else NEG_INF


def ctc_grad_check(lattice: PosteriorLattice, y: Sequence[int], step: float = 1e-5) -> float:
    """Max relative error of the analytic gradient against central differences.

    Relative error per entry is |analytic - numeric| / max(1, |analytic|).
    """
    if lattice.kind != LOGITS:
        raise ValueError("gradient check requires a logits-kind lattice")
    analytic = ctc_loss(lattice, y).grad
    worst = 0.0
    base = lattice.values
    for t in range(lattice.num_frames):
        for k in range(lattice.num_labels):
            bumped = base.copy()
            bumped[t, k] += step
            hi = ctc_loss(PosteriorLattice(bumped, LOGITS), y).log_loss
            bumped[t, k] -= 2 * step
            lo = ctc_loss(PosteriorLattice(bumped, LOGITS), y).log_loss
            numeric = (hi - lo) / (2 * step)
            err = abs(analytic[t, k] - numeric) / max(1.0, abs(analytic[t, k]))
            worst = max(worst, err)
    return worst


# -- two-loop CTC reference ---------------------------------------------------
# The alpha and beta recursions a2w.ctc fused into one sweep, and the loss
# that read the posteriors from a second softmax and scattered the
# occupancies one state at a time. Kept verbatim as the equivalence oracle,
# with ``lattice_probs`` standing in for the deleted ``PosteriorLattice.probs``.


def _skip_allowed(ext: np.ndarray) -> np.ndarray:
    """allow[s]: the s-2 -> s transition is legal (label differs, non-blank)."""
    allow = np.zeros(len(ext), dtype=bool)
    allow[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    return allow


def reference_forward_backward(lattice: PosteriorLattice, y: Sequence[int]):
    """Log-domain alpha/beta over the expanded target.

    Returns (log_alpha, log_beta, log_total, ext) where beta excludes the
    emission at its own frame, so sum_s alpha[t, s] * beta[t, s] equals the
    total path probability at every t.
    """
    ext = np.asarray(expand_target(y), dtype=np.int64)
    t_frames = lattice.num_frames
    if t_frames < min_frames_for(y):
        raise InfeasibleAlignment(
            f"target of length {len(list(y))} needs at least {min_frames_for(y)} frames, lattice has {t_frames}"
        )
    lp_full = lattice.log_probs()
    lp = lp_full[:, ext]  # T x S
    s_len = len(ext)
    allow = _skip_allowed(ext)

    log_alpha = np.full((t_frames, s_len), NEG_INF)
    log_alpha[0, 0] = lp[0, 0]
    if s_len > 1:
        log_alpha[0, 1] = lp[0, 1]
    for t in range(1, t_frames):
        prev = log_alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        acc[2:] = np.where(allow[2:], np.logaddexp(acc[2:], prev[:-2]), acc[2:])
        log_alpha[t] = acc + lp[t]

    tail = log_alpha[t_frames - 1, s_len - 1]
    if s_len > 1:
        tail = np.logaddexp(tail, log_alpha[t_frames - 1, s_len - 2])
    log_total = float(tail)

    log_beta = np.full((t_frames, s_len), NEG_INF)
    log_beta[t_frames - 1, s_len - 1] = 0.0
    if s_len > 1:
        log_beta[t_frames - 1, s_len - 2] = 0.0
    for t in range(t_frames - 2, -1, -1):
        nxt = log_beta[t + 1] + lp[t + 1]
        acc = nxt.copy()
        acc[:-1] = np.logaddexp(acc[:-1], nxt[1:])
        acc[:-2] = np.where(allow[2:], np.logaddexp(acc[:-2], nxt[2:]), acc[:-2])
        log_beta[t] = acc

    return log_alpha, log_beta, log_total, ext


def reference_ctc_loss(lattice: PosteriorLattice, y: Sequence[int]) -> CtcResult:
    """Negative log path-sum probability and its gradient w.r.t. the logits.

    For probability-kind lattices the rows are treated as an already
    normalized softmax, so the returned gradient is still the logit-side
    one (rows sum to zero); the posterior-side gradient follows from the
    softmax chain rule.
    """
    log_alpha, log_beta, log_total, ext = reference_forward_backward(lattice, y)
    if not np.isfinite(log_total):
        # structurally feasible but zero-probability: loss is +inf, keep it
        return CtcResult(log_loss=math.inf, grad=np.full(lattice.values.shape, np.nan))

    # each state's share of the total is <= 1; the clamp only removes
    # positive float cancellation residue under extreme logits
    occupancy = np.exp(np.minimum(log_alpha + log_beta - log_total, 0.0))  # T x S
    gamma = np.zeros(lattice.values.shape)
    for s, label in enumerate(ext):
        gamma[:, label] += occupancy[:, s]
    grad = lattice_probs(lattice) - gamma
    return CtcResult(log_loss=-log_total, grad=grad)


# -- exhaustive WER ---------------------------------------------------------


def brute_force_min_edits(ref, hyp):
    """Minimum S+I+D over every monotone alignment, by direct enumeration.

    The count depends only on which tokens are equal, so the enumeration
    runs once per pattern: both sides are renamed to the order in which
    their tokens first occur (ref then hyp) and the result is cached.
    """
    first_seen = {}
    for token in (*ref, *hyp):
        first_seen.setdefault(token, len(first_seen))
    return enumerate_min_edits(tuple(first_seen[t] for t in ref), tuple(first_seen[t] for t in hyp))


@functools.cache
def enumerate_min_edits(ref, hyp):
    """Minimum S+I+D of two token tuples, enumerating every alignment.

    An alignment pairs ref positions with hyp positions, strictly increasing
    on both sides (combinations zipped in order); paired-unequal tokens are
    substitutions, unpaired ref tokens deletions, unpaired hyp tokens
    insertions. Independent of the DP being checked.
    """
    best = len(ref) + len(hyp)
    m, n = len(ref), len(hyp)
    for k in range(min(m, n) + 1):
        for ref_idx in itertools.combinations(range(m), k):
            for hyp_idx in itertools.combinations(range(n), k):
                subs = sum(ref[i] != hyp[j] for i, j in zip(ref_idx, hyp_idx))
                best = min(best, subs + (m - k) + (n - k))
    return best


# -- per-direction BLSTM reference ------------------------------------------
# The time loop a2w.network fused: one direction per call, one sigmoid per
# gate, batch-major buffers. Kept verbatim as the equivalence oracle.


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



def reference_forward(features, lengths, model, rng=None):
    """Logits (B x T x V) and the per-layer state the reference backward needs.

    With ``rng`` given, dropout masks are drawn exactly as ``model_forward``
    draws them in train mode.
    """
    config = model.config
    x = np.asarray(features, dtype=np.dtype(config.dtype))
    lengths = np.asarray(lengths, dtype=np.int64)
    rev_idx = _reversal_index(lengths, x.shape[1])
    directions, masks = [], []
    current = x
    for layer in range(config.num_layers):
        w, r, b = (model.params[f"layers.{layer}.{kind}"] for kind in "WRb")
        fwd = _run_lstm(current, w[0], r[0], b[0])
        bwd = _run_lstm(_gather_frames(current, rev_idx), w[1], r[1], b[1])
        directions.append((fwd, bwd))
        current = np.concatenate([fwd.h, _gather_frames(bwd.h, rev_idx)], axis=2)
        if layer < config.num_layers - 1:
            if rng is not None and config.dropout_rate > 0.0:
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
    state = dict(lengths=lengths, rev_idx=rev_idx, directions=directions, masks=masks, concat_top=current, proj_h=proj_h)
    return logits, state


def reference_backward(dlogits, state, model):
    """Parameter gradients from d(loss)/d(logits) (B x T x V, zero on padding)."""
    config = model.config
    grads = {}
    hidden = config.hidden_per_direction
    v = config.output_dim
    if config.projection_dim:
        grads["out.W"] = dlogits.reshape(-1, v).T @ state["proj_h"].reshape(-1, config.projection_dim)
        dproj = dlogits @ model.params["out.W"]
        grads["proj.W"] = dproj.reshape(-1, config.projection_dim).T @ state["concat_top"].reshape(-1, config.concat_dim)
        dcurrent = dproj @ model.params["proj.W"]
    else:
        grads["out.W"] = dlogits.reshape(-1, v).T @ state["concat_top"].reshape(-1, config.concat_dim)
        dcurrent = dlogits @ model.params["out.W"]

    rev_idx = state["rev_idx"]
    for layer in range(config.num_layers - 1, -1, -1):
        if layer < config.num_layers - 1 and state["masks"][layer] is not None:
            dcurrent = dcurrent * state["masks"][layer]
        fwd, bwd = state["directions"][layer]
        dh_fwd = dcurrent[:, :, :hidden]
        dh_bwd = _gather_frames(dcurrent[:, :, hidden:], rev_idx)
        w, r = model.params[f"layers.{layer}.W"], model.params[f"layers.{layer}.R"]
        dx_f, *grads_f = _lstm_backward(fwd, np.ascontiguousarray(dh_fwd), w[0], r[0])
        dx_b, *grads_b = _lstm_backward(bwd, np.ascontiguousarray(dh_bwd), w[1], r[1])
        for kind, g_f, g_b in zip("WRb", grads_f, grads_b):
            grads[f"layers.{layer}.{kind}"] = np.stack([g_f, g_b])
        dcurrent = dx_f + _gather_frames(dx_b, rev_idx)
    return grads
