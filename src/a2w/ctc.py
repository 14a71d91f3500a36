"""CTC loss over a per-frame posterior lattice.

The loss of a target sequence is the negative log of the summed probability
of every frame-level path that collapses to it (remove adjacent repeats,
then blanks). A log-domain forward recursion over the blank-interleaved
target computes the loss; the backward recursion yields per-frame label
occupancies and from them the exact gradient with respect to the logits.
The arithmetic is float64 whatever the lattice's dtype, so a float32
lattice can be a view of the network's logits. The test suite's
path-enumeration and finite-difference oracles (tests/oracles.py) check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .alphabet import BLANK_ID

PROBABILITIES = "probabilities"
LOGITS = "logits"

NEG_INF = float("-inf")

ROW_SUM_TOL = 1e-9


class BlankInTarget(ValueError):
    """Raised when a target sequence contains the blank label."""


class InfeasibleAlignment(ValueError):
    """Raised when no frame-level path can produce the target."""


@dataclass(frozen=True)
class PosteriorLattice:
    """T x K matrix of per-frame label scores; column 0 is the blank.

    float32 values are kept as given (no copy); any other input becomes
    float64. Validation, ``log_probs`` and ``probs`` work in float64.
    """

    values: np.ndarray
    kind: Literal["probabilities", "logits"]

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype != np.float32:
            v = v.astype(np.float64, copy=False)
        object.__setattr__(self, "values", v)
        if v.ndim != 2:
            raise ValueError(f"lattice must be 2-d, got shape {v.shape}")
        t, k = v.shape
        if t < 1 or k < 2:
            raise ValueError(f"lattice needs T >= 1 and K >= 2, got {v.shape}")
        if self.kind == PROBABILITIES:
            v = self._values64()
            if np.any(v < 0) or np.any(v > 1):
                raise ValueError("probability entries must lie in [0, 1]")
            if np.max(np.abs(v.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
                raise ValueError("probability rows must sum to 1")
        elif self.kind == LOGITS:
            if not np.all(np.isfinite(v)):
                raise ValueError("logits must be finite")
        else:
            raise ValueError(f"unknown lattice kind {self.kind!r}")

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def num_labels(self) -> int:
        return self.values.shape[1]

    def _values64(self) -> np.ndarray:
        return self.values.astype(np.float64, copy=False)

    def log_probs(self) -> np.ndarray:
        """Row-normalized log-probabilities; zeros map to -inf."""
        if self.kind == LOGITS:
            return log_softmax(self._values64())
        with np.errstate(divide="ignore"):
            return np.log(self._values64())

    def probs(self) -> np.ndarray:
        if self.kind == PROBABILITIES:
            return self._values64()
        return np.exp(log_softmax(self._values64()))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def expand_target(y: Sequence[int]) -> tuple[int, ...]:
    """Interleave blanks around and between the target labels (length 2L+1):
    blanks at even positions, labels at odd."""
    y = list(y)
    if BLANK_ID in y:
        raise BlankInTarget("target sequences must not contain the blank label")
    out = [BLANK_ID] * (2 * len(y) + 1)
    out[1::2] = y
    return tuple(out)


def min_frames_for(y: Sequence[int]) -> int:
    """Shortest T admitting a valid path: L plus one per adjacent repeat."""
    reps = sum(1 for a, b in zip(y, y[1:]) if a == b)
    return len(y) + reps


@dataclass(frozen=True)
class CtcResult:
    log_loss: float
    grad: np.ndarray  # T x K, d(-log p)/d logit


def _skip_allowed(ext: np.ndarray) -> np.ndarray:
    """allow[s]: the s-2 -> s transition is legal (label differs, non-blank)."""
    allow = np.zeros(len(ext), dtype=bool)
    allow[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    return allow


def forward_backward(lattice: PosteriorLattice, y: Sequence[int]):
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


def ctc_loss(lattice: PosteriorLattice, y: Sequence[int]) -> CtcResult:
    """Negative log path-sum probability and its gradient w.r.t. the logits.

    For probability-kind lattices the rows are treated as an already
    normalized softmax, so the returned gradient is still the logit-side
    one (rows sum to zero); the posterior-side gradient follows from the
    softmax chain rule.
    """
    log_alpha, log_beta, log_total, ext = forward_backward(lattice, y)
    if not np.isfinite(log_total):
        # structurally feasible but zero-probability: loss is +inf, keep it
        return CtcResult(log_loss=math.inf, grad=np.full(lattice.values.shape, np.nan))

    # each state's share of the total is <= 1; the clamp only removes
    # positive float cancellation residue under extreme logits
    occupancy = np.exp(np.minimum(log_alpha + log_beta - log_total, 0.0))  # T x S
    gamma = np.zeros(lattice.values.shape)
    for s, label in enumerate(ext):
        gamma[:, label] += occupancy[:, s]
    grad = lattice.probs() - gamma
    return CtcResult(log_loss=-log_total, grad=grad)
