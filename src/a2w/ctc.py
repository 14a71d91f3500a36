"""CTC loss over a per-frame posterior lattice.

The loss of a target sequence is the negative log of the summed probability
of every frame-level path that collapses to it (remove adjacent repeats,
then blanks). One log-domain recursion over the blank-interleaved target,
stepped over the lattice and over its time- and state-reversal in one time
loop, gives alpha (hence the loss) and beta (Graves et al. 2006); they give
per-frame label occupancies and the exact gradient w.r.t. the logits. Each
call takes one log-softmax, whose exponent becomes the gradient buffer. The
arithmetic is float64 whatever the lattice's dtype, so a float32 lattice can
be a view of the network's logits. The test suite's path-enumeration,
finite-difference and two-loop reference oracles (tests/oracles.py) check it.
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
    float64. Validation and ``log_probs`` work in float64.
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
            v = v.astype(np.float64, copy=False)
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

    def log_probs(self) -> np.ndarray:
        """Row-normalized float64 log-probabilities; zeros map to -inf."""
        v = self.values.astype(np.float64, copy=False)
        if self.kind == LOGITS:
            return log_softmax(v)
        with np.errstate(divide="ignore"):
            return np.log(v)


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


def forward_backward(lattice: PosteriorLattice, y: Sequence[int]):
    """Log-domain alpha/beta over the expanded target, in one sweep.

    Beta is alpha's recursion over the lattice reversed in time and state, so
    one time loop steps both directions (0: the lattice, 1: its reversal); a
    sweep row holds the log mass entering a frame, before its emission.

    Returns (log_alpha, log_beta, log_total, ext, log_probs) where beta
    excludes the emission at its own frame, so sum_s alpha[t, s] * beta[t, s]
    equals the total path probability at every t, and log_probs is the
    lattice's T x K row-normalized log-probabilities.
    """
    ext = np.asarray(expand_target(y), dtype=np.int64)
    t_frames = lattice.num_frames
    if t_frames < min_frames_for(y):
        raise InfeasibleAlignment(
            f"target of length {len(list(y))} needs at least {min_frames_for(y)} frames, lattice has {t_frames}"
        )
    log_probs = lattice.log_probs()
    lp = log_probs[:, ext]  # T x S
    emit = np.stack([lp, lp[::-1, ::-1]], axis=1)  # T x 2 x S
    states = np.stack([ext, ext[::-1]])
    # 0 where s-2 -> s is legal, else -inf, which logaddexp(a, -inf) == a ignores exactly
    skip = np.where((states[:, 2:] != BLANK_ID) & (states[:, 2:] != states[:, :-2]), 0.0, NEG_INF)

    sweep = np.full(emit.shape, NEG_INF)
    sweep[0, :, :2] = 0.0
    prev, jump = np.empty(emit.shape[1:]), np.empty(skip.shape)
    for t in range(1, t_frames):
        np.add(sweep[t - 1], emit[t - 1], out=prev)
        sweep[t, :, 0] = prev[:, 0]
        np.logaddexp(prev[:, 1:], prev[:, :-1], out=sweep[t, :, 1:])
        np.add(prev[:, :-2], skip, out=jump)
        np.logaddexp(sweep[t, :, 2:], jump, out=sweep[t, :, 2:])

    log_alpha = sweep[:, 0] + emit[:, 0]
    log_total = float(np.logaddexp.reduce(log_alpha[-1, -2:]))
    return log_alpha, sweep[::-1, 1, ::-1], log_total, ext, log_probs


def ctc_loss(lattice: PosteriorLattice, y: Sequence[int]) -> CtcResult:
    """Negative log path-sum probability and its gradient w.r.t. the logits.

    For probability-kind lattices the rows are treated as an already
    normalized softmax, so the returned gradient is still the logit-side
    one (rows sum to zero); the posterior-side gradient follows from the
    softmax chain rule.
    """
    log_alpha, log_beta, log_total, ext, grad = forward_backward(lattice, y)
    if not np.isfinite(log_total):
        # structurally feasible but zero-probability: loss is +inf, keep it
        return CtcResult(log_loss=math.inf, grad=np.full(lattice.values.shape, np.nan))

    # each state's share of the total is <= 1; the clamp only removes
    # positive float cancellation residue under extreme logits
    occupancy = np.exp(np.minimum(log_alpha + log_beta - log_total, 0.0))  # T x S
    gamma = np.zeros(lattice.values.shape)
    np.add.at(gamma, (slice(None), ext), occupancy)  # in state order, as a loop over s
    np.exp(grad, out=grad)  # the log-probabilities become the posteriors in place
    grad -= gamma
    return CtcResult(log_loss=-log_total, grad=grad)
