"""Proxy learning: fit per-class weight vectors to pseudo-label distributions.

The objective is the mean KL divergence between the pseudo-labels and the
softmax distribution induced by the weights over image embeddings. Descent
is full-batch gradient descent with momentum; after every step each weight
row is projected back onto the unit sphere so logits stay on the cosine
scale the temperature assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, UsageError
from .numerics import as_matrix, l2_normalize_rows, log_softmax_rows
from .retrieval import TextProxies
from .solvers import PseudoLabels

__all__ = [
    "ProxyWeights",
    "LearnConfig",
    "LearnTrace",
    "loss",
    "gradient",
    "learn",
    "classify",
]


@dataclass(frozen=True)
class ProxyWeights:
    """K x d learned proxy matrix with unit-norm rows."""

    w: np.ndarray

    def __post_init__(self):
        w = as_matrix(self.w, "proxy weights")
        norms = np.linalg.norm(w, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            row = int(np.flatnonzero(np.abs(norms - 1.0) > 1e-9)[0])
            raise UsageError(f"proxy row {row} has norm {norms[row]!r}, expected 1")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class LearnConfig:
    # momentum 0.5: 0.9 overshoots at tau 0.01 and breaks monotone descent
    tau_learn: float = 0.01
    learning_rate: float = 0.02
    momentum: float = 0.5
    max_epochs: int = 500
    loss_tolerance: float = 1e-7

    def __post_init__(self):
        if self.tau_learn <= 0:
            raise UsageError(f"tau_learn must be positive, got {self.tau_learn}")
        if self.learning_rate < 0:
            raise UsageError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise UsageError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.max_epochs < 1:
            raise UsageError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.loss_tolerance < 0:
            raise UsageError(f"loss_tolerance must be >= 0, got {self.loss_tolerance}")


@dataclass
class LearnTrace:
    """Loss before any step (index 0) and after each epoch's step."""

    losses: list[float]
    epochs_run: int
    stop_reason: str  # "converged" or "max_epochs"


def _validated(w: np.ndarray, images, labels: PseudoLabels, tau: float) -> np.ndarray:
    """Check tau and the shapes of one objective evaluation; return the image matrix."""
    if tau <= 0:
        raise UsageError(f"tau must be positive, got {tau}")
    x = as_matrix(images, "image embeddings")
    (n, d), (k, dw) = x.shape, w.shape
    if dw != d:
        raise UsageError(f"images have dim {d} but proxies have dim {dw}")
    if labels.p.shape != (n, k):
        raise UsageError(
            f"labels shape {labels.p.shape} does not match {n} images x {k} classes"
        )
    return x


def _logits(w: np.ndarray, x: np.ndarray, tau: float) -> np.ndarray:
    """x @ w.T, after checking that x @ w.T / tau is finite; a denormal tau breaks it.

    Only the largest magnitude can overflow, and Python float division
    overflows to inf without a warning.
    """
    logits = x @ w.T
    largest = max(float(logits.max(initial=0.0)), -float(logits.min(initial=0.0)))
    if not np.isfinite(largest / tau):
        raise NumericError(
            f"x @ w.T / tau_learn overflows (largest |x @ w.T| = {largest:.6g}, "
            f"tau_learn={tau:.6g}); rerun with a larger --tau-learn"
        )
    return logits


def _objective(w: np.ndarray, x: np.ndarray, p: np.ndarray, tau: float):
    """(:func:`loss`, :func:`gradient`) of validated inputs from one logits pass."""
    # just inside tau's range the log-softmax, the loss sum or the gradient can
    # still overflow; the caller rejects a loss or step that is not finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_q = log_softmax_rows(_logits(w, x, tau), tau)
        terms = np.where(p > 0, p * (np.log(p) - log_q), 0.0)
        return float(terms.sum() / len(x)), (np.exp(log_q) - p).T @ x / (len(x) * tau)


def loss(w: ProxyWeights, images, labels: PseudoLabels, tau: float) -> float:
    """Mean KL(labels || softmax(images @ w.T / tau)) over the dataset."""
    return _objective(w.w, _validated(w.w, images, labels, tau), labels.p, tau)[0]


def gradient(w: ProxyWeights, images, labels: PseudoLabels, tau: float) -> np.ndarray:
    """Analytic K x d gradient of :func:`loss`: (1/(N tau)) (P - Q)^T X."""
    return _objective(w.w, _validated(w.w, images, labels, tau), labels.p, tau)[1]


def learn(
    images,
    labels: PseudoLabels,
    init: TextProxies,
    cfg: LearnConfig,
) -> tuple[ProxyWeights, LearnTrace]:
    """Full-batch momentum descent from the text proxies.

    Stops when the epoch-over-epoch loss decrease falls below
    ``cfg.loss_tolerance`` (reason "converged") or after ``cfg.max_epochs``
    steps. Weight rows are re-normalized after every step.
    """
    w = init.w.copy()
    x = _validated(w, images, labels, cfg.tau_learn)
    settings = f"learning_rate={cfg.learning_rate}, tau_learn={cfg.tau_learn}"
    velocity = np.zeros_like(w)
    # each evaluation gives this step's loss and the next step's gradient
    current, g = _objective(w, x, labels.p, cfg.tau_learn)
    if not np.isfinite(current):
        raise NumericError(f"initial loss is {current!r} ({settings})")
    losses = [current]
    stop_reason = "max_epochs"
    for epoch in range(1, cfg.max_epochs + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 if g overflowed
            velocity = cfg.momentum * velocity - cfg.learning_rate * g
        # a step whose squared norm overflows has lost all trace of w
        if not np.isfinite(np.vdot(velocity, velocity)):
            raise NumericError(f"step diverged at epoch {epoch} ({settings}): its norm overflows")
        try:
            w = l2_normalize_rows(w + velocity)
        except DataError as exc:  # the step cancelled a row of w exactly
            raise NumericError(f"step diverged at epoch {epoch} ({settings}): {exc}") from None
        current, g = _objective(w, x, labels.p, cfg.tau_learn)
        if not np.isfinite(current):
            raise NumericError(f"loss became {current!r} at epoch {epoch} ({settings})")
        losses.append(current)
        if losses[-2] - losses[-1] < cfg.loss_tolerance:
            stop_reason = "converged"
            break
    return ProxyWeights(w), LearnTrace(losses, len(losses) - 1, stop_reason)


def classify(images, w: ProxyWeights) -> np.ndarray:
    """Argmax inner product per image; ties break to the lowest class index."""
    x = as_matrix(images, "image embeddings")
    if x.shape[1] != w.w.shape[1]:
        raise UsageError(
            f"images have dim {x.shape[1]} but proxies have dim {w.w.shape[1]}"
        )
    return np.argmax(x @ w.w.T, axis=1)
