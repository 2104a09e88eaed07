"""Proxy learning: fit per-class weight vectors to pseudo-label distributions.

The objective is the mean KL divergence between the pseudo-labels and the
softmax distribution induced by the weights over image embeddings. Descent
is full-batch gradient descent with momentum; after every step each weight
row is projected back onto the unit sphere so logits stay on the cosine
scale the temperature assumes.

The loss is computed as (sum p log p - <P^T X, W> / tau + r . lse) / N,
where r = P 1 and lse is each image's log-sum-exp of its logits W x / tau,
and the gradient as (Q X - P^T X) / (N tau) with Q the K x N softmax. The
terms of P alone are taken once per call, so an epoch makes one logits
matmul, one exp over one K x N buffer and one Q X. The form adds and
subtracts terms of size ~1/tau, so a loss at a fixed point, 0 exactly, may
read a few ulps below 0.

A ``learn`` call opens one floating-point error state for its whole descent.
Each step updates the velocity and the weights in place and divides the rows
by their plain norms; only a row whose plain norm is out of range (tiny, zero
or overflowed) sends the step through ``l2_normalize_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, UsageError
from .numerics import (
    _BLOCK_ROWS,
    _MIN_PLAIN_NORM,
    _as_2d,
    _finite_settings,
    _softmax_columns,
    as_matrix,
    l2_normalize_rows,
)
from .solvers import PseudoLabels

__all__ = [
    "ProxyWeights",
    "LearnConfig",
    "LearnTrace",
    "learn",
    "classify",
]


@dataclass(frozen=True)
class ProxyWeights:
    """K x d proxy matrix with unit-norm rows: the text proxies and the learned ones."""

    w: np.ndarray

    def __post_init__(self):
        w = as_matrix(self.w, "proxy weights")
        if len(w) == 0:
            raise UsageError("proxy weights has no rows: there is no class to predict")
        norms = np.linalg.norm(w, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            row = int(np.flatnonzero(np.abs(norms - 1.0) > 1e-9)[0])
            raise UsageError(f"proxy row {row} has norm {float(norms[row])}, expected 1")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class LearnConfig:
    """Proxy-learning settings.

    Learning stops once an epoch changes the loss, up or down, by less than
    ``loss_tolerance``, or after ``max_epochs`` epochs.
    """

    # momentum 0.5: 0.9 overshoots at tau 0.01 and breaks monotone descent
    tau_learn: float = 0.01
    learning_rate: float = 0.02
    momentum: float = 0.5
    max_epochs: int = 500
    loss_tolerance: float = 1e-7

    def __post_init__(self):
        if not self.tau_learn > 0:
            raise UsageError(f"tau_learn must be positive, got {self.tau_learn}")
        if not self.learning_rate >= 0:
            raise UsageError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise UsageError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.max_epochs < 1:
            raise UsageError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not self.loss_tolerance >= 0:
            raise UsageError(f"loss_tolerance must be >= 0, got {self.loss_tolerance}")
        _finite_settings(self, "tau_learn", "learning_rate", "loss_tolerance")


@dataclass
class LearnTrace:
    """Loss before any step (index 0) and after each epoch's step."""

    losses: list[float]
    epochs_run: int
    stop_reason: str  # "converged" or "max_epochs"


def _validated(w: np.ndarray, images, labels: PseudoLabels) -> np.ndarray:
    """Check the shapes of one objective evaluation; return the image matrix."""
    x = _as_2d(images, "image embeddings")  # the objective finds a non-finite entry
    (n, d), (k, dw) = x.shape, w.shape
    if n == 0:
        raise UsageError("image embeddings has no rows: the loss is a mean over images")
    if dw != d:
        raise UsageError(f"images have dim {d} but proxies have dim {dw}")
    if labels.p.shape != (n, k):
        raise UsageError(
            f"labels shape {labels.p.shape} does not match {n} images x {k} classes"
        )
    return x


def _objective(x: np.ndarray, p: np.ndarray, tau: float):
    """The function w -> (loss, gradient) over validated inputs.

    The terms of P alone are taken here, once. Each evaluation fills one
    K x N buffer with Z = W X^T, then exp((Z - top) / tau) with top each
    image's largest logit, then Q. An evaluation opens no error state of its
    own: it runs under its caller's, and ``learn`` ignores overflow, division
    by zero and invalid operations.
    """
    n, k = p.shape
    p_log_p = float(np.vdot(p, np.log(p, out=np.zeros_like(p), where=p > 0)))
    r = p.sum(axis=1)
    with np.errstate(invalid="ignore"):  # inf * 0: the first evaluation names the entry
        ptx = p.T @ x
    buffer = np.empty((k, n))

    def evaluate(w: np.ndarray) -> tuple[float, np.ndarray]:
        # just inside tau's range a shifted logit, the loss or the gradient can
        # still overflow; the caller rejects a loss or step that is not finite
        z = np.matmul(w, x.T, out=buffer)
        top = z.max(axis=0)  # per image
        # only the largest magnitude can overflow, and Python float division
        # overflows to inf without a warning; a denormal tau breaks it
        largest = max(float(top.max(initial=0.0)), -float(z.min(initial=0.0)))
        if not math.isfinite(largest / tau):
            as_matrix(x, "image embeddings")  # so does a non-finite x: name its entry
            raise NumericError(
                f"x @ w.T / tau_learn overflows (largest |x @ w.T| = {largest:.6g}, "
                f"tau_learn={tau:.6g}); rerun with a larger --tau-learn"
            )
        lse = _softmax_columns(z, top, tau)
        value = (p_log_p - np.vdot(ptx, w) / tau + r @ lse) / n
        grad = z @ x
        grad -= ptx
        grad /= n * tau
        return float(value), grad

    return evaluate


def learn(
    images,
    labels: PseudoLabels,
    init: ProxyWeights,
    cfg: LearnConfig,
) -> tuple[ProxyWeights, LearnTrace]:
    """Full-batch momentum descent from the text proxies.

    Stops when the epoch-over-epoch loss change, up or down, falls below
    ``cfg.loss_tolerance`` (reason "converged") or after ``cfg.max_epochs``
    steps. Weight rows are re-normalized after every step.
    """
    w = init.w.copy()
    x = _validated(w, images, labels)
    settings = f"learning_rate={cfg.learning_rate}, tau_learn={cfg.tau_learn}"
    velocity = np.zeros_like(w)
    # each evaluation gives this step's loss and the next step's gradient
    objective = _objective(x, labels.p, cfg.tau_learn)
    # an overflow shows as a loss or step that is not finite, and is rejected
    # there; inf * 0 in a step whose gradient overflowed gives NaN the same way
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        current, g = objective(w)
        if not math.isfinite(current):
            raise NumericError(f"initial loss is {current!r} ({settings})")
        losses = [current]
        stop_reason = "max_epochs"
        for epoch in range(1, cfg.max_epochs + 1):
            velocity *= cfg.momentum
            velocity -= cfg.learning_rate * g
            # a step whose squared norm overflows has lost all trace of w
            if not math.isfinite(np.vdot(velocity, velocity)):
                raise NumericError(
                    f"step diverged at epoch {epoch} ({settings}): its norm overflows"
                )
            w += velocity
            norms = np.linalg.norm(w, axis=1)  # as l2_normalize_rows takes them
            if norms.min() >= _MIN_PLAIN_NORM and norms.max() < np.inf:
                w /= norms[:, None]
            else:
                try:
                    w = l2_normalize_rows(w)
                except DataError as exc:  # the step cancelled a row of w exactly
                    raise NumericError(
                        f"step diverged at epoch {epoch} ({settings}): {exc}"
                    ) from None
            current, g = objective(w)
            if not math.isfinite(current):
                raise NumericError(f"loss became {current!r} at epoch {epoch} ({settings})")
            losses.append(current)
            if abs(losses[-2] - losses[-1]) < cfg.loss_tolerance:
                stop_reason = "converged"
                break
    return ProxyWeights(w), LearnTrace(losses, len(losses) - 1, stop_reason)


def classify(images, w: ProxyWeights) -> np.ndarray:
    """Argmax inner product per image; ties break to the lowest class index.

    The logits are taken one block of rows at a time, into one buffer: N rows
    split into ``ceil(N / _BLOCK_ROWS)`` blocks whose sizes differ by at most
    one row. No block is wider than ``_BLOCK_ROWS``, and once N reaches it,
    none is narrower than half of it. Only non-finite logits make
    ``as_matrix`` scan the images to name the entry.
    """
    x = _as_2d(images, "image embeddings")
    if x.shape[1] != w.w.shape[1]:
        raise UsageError(
            f"images have dim {x.shape[1]} but proxies have dim {w.w.shape[1]}"
        )
    n = len(x)
    labels = np.empty(n, dtype=np.intp)
    # equal blocks, never a last one of a few rows: BLAS rounds a product of a
    # few rows differently from the same rows inside a longer product
    blocks = max(1, -(-n // _BLOCK_ROWS))
    buffer = np.empty((-(-n // blocks), len(w.w)))
    for i in range(blocks):
        start, stop = i * n // blocks, (i + 1) * n // blocks
        with np.errstate(invalid="ignore"):  # inf * 0, inf - inf
            logits = np.matmul(x[start:stop], w.w.T, out=buffer[: stop - start])
        if not np.all(np.isfinite(logits)):
            as_matrix(x, "image embeddings")
        labels[start:stop] = np.argmax(logits, axis=1)
    return labels
