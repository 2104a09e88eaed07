"""Entropic optimal-transport solvers over a similarity matrix.

All three solvers compute the same coupling: the unique maximizer of
``<M, P> + tau * H(P)`` over matrices with fixed row mass 1/N and column
masses q. ``sinkhorn_linear`` scales P = exp(M/tau) directly and is the
deliberately fragile baseline; ``sinkhorn_log`` performs the identical
alternating normalization in log space; ``stable_greenkhorn`` greedily
rescales only the single row or column with the worst absolute marginal
violation, keeping those violations incrementally across updates, again
entirely in log space, and is the default.

Plans are stored in log domain (``log_p``); -inf encodes zero mass and is
the only permitted non-finite value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericOverflowError, UsageError
from .numerics import _lse, as_matrix

__all__ = [
    "ALGORITHMS",
    "ClassMarginal",
    "SolverConfig",
    "TransportPlan",
    "PseudoLabels",
    "sinkhorn_linear",
    "sinkhorn_log",
    "stable_greenkhorn",
    "solve",
    "marginal_violations",
    "entropic_objective",
    "pseudo_labels",
]

ALGORITHMS = ("sinkhorn_linear", "sinkhorn_log", "stable_greenkhorn")

# Incremental row/column bookkeeping drifts; refresh it fully this often.
_REFRESH_EVERY = 1000


def _weights(w) -> np.ndarray:
    """A nonempty float64 vector of finite, nonnegative class weights."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise UsageError("class marginal must be a nonempty vector")
    if not np.all(np.isfinite(w)):
        raise DataError("class marginal has a non-finite entry")
    if np.any(w < 0):
        j = int(np.flatnonzero(w < 0)[0])
        raise DataError(f"class marginal entry {j} is negative: {w[j]}")
    return w


@dataclass(frozen=True)
class ClassMarginal:
    """Target column masses: nonnegative weights summing to one."""

    q: np.ndarray

    def __post_init__(self):
        q = _weights(self.q)
        if abs(float(q.sum()) - 1.0) > 1e-9:
            raise DataError(f"class marginal sums to {q.sum()!r}, expected 1")
        object.__setattr__(self, "q", q)

    @classmethod
    def uniform(cls, k: int) -> "ClassMarginal":
        if k < 1:
            raise UsageError(f"marginal needs at least one class, got {k}")
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def from_weights(cls, weights) -> "ClassMarginal":
        """Build from unnormalized nonnegative weights, renormalizing exactly."""
        w = _weights(weights)
        total = float(w.sum())
        if total <= 0.0:
            raise DataError("class marginal has zero total mass")
        return cls(w / total)

    def __len__(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class SolverConfig:
    tau_ot: float = 0.01
    max_iterations: int = 100_000
    tolerance: float = 1e-6
    algorithm: str = "stable_greenkhorn"

    def __post_init__(self):
        if self.tau_ot <= 0:
            raise UsageError(f"tau_ot must be positive, got {self.tau_ot}")
        if self.max_iterations < 1:
            raise UsageError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tolerance < 0:
            raise UsageError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.algorithm not in ALGORITHMS:
            raise UsageError(
                f"unknown algorithm {self.algorithm!r}; choose from {', '.join(ALGORITHMS)}"
            )


@dataclass
class TransportPlan:
    """Log-domain N x K coupling plus its targets and convergence diagnostics."""

    log_p: np.ndarray
    row_target: float
    col_target: ClassMarginal
    iterations_used: int
    final_row_violation: float
    final_col_violation: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.log_p.shape

    def converged(self, tolerance: float) -> bool:
        return (
            self.final_row_violation <= tolerance
            and self.final_col_violation <= tolerance
        )


@dataclass(frozen=True)
class PseudoLabels:
    """Row-stochastic guide distributions extracted from a transport plan."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 2:
            raise UsageError("pseudo-labels must be a matrix")
        if np.any(p < 0):
            raise DataError("pseudo-labels contain a negative entry")
        bad = np.flatnonzero(np.abs(p.sum(axis=1) - 1.0) > 1e-9)
        if bad.size:
            raise DataError(f"pseudo-label row {bad[0]} does not sum to 1")
        object.__setattr__(self, "p", p)


def _check_inputs(m, q: ClassMarginal) -> tuple[np.ndarray, np.ndarray]:
    mat = as_matrix(m, "similarity matrix")
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        raise UsageError(f"similarity matrix must be nonempty, got shape {mat.shape}")
    if len(q) != mat.shape[1]:
        raise UsageError(
            f"marginal length {len(q)} does not match {mat.shape[1]} columns"
        )
    return mat, q.q


def _line_sums(p: np.ndarray, row_target: float, qv: np.ndarray):
    """Fresh row and column sums of ``p`` and their absolute violations."""
    row_sums = p.sum(axis=1)
    col_sums = p.sum(axis=0)
    return row_sums, col_sums, np.abs(row_sums - row_target), np.abs(col_sums - qv)


def _violations(p: np.ndarray, row_target: float, qv: np.ndarray) -> tuple[float, float]:
    """L-infinity row and column violations of the linear-domain plan ``p``: every
    solver's stop test and every reported violation (so ``converged``) is this."""
    *_, rv, cv = _line_sums(p, row_target, qv)
    return float(rv.max()), float(cv.max())


def _finish(
    log_p: np.ndarray,
    p: np.ndarray,
    row_target: float,
    q: ClassMarginal,
    iterations: int,
) -> TransportPlan:
    """Package ``log_p`` with the violations of ``p``, the linear plan its solver's
    stop test saw: exp(log_p), or for ``sinkhorn_linear`` the p that log_p is log of."""
    assert not np.any(np.isnan(log_p)), "internal error: NaN in transport plan"
    assert not np.any(log_p == np.inf), "internal error: +inf in transport plan"
    with np.errstate(over="ignore"):  # a line never rescaled may still hold +inf mass
        rv, cv = _violations(p, row_target, q.q)
    if not (math.isfinite(rv) and math.isfinite(cv)):
        raise NumericOverflowError(
            f"plan mass overflows after {iterations} iterations: some line was never "
            "rescaled; rerun with a higher --max-iterations"
        )
    return TransportPlan(
        log_p=log_p,
        row_target=row_target,
        col_target=q,
        iterations_used=iterations,
        final_row_violation=rv,
        final_col_violation=cv,
    )


def _scaled(mat: np.ndarray, tau: float) -> np.ndarray:
    """m/tau, which every solver starts from; a denormal tau can push it out of range."""
    with np.errstate(over="ignore"):
        scaled = mat / tau
    if not np.all(np.isfinite(scaled)):
        i, j = np.argwhere(~np.isfinite(scaled))[0]
        raise NumericOverflowError(
            f"m/tau overflows at entry ({i}, {j}) (m={mat[i, j]:.6g}, tau={tau:.6g}); "
            "rerun with a larger --tau-ot"
        )
    return scaled


def _log_start(mat: np.ndarray, qv: np.ndarray, tau: float):
    """The log-domain start log P = m/tau, ln q and the positive-mass column mask."""
    log_p = _scaled(mat, tau)
    positive = qv > 0
    with np.errstate(divide="ignore"):
        ln_q = np.log(qv)
    # Zero-target columns admit exactly one feasible assignment: no mass.
    log_p[:, ~positive] = -np.inf
    return log_p, ln_q, positive


def _require_finite(p: np.ndarray, stage: str) -> None:
    if not np.all(np.isfinite(p)):
        i, j = np.argwhere(~np.isfinite(p))[0]
        raise NumericOverflowError(
            f"linear-domain Sinkhorn produced {p[i, j]!r} at entry ({i}, {j}) "
            f"during {stage}; rerun with sinkhorn_log or stable_greenkhorn"
        )


def sinkhorn_linear(m, cfg: SolverConfig, q: ClassMarginal) -> TransportPlan:
    """Alternating row/column scaling of P = exp(m/tau) in the linear domain.

    One iteration is one double-sweep (all rows to mass 1/N, then all columns
    to mass q_j). Raises :class:`NumericOverflowError` the moment any entry
    leaves the finite range; the log-domain solvers accept the same inputs
    without that failure mode.
    """
    mat, qv = _check_inputs(m, q)
    n, _ = mat.shape
    row_target = 1.0 / n
    with np.errstate(over="ignore"):
        p = np.exp(_scaled(mat, cfg.tau_ot))
    if not np.all(np.isfinite(p)):
        i, j = np.argwhere(~np.isfinite(p))[0]
        raise NumericOverflowError(
            f"exp(m/tau) overflows at entry ({i}, {j}) "
            f"(m={mat[i, j]:.6g}, tau={cfg.tau_ot:.6g}); "
            "use sinkhorn_log or stable_greenkhorn"
        )
    col_factor = np.zeros_like(qv)
    positive = qv > 0
    for iterations in range(1, cfg.max_iterations + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            p *= (row_target / p.sum(axis=1))[:, None]
        _require_finite(p, "row normalization")
        col_sums = p.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(qv, col_sums, out=col_factor, where=positive)
        p *= col_factor[None, :]
        _require_finite(p, "column normalization")
        rv, cv = _violations(p, row_target, qv)
        if rv <= cfg.tolerance and cv <= cfg.tolerance:
            break
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    return _finish(log_p, p, row_target, q, iterations)


def sinkhorn_log(m, cfg: SolverConfig, q: ClassMarginal) -> TransportPlan:
    """Same fixed point as :func:`sinkhorn_linear`, every normalization in log space.

    Never produces +inf or NaN when m/tau is finite (otherwise it raises
    :class:`NumericOverflowError`); columns with zero target mass are emptied
    to -inf once and left alone.
    """
    mat, qv = _check_inputs(m, q)
    n, _ = mat.shape
    row_target = 1.0 / n
    ln_row_target = -math.log(n)
    log_p, ln_q, positive = _log_start(mat, qv, cfg.tau_ot)
    for iterations in range(1, cfg.max_iterations + 1):
        log_p += (ln_row_target - _lse(log_p, axis=1))[:, None]
        with np.errstate(invalid="ignore"):  # -inf - -inf on a zero-mass column
            col_adjust = ln_q - _lse(log_p, axis=0)
        col_adjust[~positive] = 0.0
        log_p += col_adjust[None, :]
        p = np.exp(log_p)
        rv, cv = _violations(p, row_target, qv)
        if rv <= cfg.tolerance and cv <= cfg.tolerance:
            break
    return _finish(log_p, p, row_target, q, iterations)


def stable_greenkhorn(m, cfg: SolverConfig, q: ClassMarginal) -> TransportPlan:
    """Greedy single-line rescaling in log space, one line update per iteration.

    Starts from log P = m/tau. The absolute marginal violation of every row
    and column is kept incrementally: an update rewrites its own line's
    violation and recomputes the crossed ones. Each iteration rescales only
    the worst line: the argmax row if the worst row beats the worst column,
    otherwise the argmax column (ties go to the column; index ties to the
    lowest index). The rescale adds a constant to the line in log space, so
    the selected line meets its target mass exactly and the plan keeps the
    diagonal-scaling structure of the initialization.
    """
    mat, qv = _check_inputs(m, q)
    n, _ = mat.shape
    row_target = 1.0 / n
    ln_row_target = -math.log(n)
    log_p, ln_q, _ = _log_start(mat, qv, cfg.tau_ot)
    tol = cfg.tolerance
    iterations = 0
    # exp overflow, log(0) and inf - inf are all expected below; one errstate
    # per solve instead of one per update.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # p stays exactly exp(log_p); +inf entries are legal until the first
        # rescale of their line and the crossed sums are repaired on the fly.
        p = np.exp(log_p)
        row_sums, col_sums, rv, cv = _line_sums(p, row_target, qv)
        while iterations < cfg.max_iterations:
            r = int(rv.argmax())
            c = int(cv.argmax())
            worst_row = rv[r]
            worst_col = cv[c]
            if worst_row <= tol and worst_col <= tol:
                # Incremental sums drift; confirm against fresh ones before stopping.
                fresh_row, fresh_col = _violations(p, row_target, qv)
                if fresh_row <= tol and fresh_col <= tol:
                    break
                row_sums, col_sums, rv, cv = _line_sums(p, row_target, qv)
                continue
            # A row holding a +inf entry of p has a +inf sum, so the worst row is
            # +inf while any is left. Rescaled lines are finite, so after that no
            # crossed sum can meet inf - inf and the NaN repair is skipped.
            raw = worst_row == np.inf
            if worst_row > worst_col:
                line = log_p[r]
                lse = line.max()  # an all -inf or +inf line keeps its max, as in _lse
                if math.isfinite(lse):
                    lse += np.log(np.exp(line - lse).sum())
                line += ln_row_target - lse
                new_line = np.exp(line)
                col_sums += new_line - p[r]
                p[r] = new_line
                row_sums[r] = new_line.sum()
                rv[r] = abs(row_sums[r] - row_target)
                if raw:
                    bad = np.isnan(col_sums)
                    if bad.any():
                        col_sums[bad] = p[:, bad].sum(axis=0)
                np.abs(np.subtract(col_sums, qv, out=cv), out=cv)
            else:
                line = log_p[:, c]
                lse = line.max()
                if math.isfinite(lse):
                    lse += np.log(np.exp(line - lse).sum())
                line += ln_q[c] - lse
                new_line = np.exp(line)
                row_sums += new_line - p[:, c]
                p[:, c] = new_line
                col_sums[c] = new_line.sum()
                cv[c] = abs(col_sums[c] - qv[c])
                if raw:
                    bad = np.isnan(row_sums)
                    if bad.any():
                        row_sums[bad] = p[bad, :].sum(axis=1)
                np.abs(np.subtract(row_sums, row_target, out=rv), out=rv)
            iterations += 1
            if iterations % _REFRESH_EVERY == 0:
                row_sums, col_sums, rv, cv = _line_sums(p, row_target, qv)
    return _finish(log_p, p, row_target, q, iterations)


_SOLVERS = {
    "sinkhorn_linear": sinkhorn_linear,
    "sinkhorn_log": sinkhorn_log,
    "stable_greenkhorn": stable_greenkhorn,
}


def solve(m, cfg: SolverConfig, q: ClassMarginal) -> TransportPlan:
    """Dispatch to the solver named by ``cfg.algorithm``."""
    return _SOLVERS[cfg.algorithm](m, cfg, q)


def marginal_violations(plan: TransportPlan) -> tuple[float, float]:
    """L-infinity distance of the plan's row and column sums from their targets."""
    return _violations(np.exp(plan.log_p), plan.row_target, plan.col_target.q)


def entropic_objective(plan: TransportPlan, m, tau: float) -> float:
    """<M, P> + tau * H(P) with H(P) = -sum(P ln P) and 0 ln 0 = 0."""
    mat = as_matrix(m, "similarity matrix")
    if mat.shape != plan.shape:
        raise UsageError(f"matrix shape {mat.shape} does not match plan {plan.shape}")
    p = np.exp(plan.log_p)
    with np.errstate(invalid="ignore"):  # 0 * -inf where the plan has no mass
        plogp = np.where(p > 0, p * plan.log_p, 0.0)
    return float(np.sum(mat * p) - tau * np.sum(plogp))


def pseudo_labels(plan: TransportPlan) -> PseudoLabels:
    """Normalize each plan row to a probability vector over classes."""
    row_lse = _lse(plan.log_p, axis=1)
    empty = np.flatnonzero(np.isneginf(row_lse))
    if empty.size:
        raise DataError(f"plan row {empty[0]} has zero mass; cannot form pseudo-labels")
    return PseudoLabels(np.exp(plan.log_p - row_lse[:, None]))
