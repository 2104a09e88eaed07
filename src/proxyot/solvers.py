"""Entropic optimal-transport solvers over a similarity matrix.

All four solvers compute the same coupling: the unique maximizer of
``<M, P> + tau * H(P)`` over matrices with fixed row mass 1/N and column
masses q. ``sinkhorn_linear`` scales P = exp(M/tau) directly and is the
deliberately fragile baseline; ``sinkhorn_log`` performs the identical
alternating normalization in log space, one vectorized sweep over all rows
and columns per iteration; ``stable_greenkhorn`` starts from the
row-normalized kernel, then greedily rescales only the single row or column
with the worst absolute marginal violation, keeping its line sums
incrementally across updates, again entirely in log space.
``newton_semidual``, the default, keeps every row exact and solves for the K
column potentials by Newton's method, one step per iteration.

Plans are stored in log domain (``log_p``); -inf encodes zero mass and is
the only permitted non-finite value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericOverflowError, UsageError
from .numerics import _as_2d, _finite_settings, _lse, _softmax_columns, as_matrix

__all__ = [
    "ALGORITHMS",
    "ClassMarginal",
    "SolverConfig",
    "TransportPlan",
    "PseudoLabels",
    "sinkhorn_linear",
    "sinkhorn_log",
    "stable_greenkhorn",
    "newton_semidual",
    "solve",
    "entropic_objective",
    "pseudo_labels",
]

# Greedy's incremental line sums drift; rebuild them from the plan this often.
_REFRESH_EVERY = 1000

# Newton: the damping weight on the largest class-mass violation, a damping
# floor far above float64 rounding of a K x K system with entries up to 2, the
# Armijo fraction of the predicted decrease, the line search's halvings before
# it rejects a step, and the relative rounding of a computed change in F.
_DAMPING = 0.1
_MIN_DAMPING = 1e-12
_ARMIJO = 1e-4
_HALVINGS = 40
_EPS = 4 * 2.220446049250313e-16  # four float64 epsilons


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
            raise DataError(f"class marginal sums to {float(q.sum())}, expected 1")
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
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if total == math.inf:
            raise DataError("class marginal weights sum past the float range")
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
    algorithm: str = "newton_semidual"

    def __post_init__(self):
        if not self.tau_ot > 0:
            raise UsageError(f"tau_ot must be positive, got {self.tau_ot}")
        if self.max_iterations < 1:
            raise UsageError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.tolerance >= 0:
            raise UsageError(f"tolerance must be >= 0, got {self.tolerance}")
        _finite_settings(self, "tau_ot", "tolerance")
        if self.algorithm not in ALGORITHMS:
            raise UsageError(
                f"unknown algorithm {self.algorithm!r}; choose from {', '.join(ALGORITHMS)}"
            )


@dataclass
class TransportPlan:
    """Log-domain N x K coupling plus the stop test that ended its solve.

    The violations are L-infinity distances of the line sums from the targets
    (1/N per row, q per column) as that test saw them; ``converged`` is its
    verdict, both within the solve's tolerance.
    """

    log_p: np.ndarray
    iterations_used: int
    final_row_violation: float
    final_col_violation: float
    converged: bool


@dataclass(frozen=True)
class PseudoLabels:
    """Row-stochastic guide distributions extracted from a transport plan."""

    p: np.ndarray

    def __post_init__(self):
        p = as_matrix(self.p, "pseudo-labels")
        if np.any(p < 0):
            raise DataError("pseudo-labels contain a negative entry")
        bad = np.flatnonzero(np.abs(p.sum(axis=1) - 1.0) > 1e-9)
        if bad.size:
            raise DataError(f"pseudo-label row {bad[0]} does not sum to 1")
        object.__setattr__(self, "p", p)


def _check_inputs(m, q: ClassMarginal) -> tuple[np.ndarray, np.ndarray]:
    mat = _as_2d(m, "similarity matrix")  # only shapes: _scaled checks the values
    if mat.shape[0] == 0 or mat.shape[1] == 0:
        raise UsageError(f"similarity matrix must be nonempty, got shape {mat.shape}")
    if len(q) != mat.shape[1]:
        raise UsageError(
            f"marginal length {len(q)} does not match {mat.shape[1]} columns"
        )
    return mat, q.q


def _violations(p: np.ndarray, row_target: float, qv: np.ndarray) -> tuple[float, float]:
    """L-infinity row and column violations of the linear plan ``p``: every solver's stop test."""
    rv = np.abs(p.sum(axis=1) - row_target).max()
    return float(rv), float(np.abs(p.sum(axis=0) - qv).max())


def _finish(
    log_p: np.ndarray, iterations: int, rv: float, cv: float, tolerance: float
) -> TransportPlan:
    """``log_p`` with the violations and verdict of the stop test that ended its solve."""
    assert not np.any(np.isnan(log_p)), "internal error: NaN in transport plan"
    assert not np.any(log_p == np.inf), "internal error: +inf in transport plan"
    return TransportPlan(
        log_p=log_p,
        iterations_used=iterations,
        final_row_violation=rv,
        final_col_violation=cv,
        converged=rv <= tolerance and cv <= tolerance,
    )


def _scaled(mat: np.ndarray, tau: float) -> np.ndarray:
    """m/tau, which every solver starts from; a denormal tau can push it out of range."""
    with np.errstate(over="ignore"):
        scaled = mat / tau
    if not np.all(np.isfinite(scaled)):
        as_matrix(mat, "similarity matrix")  # names a non-finite entry of m first
        i, j = np.argwhere(~np.isfinite(scaled))[0]
        raise NumericOverflowError(
            f"m/tau overflows at entry ({i}, {j}) (m={mat[i, j]:.6g}, tau={tau:.6g}); "
            "rerun with a larger --tau-ot"
        )
    return scaled


def _log_start(mat: np.ndarray, qv: np.ndarray, tau: float):
    """Every log-domain solver's start: log P = m/tau, ln q and the positive-mass column mask."""
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
            f"linear-domain Sinkhorn produced {float(p[i, j])} at entry ({i}, {j}) "
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
    return _finish(log_p, iterations, rv, cv, cfg.tolerance)


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
        rv, cv = _violations(np.exp(log_p), row_target, qv)
        if rv <= cfg.tolerance and cv <= cfg.tolerance:
            break
    return _finish(log_p, iterations, rv, cv, cfg.tolerance)


def stable_greenkhorn(m, cfg: SolverConfig, q: ClassMarginal) -> TransportPlan:
    """Greedy single-line rescaling in log space, one line update per iteration.

    Starts from log P = m/tau with every row rescaled to mass 1/N at once, the
    row half of a :func:`sinkhorn_log` sweep; ``iterations_used`` counts only
    the updates after that start. Every entry is then at most 1/N, and at most
    1 after any update, so no line ever holds +inf mass. Only the line sums
    are kept across updates: an update rewrites its own line's sum and adds
    its change to the crossed ones. Each iteration takes every line's absolute
    marginal violation from those sums and rescales the worst line: the argmax
    row if the worst row beats the worst column, otherwise the argmax column
    (ties go to the column; index ties to the lowest index). The rescale adds
    a constant to the line in log space, so the line meets its target mass
    exactly and the plan keeps the diagonal-scaling structure of the start.
    A column update is the row update on the transposed plan.
    """
    mat, qv = _check_inputs(m, q)
    n, _ = mat.shape
    row_target = 1.0 / n
    ln_row_target = -math.log(n)
    log_p, ln_q, _ = _log_start(mat, qv, cfg.tau_ot)
    log_p += (ln_row_target - _lse(log_p, axis=1))[:, None]
    tol = cfg.tolerance
    iterations = 0
    p = np.exp(log_p)  # stays exactly exp(log_p)
    log_pt, pt = log_p.T, p.T  # views: log_p and p are only written in place
    while iterations < cfg.max_iterations:
        if iterations % _REFRESH_EVERY == 0:  # build, then rebuild as sums drift
            row_sums, col_sums = p.sum(axis=1), p.sum(axis=0)
        rv, cv = np.abs(row_sums - row_target), np.abs(col_sums - qv)
        r, c = int(rv.argmax()), int(cv.argmax())
        if rv[r] <= tol and cv[c] <= tol:
            # Incremental sums drift; confirm against fresh ones before stopping.
            if max(_violations(p, row_target, qv)) <= tol:
                break
            row_sums, col_sums = p.sum(axis=1), p.sum(axis=0)
            continue
        # A column is a row of the transposes. Pick each axis's sums per update:
        # the refresh and the confirm step rebind them.
        if rv[r] > cv[c]:
            i, lp, pp, ln_target, sums, crossed = r, log_p, p, ln_row_target, row_sums, col_sums
        else:
            i, lp, pp, ln_target, sums, crossed = c, log_pt, pt, ln_q[c], col_sums, row_sums
        line = lp[i]
        lse = line.max()
        lse += np.log(np.exp(line - lse).sum())
        line += ln_target - lse
        new_line = np.exp(line)
        crossed += new_line - pp[i]
        pp[i] = new_line
        sums[i] = new_line.sum()
        iterations += 1
    return _finish(log_p, iterations, *_violations(p, row_target, qv), tol)


def newton_semidual(m, cfg: SolverConfig, q: ClassMarginal) -> TransportPlan:
    """Newton's method on the semi-dual over the K column potentials, one step per iteration.

    Every row of the plan is the softmax of s_i + g scaled to mass 1/N, with
    s = m/tau, so only the columns need solving for: the masses
    (1/N) sum_i a_ij must reach q, where a_i is that softmax. They are the
    gradient of the convex F(g) = (1/N) sum_i lse_j(s_ij + g_j) - q^T g,
    whose Hessian H = (1/N)(diag(sum_i a_i) - A A^T) is only K x K. H is
    singular along the all-ones vector (a constant added to g cancels), and
    also where a class's mass underflows in every row; so each step solves
    (H + 11^T/K' + lam I) d = -grad, where 1 marks the K' classes with mass,
    with lam = _DAMPING * max|grad| plus a floor that keeps the system
    regular in float64. lam fades as the masses converge, so the last steps
    are Newton steps. The step centers d and backtracks on F until it meets
    an Armijo decrease; F's change along d comes from the softmax the step
    started at, so it keeps its digits when the change is tiny.

    Columns with zero target mass start at -inf (``_log_start``); their rows
    of A, H and grad are zero but for the damping, so they take no step
    before centering. The stop test runs on the start and after each step.
    A step whose decrease is within the rounding of s + g, or that no
    halving makes decrease F, leaves g unchanged, as would every later one;
    the solve ends there and reports what running out its cap would.
    """
    mat, qv = _check_inputs(m, q)
    n, k = mat.shape
    log_p, _, positive = _log_start(mat, qv, cfg.tau_ot)
    s = np.ascontiguousarray(log_p.T)  # K x N; a zero-mass class is a -inf row
    a = np.empty_like(s)
    log_pt = np.empty_like(s)
    log_p = log_pt.T  # the N x K plan is a view of the class-major buffer
    ln_n = math.log(n)
    g = np.zeros(k)
    iterations = 0
    while True:
        np.add(s, g[:, None], out=log_pt)
        np.copyto(a, log_pt)
        lse = _softmax_columns(a, a.max(axis=0))
        log_pt -= lse
        log_pt -= ln_n  # rounds as a does, so rows hold 1/N
        rv, cv = _violations(np.exp(log_p), 1.0 / n, qv)
        if (rv <= cfg.tolerance and cv <= cfg.tolerance) or iterations == cfg.max_iterations:
            break
        mass = a.sum(axis=1) / n
        grad = mass - qv
        h = (a @ a.T) / -n + np.outer(positive, positive) / np.count_nonzero(positive)
        h.flat[:: k + 1] += mass + _DAMPING * np.abs(grad).max() + _MIN_DAMPING
        d = np.linalg.solve(h, -grad)
        d -= d.mean()
        slope = float(grad @ d)
        # an error of one rounding in s + g moves F by about this much along d
        noise = _EPS * (1.0 + np.abs(lse).max()) * np.abs(d).sum()
        step = _armijo_step(a, qv, d, slope) if slope < -noise else None
        if step is None:
            iterations = cfg.max_iterations
            break
        g += step * d
        iterations += 1
    return _finish(log_p, iterations, rv, cv, cfg.tolerance)


def _armijo_step(a: np.ndarray, q: np.ndarray, d: np.ndarray, slope: float) -> float | None:
    """The first of 1, 1/2, 1/4, ... that lowers F by Armijo's fraction of ``slope``.

    F(g + t d) - F(g) = mean_i log(sum_j a_ij e^(t d_j)) - t q^T d, from the
    softmax ``a`` at g; None when no step down to the floor meets the test.
    """
    t = 1.0
    for _ in range(_HALVINGS):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            change = np.log1p(np.expm1(t * d) @ a).mean() - t * (q @ d)
        if -math.inf < change < _ARMIJO * t * slope:
            return t
        t *= 0.5
    return None


_SOLVERS = {
    "sinkhorn_linear": sinkhorn_linear,
    "sinkhorn_log": sinkhorn_log,
    "stable_greenkhorn": stable_greenkhorn,
    "newton_semidual": newton_semidual,
}
ALGORITHMS = tuple(_SOLVERS)


def solve(m, cfg: SolverConfig, q: ClassMarginal) -> TransportPlan:
    """Dispatch to the solver named by ``cfg.algorithm``."""
    return _SOLVERS[cfg.algorithm](m, cfg, q)


def entropic_objective(plan: TransportPlan, m, tau: float) -> float:
    """<M, P> + tau * H(P) with H(P) = -sum(P ln P) and 0 ln 0 = 0."""
    mat = as_matrix(m, "similarity matrix")
    if mat.shape != plan.log_p.shape:
        raise UsageError(f"matrix shape {mat.shape} does not match plan {plan.log_p.shape}")
    p = np.exp(plan.log_p)
    with np.errstate(invalid="ignore"):  # 0 * -inf where the plan has no mass
        plogp = np.where(p > 0, p * plan.log_p, 0.0)
    return float(np.sum(mat * p) - tau * np.sum(plogp))


def pseudo_labels(plan: TransportPlan) -> PseudoLabels:
    """Normalize each plan row to a probability vector over classes."""
    if plan.log_p.shape[1] == 0:
        raise UsageError(f"plan of shape {plan.log_p.shape} has no class columns")
    row_lse = _lse(plan.log_p, axis=1)
    empty = np.flatnonzero(np.isneginf(row_lse))
    if empty.size:
        raise DataError(f"plan row {empty[0]} has zero mass; cannot form pseudo-labels")
    return PseudoLabels(np.exp(plan.log_p - row_lse[:, None]))
