"""Dense float64 kernel: log-sum-exp, row softmax, row normalization, cosine, KL.

Matrices are plain 2-D ``numpy.ndarray`` in C order and 64-bit floats; the
helpers here are the only place the rest of the package does raw floating
point. Every exponential goes through a max-shift so log-domain values may
be -inf but never +inf or NaN.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, UsageError

__all__ = [
    "as_matrix",
    "as_vector",
    "log_sum_exp",
    "softmax_rows",
    "l2_normalize_rows",
    "cosine",
    "kl_rows",
]


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2:
        raise UsageError(f"{name} must be 2-D, got {out.ndim}-D")
    if not np.all(np.isfinite(out)):
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise DataError(f"{name} has non-finite entry at ({i}, {j}): {out[i, j]!r}")
    return out


def as_vector(v, name: str = "vector") -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise UsageError(f"{name} must be 1-D, got {out.ndim}-D")
    return out


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``; no input validation (hot path).

    Entries may be -inf; all -inf along the axis yields -inf, never NaN.
    """
    mx = np.max(a, axis=axis, keepdims=True)
    safe_mx = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):
        out = safe_mx + np.log(np.sum(np.exp(a - safe_mx), axis=axis, keepdims=True))
    out = np.where(np.isfinite(mx), out, mx)
    return np.squeeze(out, axis=axis)


def log_sum_exp(v) -> float:
    """log(sum(exp(v))) for a log-domain vector, stable under large magnitudes.

    Entries may be -inf (absorbing); +inf and NaN are rejected. Returns -inf
    iff every entry is -inf.
    """
    arr = as_vector(v, "log_sum_exp input")
    if arr.size == 0:
        raise UsageError("log_sum_exp requires a nonempty vector")
    if np.any(np.isnan(arr)) or np.any(arr == np.inf):
        raise DataError("log_sum_exp input must lie in [-inf, finite]")
    return float(_lse(arr, axis=0))


def softmax_rows(m, tau: float) -> np.ndarray:
    """Temperature softmax per row: exp(m/tau) normalized row-wise.

    The row maximum is subtracted before exponentiation, so any finite input
    and any tau > 0 produce a strictly positive row-stochastic matrix.
    """
    if tau <= 0:
        raise UsageError(f"softmax temperature must be positive, got {tau}")
    mat = as_matrix(m, "softmax input")
    shifted = (mat - mat.max(axis=1, keepdims=True)) / tau
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(m: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise log(softmax(m/tau)); unchecked hot path used by the learner."""
    scaled = m / tau
    return scaled - _lse(scaled, axis=1)[:, None]


# Below this norm the squared entries summed by np.linalg.norm are subnormal or
# zero, so the plain norm has lost digits (or all of them).
_MIN_PLAIN_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def l2_normalize_rows(m) -> np.ndarray:
    """Scale each row to unit Euclidean norm; an all-zero row is a data error.

    The plain norm squares the entries, so it overflows for entries above
    ~1e154 and loses digits below ~1e-154. Only such rows are first divided
    by their largest magnitude; every other row is divided by its plain norm.
    """
    mat = as_matrix(m, "l2_normalize input")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(mat, axis=1)
    odd = np.flatnonzero((norms < _MIN_PLAIN_NORM) | np.isinf(norms))
    if odd.size == 0:
        return mat / norms[:, None]
    top = np.abs(mat[odd]).max(axis=1)
    zero = odd[top == 0.0]
    if zero.size:
        raise DataError(f"cannot normalize all-zero row {zero[0]}")
    rows = mat[odd] / top[:, None]
    norms[odd] = 1.0  # their rows are replaced below
    out = mat / norms[:, None]
    out[odd] = rows / np.linalg.norm(rows, axis=1)[:, None]
    return out


def cosine(a, b) -> float:
    """Cosine similarity of two vectors; zero vectors are a data error."""
    va = as_vector(a, "cosine argument a")
    vb = as_vector(b, "cosine argument b")
    if va.shape != vb.shape:
        raise UsageError(f"cosine arguments differ in length: {va.size} vs {vb.size}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine is undefined for a zero vector")
    return float(np.dot(va, vb) / (na * nb))


def kl_rows(p, q) -> np.ndarray:
    """Row-wise KL divergence sum(p * (ln p - ln q)) with 0*ln(0) = 0.

    Rows of both arguments must be probability vectors (sum 1 within 1e-6);
    p may only put mass where q does.
    """
    pm = as_matrix(p, "kl p")
    qm = as_matrix(q, "kl q")
    if pm.shape != qm.shape:
        raise UsageError(f"kl_rows shapes differ: {pm.shape} vs {qm.shape}")
    for name, mat in (("p", pm), ("q", qm)):
        bad = np.flatnonzero(np.abs(mat.sum(axis=1) - 1.0) > 1e-6)
        if bad.size:
            raise DataError(f"kl_rows {name} row {bad[0]} does not sum to 1")
    support = pm > 0
    if np.any(support & (qm <= 0)):
        i, j = np.argwhere(support & (qm <= 0))[0]
        raise DataError(f"kl_rows support violation at ({i}, {j}): p > 0 where q = 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(support, pm * (np.log(pm) - np.log(qm)), 0.0)
    return terms.sum(axis=1)
