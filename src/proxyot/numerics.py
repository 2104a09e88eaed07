"""Float64 input checks and the shared kernels: log-sum-exp, column softmax, row norms.

``as_matrix`` turns input into a 2-D float64 array with finite entries. Row
normalization, the mean image feature, ``classify`` and ``learn`` find a
non-finite entry through a value they compute anyway and call it only to name
that entry. The solvers and retrieval build on these helpers.
``_softmax_columns`` is the only softmax over K x N scores: ``newton_semidual``
and the learner's objective call it. Every exponential here goes through a
max-shift, so log-domain values may be -inf but never +inf or NaN.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, UsageError

__all__ = [
    "as_matrix",
    "as_vector",
    "l2_normalize_rows",
]


# Rows per block of the whole-matrix passes (the finiteness scan, row
# normalization, classify): their temporaries, and the packing buffer BLAS
# takes for a block's product, grow with a block's rows, not with the matrix.
_BLOCK_ROWS = 2048


def _as_2d(m, name: str) -> np.ndarray:
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2:
        raise UsageError(f"{name} must be 2-D, got {out.ndim}-D")
    return out


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    out = _as_2d(m, name)
    for start in range(0, len(out), _BLOCK_ROWS):
        block = out[start : start + _BLOCK_ROWS]
        if not np.all(np.isfinite(block)):
            i, j = np.argwhere(~np.isfinite(block))[0]
            raise DataError(
                f"{name} has non-finite entry at ({start + i}, {j}): {float(block[i, j])}"
            )
    return out


def as_vector(v, name: str = "vector") -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise UsageError(f"{name} must be 1-D, got {out.ndim}-D")
    return out


def _finite_settings(config, *names: str) -> None:
    """Reject the first named setting of ``config`` that is set (not None) but not finite."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not np.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``; no input validation (hot path).

    A line with a non-finite maximum is shifted by 0 and so returns that maximum:
    all -inf gives log 0 = -inf (never NaN), +inf gives +inf, NaN propagates.
    """
    mx = np.max(a, axis=axis, keepdims=True)
    safe_mx = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):
        out = safe_mx + np.log(np.sum(np.exp(a - safe_mx), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _softmax_columns(z: np.ndarray, top: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Softmax each column of z / tau in place, given z's column maxima ``top``; return their lse."""
    z -= top
    if tau != 1.0:  # a division by 1 is a pass over z that changes no bit
        z /= tau
    np.exp(z, out=z)
    total = z.sum(axis=0)
    z /= total
    return top / tau + np.log(total)


# Below this norm the squared entries summed by np.linalg.norm are subnormal or
# zero, so the plain norm has lost digits (or all of them).
_MIN_PLAIN_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def l2_normalize_rows(m, copy: bool = True) -> np.ndarray:
    """Scale each row to unit Euclidean norm; an all-zero row is a data error.

    The plain norm squares the entries, so it overflows for entries above
    ~1e154 and loses digits below ~1e-154. Only such rows are first divided
    by their largest magnitude; every other row is divided by its plain norm.

    With ``copy=False`` a float64 array is normalized in place and returned
    (other input is converted first); if that raises, rows before the
    offending one may already be normalized.

    A row holding inf or NaN has a non-finite norm, so it is an odd row; only
    such a row or an all-zero one makes ``as_matrix`` scan the whole input.
    """
    mat = _as_2d(m, "l2_normalize input")
    out = np.empty_like(mat) if copy else mat
    for start in range(0, len(mat), _BLOCK_ROWS):
        block = mat[start : start + _BLOCK_ROWS]
        dst = out[start : start + _BLOCK_ROWS]
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(block, axis=1)
        odd = np.flatnonzero(~(norms >= _MIN_PLAIN_NORM) | np.isinf(norms))
        norms[odd] = 1.0  # these rows come through unchanged and are rescaled below
        np.divide(block, norms[:, None], out=dst)
        if odd.size:
            rows = dst[odd]
            top = np.abs(rows).max(axis=1, initial=0.0)  # an N x 0 row is all zero
            if not np.all((top > 0.0) & (top < np.inf)):  # a zero, inf or NaN row
                as_matrix(mat, "l2_normalize input")  # names a non-finite entry first
                raise DataError(f"cannot normalize all-zero row {start + odd[top == 0.0][0]}")
            rows /= top[:, None]
            dst[odd] = rows / np.linalg.norm(rows, axis=1)[:, None]
    return out

