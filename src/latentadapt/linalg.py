"""Dense linear algebra: a deterministic symmetric eigensolver.

The eigensolver is a cyclic Jacobi iteration rather than a LAPACK call so
that eigenvector signs and tie handling are fully specified: downstream file
artifacts must be byte-stable across reruns, and eigenvectors are otherwise
only defined up to sign.

Each rotation runs as a fused kernel over one flat buffer holding the
iterate and the accumulated eigenvectors: the two affected lanes are
gathered, rotated with vectorised arithmetic and scattered back, and the
2x2 pivot block is redone in scalar arithmetic. The arithmetic matches the
textbook cyclic Jacobi order (full column update, then full row update, then
the eigenvector update) element by element, so results are bit-identical to
that order; only the number of interpreter and array dispatches per rotation
is smaller.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ContractViolation, ConvergenceFailure

_SYMMETRY_RTOL = 1e-9
_OFFDIAG_RTOL = 1e-12
_MAX_SWEEPS = 100


def _as_matrix(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ContractViolation(f"{name} must be a non-empty 2-d array")
    if not np.all(np.isfinite(a)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return a


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    # largest-magnitude component positive; ties resolve to the lowest index
    # because argmax returns the first maximum
    idx = int(np.argmax(np.abs(vec)))
    if vec[idx] < 0.0:
        return -vec
    return vec


@functools.lru_cache(maxsize=8)
def _rotation_plan(n: int) -> tuple:
    """Flat-buffer indices for every rotation ``(p, q)`` in cyclic order.

    The buffer holds ``a`` then ``v``, both row-major. Lane ``p`` is column
    ``p`` of ``a``, row ``p`` of ``a`` and column ``p`` of ``v``; rotating
    lanes ``p`` and ``q`` updates every entry outside the 2x2 block exactly
    as a full column update followed by a full row update would.
    """
    i = np.arange(n, dtype=np.intp)
    lanes = []
    for p in range(n):
        lane = np.concatenate([i * n + p, p * n + i, n * n + i * n + p])
        lane.flags.writeable = False
        lanes.append(lane)
    return tuple(
        (p * n + p, q * n + q, p * n + q, q * n + p, lanes[p], lanes[q])
        for p in range(n - 1)
        for q in range(p + 1, n)
    )


def sym_eig(s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` eigenpairs of a symmetric matrix by cyclic Jacobi rotations.

    Returns eigenvalues in non-increasing order with matching orthonormal
    eigenvectors as columns. Iterates full sweeps until the largest
    off-diagonal magnitude falls below 1e-12 times the Frobenius norm of the
    input (or is exactly zero), capped at 100 sweeps. Each eigenvector's sign
    is fixed so its largest-magnitude component is positive.
    """
    s = _as_matrix(s, "s")
    n = s.shape[0]
    if s.shape[1] != n:
        raise ContractViolation(f"matrix must be square, got {s.shape}")
    if not (1 <= k <= n):
        raise ContractViolation(f"k must be in [1, {n}], got {k}")
    fro = float(np.sqrt(np.sum(s * s)))
    if np.max(np.abs(s - s.T)) > _SYMMETRY_RTOL * max(fro, 1.0):
        raise ContractViolation("matrix is not symmetric within tolerance")

    nn = n * n
    buf = np.empty(2 * nn, dtype=np.float64)
    a = buf[:nn].reshape(n, n)
    v = buf[nn:].reshape(n, n)
    a[:] = (s + s.T) / 2.0
    v[:] = np.eye(n, dtype=np.float64)
    tol = _OFFDIAG_RTOL * fro

    converged = False
    residual = 0.0
    rotations = _rotation_plan(n)
    for _ in range(_MAX_SWEEPS):
        off = np.abs(a - np.diag(np.diag(a)))
        residual = float(off.max())
        if residual <= tol:
            converged = True
            break
        for pp, qq, pq, qp, lanes_p, lanes_q in rotations:
            apq = buf.item(pq)
            if abs(apq) <= tol:
                continue
            app = buf.item(pp)
            aqq = buf.item(qq)
            theta = (aqq - app) / (2.0 * apq)
            if theta >= 0.0:
                t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
            else:
                t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            sn = t * c

            aqp = buf.item(qp)
            f = buf[lanes_p]
            g = buf[lanes_q]
            buf[lanes_p] = c * f - sn * g
            buf[lanes_q] = sn * f + c * g

            # the lanes also write the 2x2 block, with values the row update
            # would not give; redo it as column update then row update
            app_c = c * app - sn * apq
            aqp_c = c * aqp - sn * aqq
            apq_c = sn * app + c * apq
            aqq_c = sn * aqp + c * aqq
            buf[pp] = c * app_c - sn * aqp_c
            buf[qq] = sn * apq_c + c * aqq_c
            buf[pq] = 0.0
            buf[qp] = 0.0

    if not converged:
        off = np.abs(a - np.diag(np.diag(a)))
        residual = float(off.max())
        if residual > tol:
            raise ConvergenceFailure(
                f"Jacobi sweep cap reached, off-diagonal residual {residual:.3e}"
            )

    values = np.diag(a).copy()
    order = np.argsort(-values, kind="stable")[:k]
    top_values = values[order]
    top_vectors = np.empty((n, k), dtype=np.float64)
    for j, col in enumerate(order):
        top_vectors[:, j] = _fix_sign(v[:, col])
    return top_values, top_vectors
