"""Dense linear algebra: a deterministic symmetric eigensolver.

The eigensolver is a cyclic Jacobi iteration rather than a LAPACK call so
that eigenvector signs and tie handling are fully specified: downstream file
artifacts must be byte-stable across reruns, and eigenvectors are otherwise
only defined up to sign.

The solver works on one ``(n, 2n)`` lane matrix: row ``p`` holds row ``p``
of the iterate ``a`` and then column ``p`` of the eigenvectors ``v``. ``a``
starts as ``(s + s.T) / 2``, which is exactly symmetric, and the textbook
column and row updates give mirrored entries the same expression on the same
operands, so ``a`` stays exactly symmetric and a rotation's column update is
the transpose of its row update. A rotation takes lane rows ``p, q, q, p``
into a preallocated ``(4, 2n)`` product, scales it by ``c, c, -sn, sn``, adds
the bottom half into the top, and writes the two new lanes back as rows
``p, q`` and their ``a`` part as columns ``p, q``; the 2x2 pivot block is then
redone in scalar arithmetic. Negation is exact and addition commutes, so
``c*f + (-sn)*g`` and ``c*g + sn*f`` equal ``c*f - sn*g`` and ``sn*f + c*g``:
every element follows the textbook cyclic Jacobi order (full column update,
then full row update, then the eigenvector update) bit for bit, with five
array steps per rotation and ``O(n^2)`` memory.
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
    """Indices for every rotation ``(p, q)`` in cyclic order.

    Per pair: where ``a[p, p]``, ``a[q, q]``, ``a[p, q]`` and ``a[q, p]``
    sit in the flattened lane matrix, the four lane rows ``[p, q, q, p]`` to
    take and the slice of rows ``p, q`` to write; a fixed size per pair.
    """
    w = 2 * n
    plan = []
    for p in range(n - 1):
        for q in range(p + 1, n):
            rows = np.array([p, q, q, p], dtype=np.intp)
            rows.flags.writeable = False
            plan.append((p * w + p, q * w + q, p * w + q, q * w + p, rows, slice(p, q + 1, q - p)))
    return tuple(plan)


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

    lanes = np.empty((n, 2 * n), dtype=np.float64)
    buf = lanes.reshape(-1)
    a = lanes[:, :n]
    vt = lanes[:, n:]
    a[:] = (s + s.T) / 2.0
    vt[:] = np.eye(n, dtype=np.float64)
    a_cols = a.T
    tol = _OFFDIAG_RTOL * fro

    converged = False
    residual = 0.0
    rotations = _rotation_plan(n)
    coef = np.empty((4, 1), dtype=np.float64)
    coef_flat = coef[:, 0]
    take = lanes.take
    prod = np.empty((4, 2 * n), dtype=np.float64)
    top = prod[:2]
    bottom = prod[2:]
    top_a = prod[:2, :n]
    for _ in range(_MAX_SWEEPS):
        off = np.abs(a - np.diag(np.diag(a)))
        residual = float(off.max())
        if residual <= tol:
            converged = True
            break
        for pp, qq, pq, qp, rows, pair in rotations:
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
            coef_flat[0] = coef_flat[1] = c
            coef_flat[2] = -sn
            coef_flat[3] = sn
            # rows f, g, g, f scaled and summed in halves: c*f + (-sn)*g
            # into lane p and c*g + sn*f into lane q; the rows are always in
            # range, and mode "raise" would copy the output through a buffer
            take(rows, 0, prod, "clip")
            prod *= coef
            top += bottom
            lanes[pair] = top
            # a stays exactly symmetric, so its columns p, q take the new rows
            a_cols[pair] = top_a

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
        top_vectors[:, j] = _fix_sign(vt[col])
    return top_values, top_vectors
