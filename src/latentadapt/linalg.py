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

:func:`sym_eig_many` is the one sweep driver, and :func:`sym_eig` is it on
a stack of one matrix. It takes a ``(B, n, n)`` stack and returns stacks: the
``(B, k)`` eigenvalues, the ``(B, n, k)`` eigenvectors and the failures by
position, a matrix that is not finite, whose Frobenius norm overflows or
that is not symmetric being set aside by mask before any sweep. It keeps
the lane matrices of all its matrices as one ``(n, 2n, B)`` stack, the
stack axis last, tests each iterate's residual once per sweep, and picks
the kernel of each sweep from the number of iterates not yet converged.
From ``_STACK_MIN`` = 10 on, the crossover measured for 16 x 16
covariances (``BENCH_15.json``), one sweep is one array operation per step
over all of them: the same rotation plan with the rotation parameters
computed for all at once by the same IEEE operations (``np.sqrt``, like
``math.sqrt``, is correctly rounded), and a matrix whose pivot is within its
tolerance keeps its lanes by selection. Fewer live iterates are each swept
alone, in scalar arithmetic on a contiguous copy of their lane matrix, which
costs about a seventh of a sweep of a one-matrix stack. A converged iterate
leaves the sweeps, so no arithmetic touches it, and every matrix gets the
same bits in any stack and under either kernel.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ContractViolation, ConvergenceFailure

_SYMMETRY_RTOL = 1e-9
_OFFDIAG_RTOL = 1e-12
_MAX_SWEEPS = 100
_STACK_MIN = 10  # fewer live iterates are swept one at a time; see sym_eig_many


def _top_pairs(values: np.ndarray, vt: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix of a stack, given its (B, n) eigenvalues and its
    eigenvectors as the rows of ``vt[b]``: the ``k`` largest eigenvalues in
    non-increasing order, ties in index order, as a (B, k) array, and their
    eigenvectors as the columns of a C-contiguous (B, n, k) array, each with
    its largest-magnitude component positive (ties to the lowest index, as
    argmax takes the first maximum)."""
    order = np.argsort(-values, axis=1, kind="stable")[:, :k]
    top_values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(vt, order[:, :, None], axis=1)
    peak = np.abs(vectors).argmax(axis=2)[:, :, None]
    flip = np.take_along_axis(vectors, peak, axis=2) < 0.0
    vectors = np.where(flip, -vectors, vectors).transpose(0, 2, 1)
    return top_values, np.ascontiguousarray(vectors)


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
    values, vectors, errors = sym_eig_many(np.asarray(s, dtype=np.float64)[None], k)
    if errors:
        raise errors[0]
    return values[0], vectors[0]


def sym_eig_many(stack: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """:func:`sym_eig` of each matrix of a (B, n, n) stack, n >= 1: the
    (B, k) eigenvalues, the (B, n, k) eigenvectors and, by position, the
    :class:`ContractViolation` or :class:`ConvergenceFailure` that
    :func:`sym_eig` raises for a matrix, whose entries are then no
    eigenpairs. Any other stack, or a ``k`` outside [1, n], is refused whole.

    A matrix that is not finite, whose Frobenius norm overflows or that is
    not symmetric is set aside by mask before any sweep. Each sweep drops
    the converged iterates and rotates the rest: as one stack while at least
    ``_STACK_MIN`` are live, else each alone.
    """
    s = np.asarray(stack, dtype=np.float64)
    if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape[1] == 0:
        raise ContractViolation(f"need a stack of non-empty square matrices, got {s.shape}")
    b, n = s.shape[:2]
    if not (1 <= k <= n):
        raise ContractViolation(f"k must be in [1, {n}], got {k}")
    finite = np.isfinite(s).all(axis=(1, 2))
    s = np.where(finite[:, None, None], s, 0.0)  # a zero matrix is never swept
    with np.errstate(over="ignore"):
        fros = np.sqrt(np.sum(s * s, axis=(1, 2)))
    overflows = fros == np.inf  # entries past about 1e154: inf would pass every residual
    s[overflows], fros[overflows] = 0.0, 0.0
    asymmetric = np.abs(s - s.transpose(0, 2, 1)).max(axis=(1, 2)) \
        > _SYMMETRY_RTOL * np.maximum(fros, 1.0)
    s[asymmetric] = 0.0
    errors = {j: ContractViolation("s contains non-finite entries" if not finite[j]
                                   else "s is too large: Frobenius norm overflows" if overflows[j]
                                   else "matrix is not symmetric within tolerance")
              for j in np.flatnonzero(~finite | overflows | asymmetric).tolist()}

    lanes = np.empty((n, 2 * n, b), dtype=np.float64)
    lanes[:, :n] = (s + s.transpose(0, 2, 1)).transpose(1, 2, 0) / 2.0
    lanes[:, n:] = np.eye(n, dtype=np.float64)[:, :, None]
    tol = _OFFDIAG_RTOL * fros

    live = np.arange(b)
    for _ in range(_MAX_SWEEPS):
        live = live[~(_residuals(lanes[:, :, live]) <= tol[live])]
        if not live.size:
            break
        if live.size < _STACK_MIN:
            for j in live.tolist():
                one = np.ascontiguousarray(lanes[:, :, j])
                _sweep_one(one, tol.item(j))
                lanes[:, :, j] = one
        elif live.size == b:
            _sweep(lanes, tol)
        else:
            block = lanes.take(live, 2)  # C order, as ``_sweep`` takes lanes fastest
            _sweep(block, tol[live])
            lanes[:, :, live] = block
    else:
        residuals = _residuals(lanes[:, :, live])
        capped = residuals > tol[live]
        for j, residual in zip(live[capped].tolist(), residuals[capped]):
            errors[j] = ConvergenceFailure(
                f"Jacobi sweep cap reached, off-diagonal residual {residual:.3e}")

    diagonals = lanes.reshape(2 * n * n, b)[:: 2 * n + 1].T
    values, vectors = _top_pairs(diagonals, lanes[:, n:].transpose(2, 0, 1), k)
    return values, vectors, dict(sorted(errors.items()))


def _residuals(lanes: np.ndarray) -> np.ndarray:
    """Largest off-diagonal magnitude of each iterate in an (n, 2n, B) stack."""
    n = lanes.shape[0]
    off = np.abs(lanes[:, :n])
    off.reshape(n * n, -1)[:: n + 1] = 0.0
    return off.max(axis=(0, 1))


def _sweep_one(lanes: np.ndarray, tol: float) -> None:
    """One cyclic sweep of rotations over one C-contiguous (n, 2n) lane
    matrix, in place, in scalar arithmetic for the rotation parameters."""
    n = lanes.shape[0]
    buf = lanes.reshape(-1)
    a_cols = lanes[:, :n].T
    coef = np.empty((4, 1), dtype=np.float64)
    coef_flat = coef[:, 0]
    take = lanes.take
    prod = np.empty((4, 2 * n), dtype=np.float64)
    top = prod[:2]
    bottom = prod[2:]
    top_a = prod[:2, :n]
    for pp, qq, pq, qp, rows, pair in _rotation_plan(n):
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


def _sweep(lanes: np.ndarray, tol: np.ndarray) -> None:
    """One cyclic sweep of :func:`_sweep_one`'s rotations over an (n, 2n, B)
    stack of lane matrices, in place.

    The rotation parameters are computed for every matrix at once with the
    same IEEE operations as the scalar ones (``np.sqrt`` is correctly
    rounded, as ``math.sqrt`` is). A matrix whose pivot is within its
    tolerance keeps its lanes and pivot block by selection, so that no
    arithmetic touches it.
    """
    n, w, m = lanes.shape
    flat = lanes.reshape(n * w, m)
    a_cols = lanes[:, :n].transpose(1, 0, 2)
    coef = np.empty((4, 1, m), dtype=np.float64)
    prod = np.empty((4, w, m), dtype=np.float64)
    top = prod[:2]
    bottom = prod[2:]
    top_a = top[:, :n]
    corner = np.empty((4, m), dtype=np.float64)
    corner[2:] = 0.0
    # a matrix that skips a pivot may divide by its zero pivot; its values
    # are computed, then discarded by the selections below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for pp, qq, pq, qp, rows, pair in _rotation_plan(n):
            corners = [pp, qq, pq, qp]
            old = flat[corners]
            app, aqq, apq, aqp = old
            turn = ~(np.abs(apq) <= tol)
            if not turn.any():
                continue
            theta = (aqq - app) / (2.0 * apq)
            t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t = np.where(theta >= 0.0, t, -t)
            c = 1.0 / np.sqrt(t * t + 1.0)
            sn = t * c

            coef[0, 0] = coef[1, 0] = c
            coef[2, 0] = -sn
            coef[3, 0] = sn
            lanes.take(rows, 0, prod, "clip")
            prod *= coef
            top += bottom
            if turn.all():
                lanes[pair] = top
                a_cols[pair] = top_a
            else:
                new = np.where(turn, top, lanes[pair])
                lanes[pair] = new
                a_cols[pair] = new[:, :n]

            app_c = c * app - sn * apq
            aqp_c = c * aqp - sn * aqq
            apq_c = sn * app + c * apq
            aqq_c = sn * aqp + c * aqq
            corner[0] = c * app_c - sn * aqp_c
            corner[1] = sn * apq_c + c * aqq_c
            flat[corners] = np.where(turn, corner, old)
