"""Source principal subspace: fitting, projection, and coordinate correction.

The subspace is the span of the top-k eigenvectors of the raw scatter matrix
of the centered source features. Only the mean and the basis matter to the
adaptation loop; singular values are kept for inspection. A latent is
corrected by adding a k-vector of coordinates expressed in the basis, which
shifts its subspace coordinates by exactly that vector and leaves the
orthogonal complement untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractViolation

_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class PrincipalSubspace:
    """Immutable fitted subspace: mean, orthonormal basis, singular values."""

    mean: np.ndarray            # (D,)
    basis: np.ndarray           # (D, k), orthonormal columns
    singular_values: np.ndarray  # (k,), non-increasing, >= 0
    source_count: int
    rank_deficient: bool = False

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def truncated(self, k: int) -> "PrincipalSubspace":
        """Restrict to the leading ``k`` directions of an existing fit."""
        if not (1 <= k <= self.k):
            raise ContractViolation(f"k must be in [1, {self.k}], got {k}")
        if k == self.k:
            return self
        return PrincipalSubspace(
            mean=self.mean,
            basis=self.basis[:, :k].copy(),
            singular_values=self.singular_values[:k].copy(),
            source_count=self.source_count,
            rank_deficient=self.rank_deficient,
        )


def real_array(x, name: str) -> np.ndarray:
    """``x`` as a float array if it is a real numeric array (integers or
    floats), else :class:`ContractViolation`: a bool, complex, string or
    object array, or a ragged nesting, is refused, never cast."""
    try:
        a = np.asarray(x)
    except ValueError as exc:  # ragged
        raise ContractViolation(f"{name} must be a real numeric array") from exc
    if a.dtype.kind not in "iuf":
        raise ContractViolation(f"{name} must be a real numeric array, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def fit(source_features: np.ndarray, k: int) -> PrincipalSubspace:
    """Fit the principal subspace of ``source_features`` (rows are samples).

    The mean is the column-wise average; the basis comes from the
    eigendecomposition of the raw scatter matrix of the centered rows, with
    singular values sqrt(eigenvalue). Requires N >= 2 and k <= min(N-1, D).
    A near-zero trailing eigenvalue is flagged on the result, not raised.
    """
    z = real_array(source_features, "source features")
    if z.ndim != 2:
        raise ContractViolation("source features must be a 2-d array")
    n, d = z.shape
    if n < 2:
        raise ContractViolation("need at least 2 source samples")
    if not (1 <= k <= min(n - 1, d)):
        raise ContractViolation(
            f"k must be in [1, min(N-1, D)] = [1, {min(n - 1, d)}], got {k}"
        )
    if not np.all(np.isfinite(z)):
        raise ContractViolation("source features contain non-finite entries")

    mean = z.mean(axis=0)
    centered = z - mean
    scatter = centered.T @ centered
    eigenvalues, basis = linalg.sym_eig(scatter, k)
    singular_values = np.sqrt(np.maximum(eigenvalues, 0.0))
    leading = float(eigenvalues[0])
    trailing = float(eigenvalues[-1])
    rank_deficient = leading <= 0.0 or trailing < _RANK_RTOL * leading
    return PrincipalSubspace(
        mean=mean,
        basis=basis,
        singular_values=singular_values,
        source_count=n,
        rank_deficient=rank_deficient,
    )


def _check_latent(s: PrincipalSubspace, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (s.dim,):
        raise ContractViolation(f"latent must have shape ({s.dim},), got {z.shape}")
    return z


def _check_coords(s: PrincipalSubspace, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (s.k,):
        raise ContractViolation(f"coordinates must have shape ({s.k},), got {p.shape}")
    return p


def project(s: PrincipalSubspace, z: np.ndarray) -> np.ndarray:
    """Coordinates of ``z`` in the subspace: (z - mean) dotted onto the basis."""
    z = _check_latent(s, z)
    return (z - s.mean) @ s.basis


def reconstruct(s: PrincipalSubspace, p: np.ndarray) -> np.ndarray:
    """Latent with subspace coordinates ``p``: mean + basis combination."""
    p = _check_coords(s, p)
    return s.mean + s.basis @ p


def apply_correction(s: PrincipalSubspace, z_t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Shift the latent's subspace coordinates by ``p``.

    Equivalent to adding the basis combination of ``p`` to ``z_t``; the
    component of ``z_t`` orthogonal to the subspace is unchanged.
    """
    z_t = _check_latent(s, z_t)
    p = _check_coords(s, p)
    return z_t + s.basis @ p
