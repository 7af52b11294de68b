"""Synthetic latent-feature tasks with controllable distribution shift.

Source latents are an isotropic Gaussian mixture with one component per
class; the matching decoder is the exact posterior rule for that mixture, so
"well trained on source" holds by construction. Target sets are produced by
transforming source draws with a mean displacement and a linear map, the two
axes along which a shift can differ from the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoder import LinearDecoder
from .errors import ContractViolation, real_array
from .rng import Xoshiro256pp, derive_seed

# substream tags so every generator call gets an independent seed
_STREAM_MEANS = 0
_STREAM_SOURCE = 1
_STREAM_SHIFT_MEAN = 2
_STREAM_SHIFT_COV = 3


@dataclass(frozen=True)
class SyntheticTask:
    class_count: int
    dim: int
    class_means: np.ndarray      # (C, D)
    within_class_std: float
    seed: int
    min_pairwise_distance: float


@dataclass(frozen=True)
class ShiftSpec:
    """Affine target shift: rows map to A (z - mu) + mu + delta_mu."""

    mean_shift: np.ndarray           # (D,)
    covariance_transform: np.ndarray  # (D, D)
    label: str


def make_task(
    class_count: int = 10,
    dim: int = 64,
    mean_radius: float = 4.0,
    within_class_std: float = 1.0,
    seed: int = 0,
) -> SyntheticTask:
    """Draw class means uniformly on the sphere of the given radius."""
    if class_count < 2:
        raise ContractViolation("need at least 2 classes")
    if dim < 1 or not 0.0 < mean_radius < math.inf or not 0.0 <= within_class_std < math.inf:
        raise ContractViolation("invalid task geometry")
    rng = Xoshiro256pp(derive_seed(seed, _STREAM_MEANS))
    means = np.empty((class_count, dim))
    for c in range(class_count):
        g = rng.normals(dim)
        means[c] = mean_radius * g / np.linalg.norm(g)
    dists = [
        float(np.linalg.norm(means[i] - means[j]))
        for i in range(class_count)
        for j in range(i + 1, class_count)
    ]
    min_dist = min(dists)
    if min_dist <= 0.0:
        raise ContractViolation("degenerate task: coincident class means")
    return SyntheticTask(
        class_count=class_count,
        dim=dim,
        class_means=means,
        within_class_std=within_class_std,
        seed=seed,
        min_pairwise_distance=min_dist,
    )


def gen_source(
    task: SyntheticTask, n_per_class: int, stream: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample balanced class-major source latents with labels.

    ``stream`` selects an independent substream so multiple draws from the
    same task (train vs test) do not overlap. The rows' normals are drawn in
    row order by one ``normals`` call, which equals one call per row.
    """
    if n_per_class < 1:
        raise ContractViolation("n_per_class must be >= 1")
    rng = Xoshiro256pp(derive_seed(task.seed, _STREAM_SOURCE + 16 * stream))
    labels = np.repeat(np.arange(task.class_count, dtype=np.uint32), n_per_class)
    g = rng.normals(labels.size * task.dim).reshape(labels.size, task.dim)
    return task.class_means[labels] + task.within_class_std * g, labels


def make_decoder(task: SyntheticTask) -> LinearDecoder:
    """Exact posterior log-odds decoder for the source mixture."""
    if task.within_class_std <= 0.0:
        raise ContractViolation("decoder undefined for zero within-class std")
    return LinearDecoder.from_class_means(task.class_means, task.within_class_std ** 2)


def apply_shift(
    features: np.ndarray, source_mean: np.ndarray, spec: ShiftSpec
) -> np.ndarray:
    """Transform rows by the shift: A (z - mu) + mu + delta_mu."""
    features = real_array(features, "features")
    if features.ndim != 2:
        raise ContractViolation("features must be a 2-d array")
    d = features.shape[1]
    source_mean = real_array(source_mean, "source mean", (d,))
    if spec.covariance_transform.shape != (d, d) or spec.mean_shift.shape != (d,):
        raise ContractViolation("shift spec dimensions differ from features")
    # written as z + (A - I)(z - mu) + delta so the identity spec is exact
    residual_map = spec.covariance_transform - np.eye(d)
    return features + (features - source_mean) @ residual_map.T + spec.mean_shift


def identity_shift(dim: int, label: str = "identity") -> ShiftSpec:
    return ShiftSpec(
        mean_shift=np.zeros(dim), covariance_transform=np.eye(dim), label=label
    )


def preset_shifts(
    dim: int, severity: float, seed: int, std: float = 1.0
) -> list[ShiftSpec]:
    """Labeled shift presets scaled by ``severity``.

    mean-only: displacement of norm severity * sqrt(dim) * std in a random
    direction. cov-only: anisotropic scaling with per-axis factors drawn in
    [1/(1+severity), 1+severity], applied along random orthogonal axes.
    combined: both. Severity zero yields exact identity specs.
    """
    if not (0.0 <= severity < math.inf and 0.0 <= std < math.inf):
        raise ContractViolation("severity and std must be finite and >= 0")
    if severity == 0.0:
        return [
            identity_shift(dim, "mean-only"),
            identity_shift(dim, "cov-only"),
            identity_shift(dim, "combined"),
        ]

    rng_mean = Xoshiro256pp(derive_seed(seed, _STREAM_SHIFT_MEAN))
    direction = rng_mean.normals(dim)
    direction /= np.linalg.norm(direction)
    delta = direction * (severity * np.sqrt(dim) * std)

    rng_cov = Xoshiro256pp(derive_seed(seed, _STREAM_SHIFT_COV))
    gauss = rng_cov.normals(dim * dim).reshape(dim, dim)
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)  # make the rotation unique
    lo, hi = 1.0 / (1.0 + severity), 1.0 + severity
    scales = np.array([lo + (hi - lo) * rng_cov.random() for _ in range(dim)])
    transform = q @ np.diag(scales) @ q.T

    zero = np.zeros(dim)
    eye = np.eye(dim)
    return [
        ShiftSpec(mean_shift=delta, covariance_transform=eye, label="mean-only"),
        ShiftSpec(mean_shift=zero, covariance_transform=transform, label="cov-only"),
        ShiftSpec(mean_shift=delta, covariance_transform=transform, label="combined"),
    ]
