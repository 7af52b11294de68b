"""Frozen linear-softmax classification head and the entropy objective.

:func:`fitness` runs once per evaluated candidate and returns the entropy
alone, as a float: it checks its inputs once and computes the corrected
latent and the logits inline, with the same arithmetic as
``decode(apply_correction(...))``, and builds no :class:`Prediction`. Past
those checks the softmax and the entropy take the float64 arrays as they
are, with no re-wrapping, and reduce them by direct ufunc calls over every
axis (``np.add.reduce(x, None)`` is what ``x.sum()`` runs, bit for bit). The
entropy skips the ``0 * log 0`` masking when every probability is positive,
is NaN when any is NaN, and is +0.0, never -0.0, when every term is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .subspace import PrincipalSubspace, _check_coords, _check_latent


@dataclass(frozen=True)
class LinearDecoder:
    """Linear head mapping a latent to class logits. Never updated."""

    weights: np.ndarray  # (C, D)
    bias: np.ndarray     # (C,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 2:
            raise ContractViolation("weights must be (C, D) with C >= 2")
        if b.shape != (w.shape[0],):
            raise ContractViolation("bias length must equal class count")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ContractViolation("decoder parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @classmethod
    def from_class_means(cls, means: np.ndarray, var: float) -> "LinearDecoder":
        """Posterior log-odds head for equally likely Gaussian classes with
        these means and a shared isotropic variance ``var``."""
        return cls(weights=means / var, bias=-np.sum(means ** 2, axis=1) / (2.0 * var))

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class Prediction:
    logits: np.ndarray
    probabilities: np.ndarray
    predicted_class: int
    entropy: float


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max logit subtracted before exp)."""
    return _softmax(np.asarray(logits, dtype=np.float64))


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - np.maximum.reduce(logits, None))
    return e / np.add.reduce(e, None)


def shannon_entropy(probabilities: np.ndarray) -> float:
    """Entropy in nats, with the 0 * log 0 = 0 convention."""
    return _entropy(np.asarray(probabilities, dtype=np.float64))


def _entropy(p: np.ndarray) -> float:
    if p.size == 0 or np.minimum.reduce(p, None) > 0.0:
        # no zero terms: the same products and sum as the masked form below
        return 0.0 - float(np.add.reduce(p * np.log(p), None))
    if np.isnan(p).any():  # overflowed logits: no entropy, not a confident one
        return float("nan")
    positive = p > 0.0
    terms = np.where(positive, p * np.log(np.where(positive, p, 1.0)), 0.0)
    return 0.0 - float(np.add.reduce(terms, None))  # 0 - sum: +0, not -0, when every term is 0


def decode(d: LinearDecoder, z: np.ndarray) -> Prediction:
    """Forward pass: logits, probabilities, argmax class, and entropy."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (d.dim,):
        raise ContractViolation(f"latent must have shape ({d.dim},), got {z.shape}")
    logits = d.weights @ z + d.bias
    probabilities = _softmax(logits)
    return Prediction(
        logits=logits,
        probabilities=probabilities,
        predicted_class=int(probabilities.argmax()),
        entropy=_entropy(probabilities),
    )


def fitness(
    d: LinearDecoder,
    s: PrincipalSubspace,
    z_t: np.ndarray,
    p: np.ndarray,
) -> float:
    """Entropy of the prediction after correcting ``z_t`` by ``p``.

    Equal to ``decode(d, apply_correction(s, z_t, p)).entropy``, with the
    same checks and the same arithmetic, computed inline: this runs once per
    evaluation.
    """
    z_t = _check_latent(s, z_t)
    p = _check_coords(s, p)
    if d.dim != s.dim:
        raise ContractViolation("decoder and subspace dimensions differ")
    return _entropy(_softmax(d.weights @ (z_t + s.basis @ p) + d.bias))
