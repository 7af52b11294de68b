"""Quantized adaptation support: the fixed-point register kernel and the 1-bit
and fixed-point search machines.

Both machines are :class:`latentadapt.cmaes.CmaEs`. The 1-bit machine
collapses each float candidate to a single magnitude with per-element signs,
so the search reduces to flipping k switches. The fixed-point machine runs
over :class:`_FixedOps`, the one implementation of signed two's-complement
fixed-point arithmetic: round-to-nearest-even everywhere, saturating (never
wrapping) on overflow, on int64 register stacks of one
:class:`FixedPointFormat` whose leading axis is the machine's rows, each
row's saturations counted apart. The few steps that run in float (its sqrt
and exp stand in for hardware lookup tables) are named on
:class:`FixedCmaes`.

A sum of many terms (the mean step, the C^(-1/2) matvec, the squared path
length, the rank-mu update) is saturating adds from zero in index order,
computed as int64 prefix sums (exact, every term fitting in 32 bits); only
the sums whose prefixes leave the range are replayed, one add at a time. No product or shifted numerator exceeds 2^62 in
magnitude. A zero register times anything is 0, and adding 0 neither
changes a register nor counts a saturation, so the zero coefficients of the
h_sigma gate give the bits of skipping its terms. Division is only by
positive registers (each row's sigma, clamped to at least 1, and chi).

A row's covariance decomposition clamps its eigenvalues up to the
resolution and tabulates C^(-1/2). A row starts with that of its initial
register (the identity, or below it where 1.0 saturates) and keeps it while
the register stays unchanged bit for bit, as always when c_1 and c_mu round
to 0 and 1-c_1-c_mu to 1: such a search never calls the eigensolver.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cmaes import _CONSTANTS, CmaEs, CmaEsParams, Decomposition
from .errors import ContractViolation

_FMT_RE = re.compile(r"^(\d+)b(\d+)$")


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point layout: 1 sign bit, ``integer_bits``, rest fraction.

    The integer-bit count excludes the sign bit, so an ``x``-bit format with
    ``y`` integer bits has ``x - 1 - y`` fractional bits and covers
    [-2^y, 2^y - 2^-(x-1-y)].
    """

    total_bits: int
    integer_bits: int

    def __post_init__(self):
        if not (4 <= self.total_bits <= 32):
            raise ContractViolation("total bits must be in [4, 32]")
        if not (0 <= self.integer_bits <= self.total_bits - 1):
            raise ContractViolation("integer bits must be in [0, total-1]")

    @classmethod
    def parse(cls, text: str) -> "FixedPointFormat":
        """Parse the ``xby`` notation, e.g. ``8b4``."""
        m = _FMT_RE.match(text.strip())
        if not m:
            raise ContractViolation(f"bad fixed-point format {text!r}, expected e.g. 8b4")
        return cls(total_bits=int(m.group(1)), integer_bits=int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.total_bits}b{self.integer_bits}"

    @property
    def frac_bits(self) -> int:
        return self.total_bits - 1 - self.integer_bits

    @property
    def resolution(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.raw_min * self.resolution

    @property
    def max_value(self) -> float:
        return self.raw_max * self.resolution


def quantize_binary(p: np.ndarray, magnitude) -> np.ndarray:
    """Collapse each element to +magnitude or -magnitude by sign (0 maps to +).
    ``magnitude`` is a float, or an array that broadcasts against ``p``, such
    as one magnitude per row."""
    magnitude = np.asarray(magnitude, dtype=np.float64)
    if not (np.isfinite(magnitude).all() and (magnitude > 0.0).all()):
        raise ContractViolation("magnitude must be finite and > 0")
    p = np.asarray(p, dtype=np.float64)
    return np.where(p >= 0.0, magnitude, -magnitude)


class BinaryCmaes(CmaEs):
    """Float CMA-ES whose candidates are snapped to 1-bit corrections.

    Each candidate collapses to ``alpha`` times its signs, with ``alpha``
    the row's step size at ask time unless pinned. The optimizer ranks the
    raw candidates, or the snapped ones with ``feedback``.
    """

    def __init__(self, params: CmaEsParams, seed, alpha: Optional[float] = None,
                 feedback: bool = False):
        super().__init__(params, seed)
        self.alpha = alpha
        self.feedback = feedback

    def ask(self) -> np.ndarray:
        alpha = self.sigma[:, None, None] if self.alpha is None else self.alpha
        points = quantize_binary(super().ask(), alpha)
        if self.feedback:
            self._candidates = points
        return points


class _FixedOps:
    """Raw-integer fixed-point arithmetic on int64 scalars or arrays, every
    result saturated back to the format range. ``saturations`` holds one
    count per row: a clipped element of a result whose leading axis is the
    ``rows`` counts for its row, and of any other result (a constant all
    rows share) for every row."""

    def __init__(self, fmt: FixedPointFormat, rows: int = 1):
        self.fmt = fmt
        self.f = fmt.frac_bits
        self.saturations = np.zeros(rows, dtype=np.int64)
        self._lo = fmt.raw_min
        self._hi = fmt.raw_max
        self._scale = float(1 << self.f)
        self._round = (1 << (self.f - 1)) - 1 if self.f > 0 else 0

    def _count(self, hits) -> None:
        """Add ``hits``, clipped elements or counts shaped like a result."""
        if np.ndim(hits) and len(hits) == len(self.saturations):
            self.saturations += hits.reshape(len(hits), -1).sum(axis=1)
        else:
            self.saturations += np.sum(hits)

    def _in_range(self, raw) -> bool:
        # positional axis and no ``initial``: the reductions' fastest call
        return raw.size == 0 or bool(np.minimum.reduce(raw, None) >= self._lo
                                     and np.maximum.reduce(raw, None) <= self._hi)

    def _sat(self, raw):
        # every caller passes a fresh array, so an in-range one is returned as is
        if self._in_range(raw):
            return raw
        clipped = np.minimum(np.maximum(raw, self._lo), self._hi)
        self._count(clipped != raw)
        return clipped

    def quantize(self, x):
        """Round onto the grid, ties to even, then saturate (+-inf too); NaN is
        refused."""
        scaled = np.rint(np.multiply(x, self._scale, dtype=np.float64))
        # NaN fails the range test too, so the common case pays no separate scan
        if self._in_range(scaled):
            return scaled.astype(np.int64)
        if np.isnan(scaled).any():
            raise ContractViolation("cannot quantize NaN")
        return self._sat(scaled).astype(np.int64)

    def to_float(self, raw):
        return np.multiply(raw, self.fmt.resolution, dtype=np.float64)

    def add(self, a, b):
        return self._sat(a + b)

    def sum(self, terms, axis=0):
        """Saturating running sum from zero along ``axis``: one :meth:`add`
        per term, in order. Every term is in range, so the int64 prefix sums
        cannot overflow, and a sum none of whose prefixes leaves the range is
        its last prefix. Only the sums whose prefixes leave it, found by mask,
        are replayed one add at a time (saturating addition is not
        associative); they are few, so the replay runs on Python ints."""
        terms = np.asarray(terms, dtype=np.int64)
        prefix = terms.cumsum(axis=axis)
        total = prefix[(slice(None),) * (axis % terms.ndim) + (-1,)]  # a view of the fresh prefix
        if self._in_range(prefix):
            return total
        prefix = np.moveaxis(prefix, axis, -1)
        leaving = (prefix.min(axis=-1) < self._lo) | (prefix.max(axis=-1) > self._hi)
        total, hits, replayed = np.array(total), np.zeros(leaving.shape, np.int64), []
        for lane in np.moveaxis(terms, axis, -1)[leaving].tolist():
            run = hit = 0
            for term in lane:
                run, raw = min(max(run + term, self._lo), self._hi), run + term
                hit += run != raw
            replayed.append((run, hit))
        total[leaving], hits[leaving] = zip(*replayed)
        self._count(hits)
        return total

    def sub(self, a, b):
        return self._sat(a - b)

    def _rhe_shift(self, p):
        """p / 2^f rounded to nearest, ties to even: adding 2^(f-1) - 1 plus
        the quotient's low bit carries into the quotient exactly when the
        remainder is above half, or is half and the quotient is odd. Leaves
        ``p`` as it is."""
        if self.f == 0:
            return p
        q = p >> self.f
        q &= 1
        q += p
        q += self._round
        q >>= self.f
        return q

    def mul(self, a, b):
        return self._sat(self._rhe_shift(a * b))

    def div(self, a, b):
        """a / b in the format, for positive registers b that broadcast
        against a (the machine divides only by each row's sigma, clamped to
        at least 1, and by chi), rounded to nearest, ties to even: the
        quotient goes up when twice the remainder plus its low bit exceeds b."""
        if not np.greater(b, 0).all():
            raise ContractViolation("fixed-point division needs positive registers")
        q, r = divmod(a << self.f, b)
        r <<= 1
        r += q & 1
        q += r > b
        return self._sat(q)

    def halve(self, raw):
        """Divide by two with round-to-nearest-even (cannot saturate): the
        :meth:`_rhe_shift` rule with f = 1."""
        q = np.right_shift(raw, 1, dtype=np.int64)
        q &= 1
        q += raw
        q >>= 1
        return q

    def exp(self, raw):
        """exp in float on each register's value, requantized."""
        return self.quantize(np.exp(self.to_float(raw)))

    def norm(self, v):
        """The length of each row's register vector: its squared length
        summed in the format, then a float square root requantized."""
        return self.quantize(np.sqrt(self.to_float(self.sum(self.mul(v, v), axis=-1))))

    def weighted_sum(self, w, y):
        """sum_i w_i y_i of each row, one rounded product per element, summed
        in order."""
        return self.sum(self.mul(w[:, None], y), axis=1)

    def rank_mu(self, w, y):
        """sum_i w_i y_i y_i^T of each row, each outer product and its
        weighting rounded."""
        return self.sum(self.mul(w[:, None, None], self.mul(y[..., None], y[:, :, None])),
                        axis=1)

    def invsqrt_times(self, dec: Decomposition, v):
        """C^(-1/2) v as a fixed matvec on each row's table, whose saturations
        count again on every use."""
        self.saturations += dec.invsqrt_saturations
        return self.sum(self.mul(dec.invsqrt, v[:, None, :]), axis=2)

    def floor_sigma(self, sigma):
        """Each row's sigma clamped up to 1 raw, and whether it was clamped."""
        clamped = sigma <= 0
        return np.where(clamped, 1, sigma), clamped

    def decomposition(self, values, vectors) -> tuple[Decomposition, dict]:
        """The rows' decompositions from their (B, k) eigenvalues and (B, k, k)
        eigenvectors: the eigenvalues clamped up to the resolution, and
        C^(-1/2) tabulated in float from them and quantized. No row fails."""
        table = _FixedOps(self.fmt, len(values))  # counts the tables' saturations alone
        floor = self.fmt.resolution
        scale = np.sqrt(np.maximum(values, floor))
        invsqrt = table.quantize(vectors @ ((1.0 / scale)[:, :, None] * np.swapaxes(vectors, 1, 2)))
        return Decomposition(vectors, scale, np.count_nonzero(values < floor, axis=1),
                             invsqrt, table.saturations), {}


class FixedCmaes(CmaEs):
    """CMA-ES over fixed-point registers: :class:`CmaEs` over
    :class:`_FixedOps` of ``fmt``. The state and its update are fixed-point
    arithmetic except for these float steps, each quantized after: ``ask``
    forms mean + sigma * B D z in float; ``exp`` and ``norm`` take float
    ``exp`` and ``sqrt`` of a register; the h_sigma test compares in float;
    and the decomposition is the float Jacobi solver, from whose eigenpairs
    C^(-1/2) is tabulated in float.

    The baseline is quantized onto the grid, and each candidate is evaluated
    at its exact fixed-point value as a float. ``quant_warnings`` holds each
    row's saturation, sigma-clamp and eigenvalue-clamp counts.
    """

    def __init__(self, params: CmaEsParams, fmt: FixedPointFormat, seed):
        super().__init__(params, seed, _FixedOps(fmt, np.size(seed)))

    def keep(self, rows) -> None:
        super().keep(rows)
        self.ops.saturations = self.ops.saturations[rows]

    @property
    def quant_warnings(self) -> dict:
        return {"saturations": self.ops.saturations.copy(),
                "sigma_clamps": self.sigma_clamps.copy(), "eig_clamps": self.eig_clamps.copy()}


def quantization_health(params: CmaEsParams, fmt: FixedPointFormat) -> str:
    """One summary line on what quantizing the strategy constants did.

    Lists the constants whose register value is exactly 0 or 1 although the
    real value is not (c_1 and c_mu at 0 switch covariance adaptation off),
    and the sum of the quantized recombination weights, which should be 1.
    Where the quantized covariance coefficients 1-c_1-c_mu, c_1 and c_mu do
    not sum to 1, the covariance shrinks or grows with no adaptation at all,
    and their sum is appended.
    """
    machine = FixedCmaes(params, fmt, 0)  # the registers every machine starts from
    unit = 1 << fmt.frac_bits  # raw value of exactly 1 (out of range if no integer bits)
    degenerate = []
    for attr, label, value in _CONSTANTS:
        real, raw = value(params), getattr(machine, attr)
        if raw in (0, unit) and real != raw / unit:
            degenerate.append(f"{label}->{raw // unit}")
    weight_sum = float(np.sum(machine.ops.to_float(machine.w)))
    sums = [f"recombination weight sum: {weight_sum:g}"]
    coef_sum = machine.base_coef + machine.c1 + machine.cmu
    if coef_sum != unit:
        sums.append(f"covariance coefficient sum: {coef_sum / unit:g}")
    return f"strategy constants at 0 or 1: {', '.join(degenerate) or 'none'} ({'; '.join(sums)})"
