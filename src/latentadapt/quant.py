"""Quantized adaptation support: the fixed-point register kernel and the 1-bit
and fixed-point search machines.

Both machines are :class:`latentadapt.cmaes.CmaEs` and run under
:func:`latentadapt.cmaes.search`. The 1-bit machine collapses each float
candidate to a single magnitude with per-element signs, so the search
reduces to flipping k switches. The fixed-point machine is the same machine
over :class:`_FixedOps`, which holds every state component and strategy
constant in signed two's-complement fixed-point arithmetic:
round-to-nearest-even everywhere, saturating (never wrapping) on overflow.
:class:`_FixedOps` is the one implementation of that arithmetic; it works on
raw int64 registers, scalars or arrays, of one :class:`FixedPointFormat`.
Sampling noise stays in floating point and is quantized on arrival; scalar
transcendentals (sqrt, exp) are evaluated in float on the fixed-point
operand and requantized, standing in for the lookup tables real hardware
would use.

The register arithmetic is vectorized without changing a bit of it. A sum of
many terms (the weighted mean step, the C^(-1/2) matvec, the squared path
length, the rank-mu update) is defined as saturating adds from zero in index
order; it is computed as int64 prefix sums, which are exact because every
term fits in 32 bits, and the adds are replayed one at a time only where a
prefix leaves the range, since saturating addition is not associative. The
same ops take the scalar registers of a generation (the path length, sigma
and the h_sigma test) as Python ints, which agree with int64 because no
product or shifted numerator of a format of at most 32 bits exceeds 2^62 in
magnitude. A zero register times anything is 0, and adding 0 neither
changes a register nor counts a saturation, so the zero coefficients of the
h_sigma gate give the bits of skipping its terms.

The decomposition of the covariance register clamps its eigenvalues up to
the resolution and tabulates C^(-1/2); the machine keeps it while the
register stays unchanged bit for bit, as in every generation when c_1 and
c_mu round to 0 and 1-c_1-c_mu to 1.

A result already in range is returned without clipping, which gives the same
bits and counts. Division is only ever by one positive register (sigma,
clamped to at least 1, and chi), so it has no sign flip or zero guard and
refuses any other denominator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

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


def quantize_binary(p: np.ndarray, magnitude: float) -> np.ndarray:
    """Collapse each element to +magnitude or -magnitude by sign (0 maps to +)."""
    if not (math.isfinite(magnitude) and magnitude > 0.0):
        raise ContractViolation("magnitude must be finite and > 0")
    p = np.asarray(p, dtype=np.float64)
    return np.where(p >= 0.0, magnitude, -magnitude)


class BinaryCmaes(CmaEs):
    """Float CMA-ES whose candidates are snapped to 1-bit corrections.

    Each candidate collapses to ``alpha`` times its signs, with ``alpha``
    the step size at ask time unless pinned. The optimizer ranks the raw
    candidates, or the snapped ones with ``feedback``.
    """

    def __init__(self, params: CmaEsParams, seed: int, alpha: Optional[float] = None,
                 feedback: bool = False):
        super().__init__(params, seed)
        self.alpha = alpha
        self.feedback = feedback

    def ask(self, noise: Optional[np.ndarray] = None) -> np.ndarray:
        raw = super().ask(noise)
        points = quantize_binary(raw, self.alpha if self.alpha is not None else self.sigma)
        if self.feedback:
            self._candidates = points
        return points


class _FixedOps:
    """Raw-integer fixed-point arithmetic with saturation counting.

    Raw values are Python ints or int64 scalars or arrays; every result is
    saturated back to the format range, and each clipped element increments
    ``saturations``.
    """

    def __init__(self, fmt: FixedPointFormat):
        self.fmt = fmt
        self.f = fmt.frac_bits
        self.saturations = 0
        self._lo = fmt.raw_min
        self._hi = fmt.raw_max
        self._scale = float(1 << self.f)
        self._round = (1 << (self.f - 1)) - 1 if self.f > 0 else 0

    def _in_range(self, raw) -> bool:
        if raw.ndim == 0:
            return bool(self._lo <= raw <= self._hi)
        # positional axis and no ``initial``: the reductions' fastest call
        return raw.size == 0 or bool(np.minimum.reduce(raw, None) >= self._lo
                                     and np.maximum.reduce(raw, None) <= self._hi)

    def _sat(self, raw):
        if type(raw) is int:
            if self._lo <= raw <= self._hi:
                return raw
            self.saturations += 1
            return self._lo if raw < self._lo else self._hi
        # every caller passes a fresh array, so an in-range one is returned as is
        if self._in_range(raw):
            return raw
        clipped = np.minimum(np.maximum(raw, self._lo), self._hi)
        self.saturations += int(np.count_nonzero(clipped != raw))
        return clipped

    def quantize(self, x):
        """Round onto the grid, ties to even, then saturate (+-inf too); NaN is
        refused. A float gives a Python int register, rounded by ``round``."""
        if isinstance(x, float):  # numpy's float64 scalars too
            scaled = float(x) * self._scale
            if math.isnan(scaled):
                raise ContractViolation("cannot quantize NaN")
            # clipped to just past the range first, so +-inf saturate like any other value
            return self._sat(round(min(max(scaled, self._lo - 1.0), self._hi + 1.0)))
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
        """Saturating running sum from zero: one :meth:`add` per term, in order.

        Every term is in range, so the int64 prefix sums cannot overflow. When
        no prefix leaves the range, the last one is exactly what the
        sequential adds give, with no saturation. Otherwise the adds are
        replayed one at a time, since saturating addition is not associative:
        as Python ints when they sum to one register, else one :meth:`add`
        of all the lanes per term.
        """
        terms = np.asarray(terms, dtype=np.int64)
        prefix = terms.cumsum(axis=axis)
        if self._in_range(prefix):
            return prefix[(slice(None),) * axis + (-1,)]  # a view of the fresh prefix
        total = 0
        for term in terms.tolist() if terms.ndim == 1 else np.moveaxis(terms, axis, 0):
            total = self.add(total, term)
        return np.int64(total) if terms.ndim == 1 else total

    def sub(self, a, b):
        return self._sat(a - b)

    def _rhe_shift(self, p):
        """p / 2^f rounded to nearest, ties to even: adding 2^(f-1) - 1 plus
        the quotient's low bit carries into the quotient exactly when the
        remainder is above half, or is half and the quotient is odd. Takes an
        int or an int64 array, and leaves ``p`` as it is."""
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

    @staticmethod
    def _rhe_div(num, b):
        """num / b for b > 0 rounded to nearest, ties to even: the quotient
        goes up when twice the remainder plus the quotient's low bit exceeds
        b. Takes an int or an int64 array."""
        q, r = divmod(num, b)
        r <<= 1
        r += q & 1
        q += r > b
        return q

    def div(self, a, b):
        """a / b in the format, for one positive register b (the machine
        divides only by sigma, clamped to at least 1, and by chi)."""
        if not (np.ndim(b) == 0 and b > 0):
            raise ContractViolation("fixed-point division needs one positive register")
        return self._sat(self._rhe_div(a << self.f, b))

    def halve(self, raw):
        """Divide by two with round-to-nearest-even (cannot saturate): the
        :meth:`_rhe_shift` rule with f = 1."""
        q = np.right_shift(raw, 1, dtype=np.int64)
        q &= 1
        q += raw
        q >>= 1
        return q

    def apply_float(self, raw: int, fn: Callable[[float], float]) -> int:
        """Evaluate ``fn`` in float on the register's value and requantize it
        to a Python int."""
        return self.quantize(float(fn(raw * self.fmt.resolution)))

    def exp(self, raw: int) -> int:
        return self.apply_float(raw, np.exp)

    def norm(self, v) -> int:
        """The length of a register vector: its squared length summed in the
        format, then a float square root requantized."""
        return self.apply_float(int(self.sum(self.mul(v, v))), np.sqrt)

    def weighted_sum(self, w, y):
        """sum_i w_i y_i, one rounded product per element, summed in order."""
        return self.sum(self.mul(w[:, None], y))

    def rank_mu(self, w, y):
        """sum_i w_i y_i y_i^T, each outer product and its weighting rounded."""
        return self.sum(self.mul(w[:, None, None], self.mul(y[:, :, None], y[:, None, :])))

    def invsqrt_times(self, dec: Decomposition, v):
        """C^(-1/2) v as a fixed matvec on the decomposition's table, whose
        saturations count again on every use."""
        self.saturations += dec.invsqrt_saturations
        return self.sum(self.mul(dec.invsqrt, v), axis=1)

    def floor_sigma(self, sigma: int) -> tuple[int, bool]:
        """Sigma clamped up to 1 raw, and whether it was clamped."""
        return (1, True) if sigma <= 0 else (sigma, False)

    def decomposition(self, values, vectors) -> Decomposition:
        """The eigenvalues clamped up to the resolution, and C^(-1/2)
        tabulated in float from them and quantized."""
        table = _FixedOps(self.fmt)  # counts the table's saturations alone
        floor = self.fmt.resolution
        scale = np.sqrt(np.maximum(values, floor))
        invsqrt = table.quantize(vectors @ ((1.0 / scale)[:, None] * vectors.T))
        return Decomposition(vectors, scale, int(np.count_nonzero(values < floor)),
                             invsqrt, table.saturations)


class FixedCmaes(CmaEs):
    """CMA-ES carried entirely in fixed-point registers: :class:`CmaEs` over
    :class:`_FixedOps` of ``fmt``.

    The baseline is quantized onto the grid, and each candidate is evaluated
    at its exact fixed-point value as a float. ``quant_warnings`` holds the
    saturation, sigma-clamp and eigenvalue-clamp counts.
    """

    def __init__(self, params: CmaEsParams, fmt: FixedPointFormat, seed: int):
        super().__init__(params, seed, _FixedOps(fmt))

    @property
    def quant_warnings(self) -> dict:
        return {
            "saturations": self.ops.saturations,
            "sigma_clamps": self.sigma_clamps,
            "eig_clamps": self.eig_clamps,
        }


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
