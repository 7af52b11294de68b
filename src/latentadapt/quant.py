"""Quantized adaptation support: the fixed-point register kernel and the 1-bit
and fixed-point search machines.

Both machines run under :func:`latentadapt.cmaes.search`. The 1-bit machine
collapses each float candidate to a single magnitude with per-element signs,
so the search reduces to flipping k switches. The fixed-point machine re-runs
the CMA-ES update equations with every state component held in signed
two's-complement fixed-point arithmetic: round-to-nearest-even everywhere,
saturating (never wrapping) on overflow. :class:`_FixedOps` is the one
implementation of that arithmetic; it works on raw int64 registers, scalars
or arrays, of one :class:`FixedPointFormat`. Sampling noise stays in floating
point and is quantized on arrival; scalar transcendentals (sqrt, exp) are
evaluated in float on the fixed-point operand and requantized, standing in
for the lookup tables real hardware would use.

The register arithmetic is vectorized without changing a bit of it. A sum of
many terms (the weighted mean step, the C^(-1/2) matvec, the squared path
length, the rank-mu update) is defined as saturating adds from zero in index
order; it is computed as int64 prefix sums, which are exact because every
term fits in 32 bits, and the adds are replayed one at a time only where a
prefix leaves the range, since saturating addition is not associative.
Element-wise products with the same rounding and saturation run as one
stacked product: the mean step with both path decays, the outer products of
p_c and of each parent step, and the three covariance terms. The same ops
take the scalar registers of a generation (the path length, sigma and the
h_sigma test) as Python ints, which agree with int64 because no product or
shifted numerator of a format of at most 32 bits exceeds 2^62 in magnitude.

The covariance register is decomposed through the protocol of
:mod:`latentadapt.cmaes`, and the machine keeps what it derives from it while
the register stays unchanged bit for bit, as in every generation when c_1
and c_mu round to 0 and 1-c_1-c_mu to 1. The starting registers are built
once per shared :class:`~latentadapt.cmaes.CmaEsParams` and format.

A result already in range is returned without clipping, which gives the same
bits and counts. Division is only ever by one positive register (sigma,
clamped to at least 1, and chi), so it has no sign flip or zero guard and
refuses any other denominator. Each generation's candidates are sampled as
stacked matrix-vector products, one gemv per row, as in the float machine.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .cmaes import CmaEs, CmaEsParams, decomposition_of, fitness_order
from .errors import ContractViolation
from .rng import Xoshiro256pp

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

    def ask(self) -> np.ndarray:
        raw = super().ask()
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
        """Round onto the grid, ties to even, then saturate (+-inf too); NaN is refused."""
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
        as :meth:`quantize` does, to a Python int."""
        x = float(fn(raw * self.fmt.resolution)) * self._scale
        if math.isnan(x):
            raise ContractViolation("cannot quantize NaN")
        # clipped to just past the range first, so +-inf saturate like any other value
        return self._sat(round(min(max(x, self._lo - 1.0), self._hi + 1.0)))


# strategy constants held in registers: (attribute, label, value from params)
_CONSTANTS = (
    ("cs_over_ds", "c_sigma/d_sigma", lambda p: p.c_sigma / p.d_sigma),
    ("one_minus_cs", "1-c_sigma", lambda p: 1.0 - p.c_sigma),
    ("coef_sigma", "sqrt(c_sigma(2-c_sigma)mu_eff)",
     lambda p: math.sqrt(p.c_sigma * (2.0 - p.c_sigma) * p.mu_eff)),
    ("one_minus_cc", "1-c_c", lambda p: 1.0 - p.c_c),
    ("coef_c", "sqrt(c_c(2-c_c)mu_eff)",
     lambda p: math.sqrt(p.c_c * (2.0 - p.c_c) * p.mu_eff)),
    ("c1", "c_1", lambda p: p.c_1),
    ("cmu", "c_mu", lambda p: p.c_mu),
    ("base_coef", "1-c_1-c_mu", lambda p: 1.0 - p.c_1 - p.c_mu),
    ("hsig_coef", "c_c(2-c_c)", lambda p: p.c_c * (2.0 - p.c_c)),
)


class _Decomposition(NamedTuple):
    """What the machine keeps of the eigen-decomposition of its covariance register."""

    vectors: np.ndarray        # shared by the machines with this register
    scale: np.ndarray          # square roots of the eigenvalues, clamped up to the resolution
    clamps: int                # eigenvalues clamped
    invsqrt: np.ndarray        # C^(-1/2), tabulated in float and quantized
    invsqrt_saturations: int   # the table's, counted again by every tell that uses it


class _Start:
    """The registers a fresh machine starts from, with the saturations and
    sigma clamps of quantizing them. Machines copy the arrays, which stay
    read-only here."""

    def __init__(self, params: CmaEsParams, fmt: FixedPointFormat):
        ops = _FixedOps(fmt)
        self.sigma = int(ops.quantize(params.initial_sigma))
        self.sigma_clamps = 0
        if self.sigma <= 0:
            self.sigma = 1
            self.sigma_clamps = 1
        self.cov = ops.quantize(np.eye(params.dim))
        self.w = ops.quantize(params.recombination_weights)
        self.cov.flags.writeable = self.w.flags.writeable = False
        self.constants = {"one": int(ops.quantize(1.0)), "chi": int(ops.quantize(params.chi_n))}
        for attr, _, value in _CONSTANTS:
            self.constants[attr] = int(ops.quantize(value(params)))
        self.cov_coefs = np.array([self.constants[attr] for attr in ("base_coef", "c1", "cmu")],
                                  dtype=np.int64).reshape(3, 1, 1)
        self.cov_coefs.flags.writeable = False
        self.saturations = ops.saturations


_start = functools.lru_cache(maxsize=64)(_Start)  # (params, format) -> its _Start


class FixedCmaes:
    """CMA-ES state machine carried entirely in fixed-point registers.

    A search machine for :func:`latentadapt.cmaes.search`: the baseline is
    quantized onto the grid, and each candidate is evaluated at its exact
    fixed-point value as a float.
    """

    def __init__(self, params: CmaEsParams, fmt: FixedPointFormat, seed: int):
        self.params = params
        start = _start(params, fmt)
        self._start = start
        self.ops = _FixedOps(fmt)
        self.ops.saturations = start.saturations
        self.rng = Xoshiro256pp(seed)
        self._raw: Optional[np.ndarray] = None  # asked, not yet told
        self.generation = 0
        self.sigma = start.sigma
        self.sigma_clamps = start.sigma_clamps
        self.eig_clamps = 0

        k = params.dim
        self.mean = np.zeros(k, dtype=np.int64)
        self.cov = start.cov.copy()
        self.decomposition: Optional[_Decomposition] = None  # of cov, None while stale
        self.path_sigma = np.zeros(k, dtype=np.int64)
        self.path_c = np.zeros(k, dtype=np.int64)
        # strategy constants, quantized once per configuration
        self.w = start.w.copy()
        for attr, raw in start.constants.items():
            setattr(self, attr, raw)

    def float_cov(self) -> np.ndarray:
        return self.ops.to_float(self.cov)

    def take_decomposition(self, values: np.ndarray, vectors: np.ndarray) -> None:
        """Keep the eigenvectors of :meth:`float_cov` and derive the rest of a _Decomposition."""
        ops = _FixedOps(self.ops.fmt)  # counts the table's saturations alone
        floor = ops.fmt.resolution
        scale = np.sqrt(np.maximum(values, floor))
        invsqrt = ops.quantize(vectors @ ((1.0 / scale)[:, None] * vectors.T))
        self.decomposition = _Decomposition(vectors, scale, int(np.count_nonzero(values < floor)),
                                            invsqrt, ops.saturations)

    @property
    def quant_warnings(self) -> dict:
        return {
            "saturations": self.ops.saturations,
            "sigma_clamps": self.sigma_clamps,
            "eig_clamps": self.eig_clamps,
        }

    def start(self, baseline: np.ndarray) -> np.ndarray:
        return self.ops.to_float(self.ops.quantize(baseline))

    def ask(self) -> np.ndarray:
        """Sample lambda candidates; keep the raw registers, return floats."""
        dec = decomposition_of(self)
        self.eig_clamps += dec.clamps  # once per generation, reused or not
        ops = self.ops
        lam, k = self.params.population, self.params.dim
        noise = self.rng.normals(lam * k).reshape(lam, k)
        # stacked matvecs (gemv per row); one (lam, k) x (k, k) gemm may round differently
        steps = np.matmul(dec.vectors, (dec.scale * noise)[:, :, None])[:, :, 0]
        sigma_f = self.sigma * ops.fmt.resolution
        self._raw = ops.quantize(ops.to_float(self.mean) + sigma_f * steps)
        return ops.to_float(self._raw)

    def tell(self, fitnesses: list[float]) -> None:
        params = self.params
        ops = self.ops
        order = fitness_order(fitnesses, params.population, self._raw)
        parents = self._raw[order[: params.parent_count]]
        dec = decomposition_of(self)

        # normalized parent steps y_i = (x_i - m) / sigma
        y = ops.div(ops.sub(parents, self.mean), self.sigma)
        y_w = ops.sum(ops.mul(self.w[:, None], y))
        # the mean step and both path decays: one product of stacked rows
        step, ps_decayed, pc_decayed = ops.mul(
            np.array([[self.sigma], [self.one_minus_cs], [self.one_minus_cc]]),
            np.array([y_w, self.path_sigma, self.path_c]),
        )
        self.mean = ops.add(self.mean, step)

        # C^(-1/2) y_w: the table kept with the decomposition, then a fixed matvec
        ops.saturations += dec.invsqrt_saturations
        invsqrt_yw = ops.sum(ops.mul(dec.invsqrt, y_w), axis=1)
        self.path_sigma = ops.add(ps_decayed, ops.mul(self.coef_sigma, invsqrt_yw))

        # sigma and the h_sigma test on scalar registers, as Python ints
        total = int(ops.sum(ops.mul(self.path_sigma, self.path_sigma)))
        ps_norm = ops.apply_float(total, np.sqrt)
        ratio = ops.div(ps_norm, self.chi)
        factor = ops.apply_float(ops.mul(self.cs_over_ds, ops.sub(ratio, self.one)), np.exp)
        new_sigma = ops.mul(self.sigma, factor)
        if new_sigma <= 0:
            new_sigma = 1
            self.sigma_clamps += 1
        self.sigma = new_sigma

        gen1 = self.generation + 1
        c_s = params.c_sigma
        denom = math.sqrt(1.0 - (1.0 - c_s) ** (2.0 * gen1))
        h_sig = (ps_norm * ops.fmt.resolution / denom
                 < (1.4 + 2.0 / (params.dim + 1.0)) * params.chi_n)

        self.path_c = ops.add(pc_decayed, ops.mul(self.coef_c, y_w)) if h_sig else pc_decayed

        # the outer products of p_c and of each y_i: one stacked product
        rows = np.concatenate([self.path_c[None, :], y])
        outers = ops.mul(rows[:, :, None], rows[:, None, :])
        rank1 = outers[0]
        if not h_sig:
            rank1 = ops.add(rank1, ops.mul(self.hsig_coef, self.cov))
        rank_mu = ops.sum(ops.mul(self.w[:, None, None], outers[1:]))

        # (1-c_1-c_mu) C, c_1 rank1 and c_mu rank_mu as one stacked product
        kept, rank1, rank_mu = ops.mul(self._start.cov_coefs,
                                       np.array([self.cov, rank1, rank_mu]))
        cov = ops.add(ops.add(kept, rank1), rank_mu)
        cov = ops.halve(ops.add(cov, cov.T))
        if not np.array_equal(cov, self.cov):
            self.decomposition = None
        self.cov = cov
        self.generation = gen1
        self._raw = None


def quantization_health(params: CmaEsParams, fmt: FixedPointFormat) -> str:
    """One summary line on what quantizing the strategy constants did.

    Lists the constants whose register value is exactly 0 or 1 although the
    real value is not (c_1 and c_mu at 0 switch covariance adaptation off),
    and the sum of the quantized recombination weights, which should be 1.
    Where the quantized covariance coefficients 1-c_1-c_mu, c_1 and c_mu do
    not sum to 1, the covariance shrinks or grows with no adaptation at all,
    and their sum is appended.
    """
    ops = _FixedOps(fmt)
    unit = 1 << fmt.frac_bits  # raw value of exactly 1 (out of range if no integer bits)
    degenerate = []
    for _, label, value in _CONSTANTS:
        real = value(params)
        raw = int(ops.quantize(real))
        if raw in (0, unit) and real != raw / unit:
            degenerate.append(f"{label}->{raw // unit}")
    weight_sum = float(np.sum(ops.to_float(ops.quantize(params.recombination_weights))))
    sums = [f"recombination weight sum: {weight_sum:g}"]
    coef_sum = int(_start(params, fmt).cov_coefs.sum())  # the machine's own registers
    if coef_sum != unit:
        sums.append(f"covariance coefficient sum: {coef_sum / unit:g}")
    return f"strategy constants at 0 or 1: {', '.join(degenerate) or 'none'} ({'; '.join(sums)})"
