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
prefix leaves the range, since saturating addition is not associative. The
covariance decomposition is kept while the covariance register is unchanged
bit for bit (the eigensolver is deterministic), as it is in every generation
when c_1 and c_mu round to 0 and 1-c_1-c_mu to 1; its eigenvalue clamps still
count once per generation.

A result already in range is returned without clipping, which gives the same
bits and counts. Division is only ever by one positive register (sigma,
clamped to at least 1, and chi), so it has no sign flip or zero guard and
refuses any other denominator. Each generation's candidates are sampled as
stacked matrix-vector products, one gemv per row, as in the float machine.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .cmaes import CmaEs, CmaEsParams
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
    if magnitude <= 0.0:
        raise ContractViolation("magnitude must be > 0")
    p = np.asarray(p, dtype=np.float64)
    return np.where(p >= 0.0, magnitude, -magnitude)


class BinaryCmaes(CmaEs):
    """Float CMA-ES whose candidates are snapped to 1-bit corrections.

    Each candidate collapses to ``alpha`` times its signs, with ``alpha``
    the step size at ask time unless pinned. The optimizer is told the raw
    candidates, or the snapped ones with ``feedback``.
    """

    def __init__(self, params: CmaEsParams, alpha: Optional[float] = None,
                 feedback: bool = False):
        super().__init__(params)
        self.alpha = alpha
        self.feedback = feedback

    def ask(self) -> list[np.ndarray]:
        raw = super().ask()
        alpha = self.alpha if self.alpha is not None else self.state.sigma
        self._points = [quantize_binary(c, alpha) for c in raw]
        return self._points

    def tell(self, fitnesses: list[float]) -> None:
        if self.feedback:
            self._candidates = self._points
        super().tell(fitnesses)


class _FixedOps:
    """Vectorized raw-integer fixed-point arithmetic with saturation counting.

    Raw values are int64 scalars or arrays; every result is saturated back to
    the format range, and each clipped element increments ``saturations``.
    """

    def __init__(self, fmt: FixedPointFormat):
        self.fmt = fmt
        self.f = fmt.frac_bits
        self.saturations = 0
        self._lo = np.int64(fmt.raw_min)
        self._hi = np.int64(fmt.raw_max)
        self._round = (1 << (self.f - 1)) - 1 if self.f > 0 else 0

    def _in_range(self, raw) -> bool:
        if raw.ndim == 0:
            return bool(self._lo <= raw <= self._hi)
        return bool(np.minimum.reduce(raw, axis=None, initial=self._hi) >= self._lo
                    and np.maximum.reduce(raw, axis=None, initial=self._lo) <= self._hi)

    def _sat(self, raw):
        # every caller passes a fresh array, so an in-range one is returned as is
        if self._in_range(raw):
            return raw
        clipped = np.minimum(np.maximum(raw, self._lo), self._hi)
        self.saturations += int(np.count_nonzero(clipped != raw))
        return clipped

    def quantize(self, x):
        """Round onto the grid, ties to even, then saturate (+-inf too); NaN is refused."""
        x = np.asarray(x, dtype=np.float64)
        if np.isnan(x).any():
            raise ContractViolation("cannot quantize NaN")
        return self._sat(np.rint(x * (1 << self.f))).astype(np.int64)

    def to_float(self, raw):
        return np.asarray(raw, dtype=np.float64) * self.fmt.resolution

    def add(self, a, b):
        return self._sat(np.add(a, b, dtype=np.int64))

    def sum(self, terms, axis=0):
        """Saturating running sum from zero: one :meth:`add` per term, in order.

        Every term is in range, so the int64 prefix sums cannot overflow. When
        no prefix leaves the range, the last one is exactly what the
        sequential adds give, with no saturation. Otherwise the adds are
        replayed one at a time, since saturating addition is not associative.
        """
        terms = np.asarray(terms, dtype=np.int64)
        prefix = terms.cumsum(axis=axis)
        if self._in_range(prefix):
            return prefix.take(-1, axis=axis)
        total = np.int64(0)
        for term in np.moveaxis(terms, axis, 0):
            total = self.add(total, term)
        return total

    def sub(self, a, b):
        return self._sat(np.subtract(a, b, dtype=np.int64))

    def _rhe_shift(self, p):
        """p / 2^f rounded to nearest, ties to even: adding 2^(f-1) - 1 plus
        the quotient's low bit carries into the quotient exactly when the
        remainder is above half, or is half and the quotient is odd."""
        if self.f == 0:
            return p
        return (p + self._round + ((p >> self.f) & 1)) >> self.f

    def mul(self, a, b):
        product = np.multiply(a, b, dtype=np.int64)
        return self._sat(self._rhe_shift(product))

    def div(self, a, b):
        """a / b in the format, for one positive register b (the machine
        divides only by sigma, clamped to at least 1, and by chi)."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if not (b.ndim == 0 and b > 0):
            raise ContractViolation("fixed-point division needs one positive register")
        num = np.left_shift(a, self.f)
        q = num // b
        twice = 2 * (num - q * b)
        return self._sat(q + ((twice > b) | ((twice == b) & ((q & 1) == 1))))

    def halve(self, raw):
        """Divide by two with round-to-nearest-even (cannot saturate)."""
        raw = np.asarray(raw, dtype=np.int64)
        q = raw >> 1
        r = raw - (q << 1)
        inc = (r == 1) & ((q & 1) == 1)
        return q + inc

    def apply_float(self, raw, fn: Callable[[np.ndarray], np.ndarray]):
        """Evaluate ``fn`` in float on the operand's value, requantize."""
        return self.quantize(fn(self.to_float(raw)))


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


class FixedCmaes:
    """CMA-ES state machine carried entirely in fixed-point registers.

    A search machine for :func:`latentadapt.cmaes.search`: the baseline is
    quantized onto the grid, and each candidate is evaluated at its exact
    fixed-point value as a float.
    """

    def __init__(self, params: CmaEsParams, fmt: FixedPointFormat):
        self.params = params
        self.ops = _FixedOps(fmt)
        self.rng = Xoshiro256pp(params.seed)
        self.generation = 0
        self.sigma_clamps = 0
        self.eig_clamps = 0
        self._eig_cache = None

        ops = self.ops
        k = params.dim
        self.mean = np.zeros(k, dtype=np.int64)
        self.sigma = int(ops.quantize(params.initial_sigma))
        if self.sigma <= 0:
            self.sigma = 1
            self.sigma_clamps += 1
        self.cov = ops.quantize(np.eye(k))
        self.path_sigma = np.zeros(k, dtype=np.int64)
        self.path_c = np.zeros(k, dtype=np.int64)

        # strategy constants, quantized once
        self.w = ops.quantize(params.recombination_weights)
        self.one = int(ops.quantize(1.0))
        self.chi = int(ops.quantize(params.chi_n))
        for attr, _, value in _CONSTANTS:
            setattr(self, attr, int(ops.quantize(value(params))))

    def _decompose(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Clamped eigenvalues, eigenvectors and the clamp count of ``cov``."""
        if self._eig_cache is None:
            cov_float = self.ops.to_float(self.cov)
            values, vectors = linalg.sym_eig(cov_float, self.params.dim)
            floor = self.ops.fmt.resolution
            clamped = np.maximum(values, floor)
            self._eig_cache = (clamped, vectors, int(np.count_nonzero(values < floor)))
        return self._eig_cache

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
        values, vectors, clamps = self._decompose()
        self.eig_clamps += clamps  # once per generation, reused or not
        scale = np.sqrt(values)
        mean_f = self.ops.to_float(self.mean)
        sigma_f = self.sigma * self.ops.fmt.resolution
        lam, k = self.params.population, self.params.dim
        noise = self.rng.normals(lam * k).reshape(lam, k)
        # stacked matvecs (gemv per row); one (lam, k) x (k, k) gemm may round differently
        steps = np.matmul(vectors, (scale * noise)[:, :, None])[:, :, 0]
        self._raw = self.ops.quantize(mean_f + sigma_f * steps)
        return self.ops.to_float(self._raw)

    def tell(self, fitnesses: list[float]) -> None:
        params = self.params
        ops = self.ops
        order = np.argsort(np.asarray(fitnesses, dtype=np.float64), kind="stable")
        parents = self._raw[order[: params.parent_count]]

        values, vectors, _ = self._decompose()

        # normalized parent steps y_i = (x_i - m) / sigma
        y = ops.div(ops.sub(parents, self.mean[None, :]), np.int64(self.sigma))
        y_w = ops.sum(ops.mul(self.w[:, None], y))
        self.mean = ops.add(self.mean, ops.mul(np.int64(self.sigma), y_w))

        # C^(-1/2), tabulated from the float decomposition then fixed matvec
        invsqrt = ops.quantize(vectors @ ((1.0 / np.sqrt(values))[:, None] * vectors.T))
        invsqrt_yw = ops.sum(ops.mul(invsqrt, y_w[None, :]), axis=1)
        self.path_sigma = ops.add(
            ops.mul(np.int64(self.one_minus_cs), self.path_sigma),
            ops.mul(np.int64(self.coef_sigma), invsqrt_yw),
        )

        total = ops.sum(ops.mul(self.path_sigma, self.path_sigma))
        ps_norm = int(ops.apply_float(total, np.sqrt))

        ratio = ops.div(np.int64(ps_norm), np.int64(self.chi))
        arg = ops.mul(np.int64(self.cs_over_ds), ops.sub(ratio, np.int64(self.one)))
        factor = ops.apply_float(arg, np.exp)
        new_sigma = int(ops.mul(np.int64(self.sigma), factor))
        if new_sigma <= 0:
            new_sigma = 1
            self.sigma_clamps += 1
        self.sigma = new_sigma

        gen1 = self.generation + 1
        c_s = params.c_sigma
        denom = math.sqrt(1.0 - (1.0 - c_s) ** (2.0 * gen1))
        h_sig = 1 if (
            float(ops.to_float(np.int64(ps_norm))) / denom
            < (1.4 + 2.0 / (params.dim + 1.0)) * params.chi_n
        ) else 0

        pc_update = ops.mul(np.int64(self.coef_c), y_w) if h_sig else np.zeros(
            params.dim, dtype=np.int64
        )
        self.path_c = ops.add(ops.mul(np.int64(self.one_minus_cc), self.path_c), pc_update)

        rank1 = ops.mul(self.path_c[:, None], self.path_c[None, :])
        if not h_sig:
            rank1 = ops.add(rank1, ops.mul(np.int64(self.hsig_coef), self.cov))
        outers = ops.mul(y[:, :, None], y[:, None, :])
        rank_mu = ops.sum(ops.mul(self.w[:, None, None], outers))

        cov = ops.add(
            ops.add(
                ops.mul(np.int64(self.base_coef), self.cov),
                ops.mul(np.int64(self.c1), rank1),
            ),
            ops.mul(np.int64(self.cmu), rank_mu),
        )
        cov = ops.halve(ops.add(cov, cov.T))
        if not np.array_equal(cov, self.cov):
            # sym_eig is deterministic: an unchanged covariance keeps its decomposition
            self._eig_cache = None
        self.cov = cov
        self.generation = gen1


def quantization_health(params: CmaEsParams, fmt: FixedPointFormat) -> str:
    """One summary line on what quantizing the strategy constants did.

    Lists the constants whose register value is exactly 0 or 1 although the
    real value is not (c_1 and c_mu at 0 switch covariance adaptation off),
    and the sum of the quantized recombination weights, which should be 1.
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
    return (
        f"strategy constants at 0 or 1: {', '.join(degenerate) or 'none'} "
        f"(recombination weight sum: {weight_sum:g})"
    )
