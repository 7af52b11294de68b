"""Forward-only CMA-ES: the one search machine and the one search driver.

:class:`CmaEs` draws candidates from N(mean, sigma^2 * C). Ranked fitnesses
drive weighted recombination of the mean, cumulative step-size adaptation of
sigma, and a rank-1 plus rank-mu update of the covariance, with the standard
tutorial constants. The machine holds its state and constants (one table,
``_CONSTANTS``) in a number system ``ops``, :class:`FloatOps` or the
fixed-point registers of :mod:`latentadapt.quant`, and writes ``ask`` and
``tell`` once over its primitives; h_sigma gates its two terms through a
coefficient that is zero when it is off.

A machine holds B independent searches, its rows, as stacks: mean and paths
(B, k), sigma (B,), covariance (B, k, k), the decomposition with a per-row
stale mask, and one xoshiro256++ stream per row. A generation is one ``ask``
for all rows, their noise drawn by one :func:`latentadapt.rng.normals_many`
call, and one ``tell``. Each row gets the bits it gets alone: every float
product is a stacked ``np.matmul``, which runs each row through the BLAS
call of the row alone (gemv for a matrix-vector product, ddot for the
squared path length, then its square root, where ``np.linalg.norm(axis=)``
and ``einsum`` round differently); the step-size factor is ``math.exp`` per
row (+inf where it overflows), as ``np.exp`` may differ from it in the last
bit; and fixed-point registers are exact integers. Rows start decomposed,
and :meth:`CmaEs.prepare` solves those whose covariance ``tell`` has changed
in one :func:`linalg.sym_eig_many` call. ``tell`` ranks +inf after every
finite value, and a row whose step size is not finite and positive fails
alone in ``prepare``. :class:`Search` drives all rows of a machine,
:func:`search` one.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import ContractViolation, ConvergenceFailure, integer, real_array, seed64
from .rng import Xoshiro256pp, normals_many


def default_lambda(k: int) -> int:
    """Default population size 4 + floor(3 ln k)."""
    if k < 1:
        raise ContractViolation("dimension must be >= 1")
    return 4 + int(math.floor(3.0 * math.log(k)))


@dataclass(frozen=True, eq=False)
class CmaEsParams:
    """Strategy constants, read-only and free of the seed. Build with
    :meth:`defaults` unless testing."""

    dim: int
    population: int
    parent_count: int
    recombination_weights: np.ndarray  # (parent_count,), positive, sums to 1
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    initial_sigma: float

    def __post_init__(self):
        if self.population < 2:
            raise ContractViolation("population must be >= 2")
        w = real_array(self.recombination_weights, "recombination weights",
                       (self.parent_count,)).copy()
        if np.any(w <= 0.0) or np.any(np.diff(w) >= 0.0):
            raise ContractViolation("weights must be positive and strictly decreasing")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ContractViolation("weights must sum to 1")
        for name in ("c_sigma", "c_c", "c_1", "c_mu"):
            rate = getattr(self, name)
            if not (0.0 < rate <= 1.0):
                raise ContractViolation(f"{name} must be in (0, 1]")
        if self.d_sigma < 1.0:
            raise ContractViolation("d_sigma must be >= 1")
        if not (math.isfinite(self.initial_sigma) and self.initial_sigma > 0.0):
            raise ContractViolation("initial_sigma must be finite and > 0")
        w.flags.writeable = False
        object.__setattr__(self, "recombination_weights", w)

    @classmethod
    def defaults(
        cls,
        dim: int,
        population: Optional[int] = None,
        initial_sigma: float = 1.0,
    ) -> "CmaEsParams":
        """Standard strategy constants for the given dimension."""
        dim = integer(dim, "dimension")
        if dim < 1:
            raise ContractViolation("dimension must be >= 1")
        lam = integer(population, "population") if population is not None else default_lambda(dim)
        mu = lam // 2
        raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1, dtype=np.float64))
        weights = raw / raw.sum()
        mu_eff = 1.0 / float(np.sum(weights ** 2))
        c_sigma = (mu_eff + 2.0) / (dim + mu_eff + 5.0)
        d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (dim + 1.0)) - 1.0) + c_sigma
        c_c = (4.0 + mu_eff / dim) / (dim + 4.0 + 2.0 * mu_eff / dim)
        c_1 = 2.0 / ((dim + 1.3) ** 2 + mu_eff)
        c_mu = min(
            1.0 - c_1,
            2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dim + 2.0) ** 2 + mu_eff),
        )
        return cls(
            dim=dim,
            population=lam,
            parent_count=mu,
            recombination_weights=weights,
            mu_eff=mu_eff,
            c_sigma=c_sigma,
            d_sigma=d_sigma,
            c_c=c_c,
            c_1=c_1,
            c_mu=c_mu,
            initial_sigma=float(initial_sigma),
        )

    @property
    def chi_n(self) -> float:
        """Expected norm of a standard normal vector of the search dimension."""
        k = self.dim
        return math.sqrt(k) * (1.0 - 1.0 / (4.0 * k) + 1.0 / (21.0 * k * k))


# strategy constants held in the machine's number system: (attribute, label, value)
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


class Decomposition(NamedTuple):
    """What a machine keeps of the eigen-decompositions of its rows'
    covariances, as stacks with one entry per row."""

    vectors: np.ndarray                    # eigenvectors, by descending eigenvalue
    scale: np.ndarray                      # square roots of the eigenvalues
    clamps: np.ndarray                     # fixed point: eigenvalues clamped up to the resolution
    invsqrt: Optional[np.ndarray] = None   # fixed point: C^(-1/2), tabulated in float and quantized
    invsqrt_saturations: Optional[np.ndarray] = None  # the table's, counted again by every tell


def _matvec(a, x):
    """a @ x for stacked matrices and vectors, each pair by its own gemv."""
    return np.matmul(a, x[..., None])[..., 0]


def _exp(x: float) -> float:
    """``math.exp``, +inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class FloatOps:
    """The float number system of :class:`CmaEs`: each primitive is a numpy
    expression stacked over the rows, each row getting its bits alone."""

    def quantize(self, x):
        return x

    to_float = quantize  # a float is its own value
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    div = staticmethod(operator.truediv)

    def halve(self, x):
        return x / 2.0

    def weighted_sum(self, w, y):
        return w @ y

    def rank_mu(self, w, y):
        return np.swapaxes(y * w[:, None], 1, 2) @ y

    def norm(self, v):
        return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])

    def exp(self, x):
        return np.fromiter(map(_exp, x.tolist()), np.float64, len(x))

    def invsqrt_times(self, dec: Decomposition, v):
        """C^(-1/2) v through the eigenpairs."""
        return _matvec(dec.vectors, _matvec(np.swapaxes(dec.vectors, 1, 2), v) / dec.scale)

    def floor_sigma(self, sigma):
        """Sigma as it is, and that no row was clamped."""
        return sigma, np.zeros(len(sigma), dtype=bool)

    def decomposition(self, values, vectors) -> tuple[Decomposition, dict]:
        """The rows' decompositions from their (B, k) eigenvalues and (B, k, k)
        eigenvectors, and the rows that lost positive definiteness."""
        errors = {j: ConvergenceFailure(
            f"covariance lost positive definiteness (min eigenvalue {low:.3e})")
            for j, low in enumerate(values[:, -1].tolist()) if low <= 0.0}
        scale = np.sqrt(np.maximum(values, 0.0))  # a failed row's scale is not kept
        return Decomposition(vectors, scale, np.zeros(len(values), dtype=np.int64)), errors


class CmaEs:
    """CMA-ES as a search machine for :class:`Search`, over a number system.

    A machine holds its ``params`` and one row per seed (``seed`` is one int
    or a sequence of them, each in [0, 2^64)), each an independent search on
    its own noise stream, starting at zero mean, identity covariance (as its
    number system holds it), zeroed paths and that covariance's
    decomposition. It proposes the points to evaluate (``ask``, a (B,
    population, dim) float array), takes back their fitnesses (``tell``) and
    drops rows (``keep``).
    Single-owner: drive from one thread only.
    """

    quant_warnings: Optional[dict] = None  # counts kept by quantized machines

    def __init__(self, params: CmaEsParams, seed, ops=None):
        self.params = params
        self.ops = ops = FloatOps() if ops is None else ops
        self.rngs = [Xoshiro256pp(seed64(s, "seed"))  # one int seed is one row
                     for s in ([seed] if np.ndim(seed) == 0 else seed)]
        b, k = len(self.rngs), params.dim
        self.mean = ops.quantize(np.zeros((b, k)))
        self.sigma, clamped = ops.floor_sigma(ops.quantize(np.full(b, params.initial_sigma)))
        self.sigma_clamps, self.eig_clamps = clamped.astype(np.int64), np.zeros(b, dtype=np.int64)
        self.cov = ops.quantize(np.tile(np.eye(k), (b, 1, 1)))
        self.path_sigma = ops.quantize(np.zeros((b, k)))
        self.path_c = ops.quantize(np.zeros((b, k)))
        self.generation = 0
        self._candidates = None  # asked, not yet told
        # the register is a multiple of the identity, whose eigenpairs are its
        # diagonal and the identity, as the eigensolver returns them
        self.decomposition, _ = ops.decomposition(
            ops.to_float(self.cov).diagonal(axis1=1, axis2=2), np.tile(np.eye(k), (b, 1, 1)))
        self.stale = np.zeros(b, dtype=bool)  # a row's register changed since its decomposition
        # strategy constants, quantized once per machine and shared by its rows:
        # in one row, so that a saturation counts for every row
        values = [0.0, 1.0, params.chi_n] + [value(params) for _, _, value in _CONSTANTS]
        shared = ops.quantize(np.concatenate([params.recombination_weights, values])[None])[0]
        self.w, mu = shared[:params.parent_count], params.parent_count
        for attr, register in zip(["zero", "one", "chi"] + [c[0] for c in _CONSTANTS], shared[mu:]):
            setattr(self, attr, register)

    def prepare(self) -> dict[int, Exception]:
        """Make every row ready to ask: decompose the covariances of the stale
        rows in one :func:`linalg.sym_eig_many` call and keep, by mask, what
        the number system derives from their eigenpairs. Returns the rows
        that fail, in order, each with the error that stops it: a step size
        not finite and positive, else a failed decomposition, after which
        the row stays stale."""
        failed = {i: ConvergenceFailure(f"step size is {s!r}")
                  for i, s in enumerate(self.ops.to_float(self.sigma).tolist())
                  if not 0.0 < s < math.inf}
        if not self.stale.any():
            return failed
        stale = np.flatnonzero(self.stale)
        values, vectors, errors = linalg.sym_eig_many(self.ops.to_float(self.cov[stale]),
                                                      self.params.dim)
        dec, unsolved = self.ops.decomposition(values, vectors)
        unsolved.update(errors)  # an eigensolver failure is the cause
        done = np.ones(len(stale), dtype=bool)
        done[list(unsolved)] = False
        for whole, part in zip(self.decomposition, dec):
            if whole is not None:
                whole[stale[done]] = part[done]
        self.stale[stale[done]] = False
        for j, error in unsolved.items():
            failed.setdefault(int(stale[j]), error)
        return dict(sorted(failed.items()))

    def keep(self, rows) -> None:
        """Keep only ``rows`` (a mask or positions), in order, dropping the rest."""
        for name in ("mean", "sigma", "cov", "path_sigma", "path_c", "stale", "sigma_clamps",
                     "eig_clamps", "_candidates"):
            if getattr(self, name) is not None:
                setattr(self, name, getattr(self, name)[rows])
        self.decomposition = Decomposition(*(f if f is None else f[rows]
                                             for f in self.decomposition))
        self.rngs = [self.rngs[i] for i in np.arange(len(self.rngs))[rows]]

    def ask(self) -> np.ndarray:
        """Sample one population of candidates for every row, each from its
        own stream, all drawn in one :func:`normals_many` call; advances only
        the RNG states, and raises the first error of :meth:`prepare`."""
        params, ops = self.params, self.ops
        for error in self.prepare().values():
            raise error
        dec = self.decomposition
        self.eig_clamps += dec.clamps  # once per generation, reused or not
        noise = normals_many(self.rngs, params.population * params.dim)
        noise = noise.reshape(len(self.rngs), params.population, params.dim)
        # one gemv per candidate, like ``vectors @ row``, where one
        # (population, dim) x (dim, dim) gemm may round differently
        y = _matvec(dec.vectors[:, None], dec.scale[:, None] * noise)
        self._candidates = ops.quantize(ops.to_float(self.mean)[:, None]
                                        + ops.to_float(self.sigma)[:, None, None] * y)
        return ops.to_float(self._candidates)

    def tell(self, fitnesses) -> None:
        """Rank each row's last candidates ascending by fitness, ties by
        index, and update its search distribution: one ``tell`` per ``ask``,
        one float per candidate as a (B, population) array, +inf ranked
        after every finite value; a wrong shape or a NaN is
        :class:`ContractViolation` and no change. The mean moves to the
        weighted recombination of the top parents, sigma follows cumulative
        step-size adaptation, and the covariance gets the rank-1 plus rank-mu
        update, then re-symmetrization; a row's decomposition goes stale only
        when its covariance changes.
        """
        params, ops, shape = self.params, self.ops, (len(self.rngs), self.params.population)
        if self._candidates is None:
            raise ContractViolation("tell needs an ask first, and pairs with one ask only")
        fit = real_array(fitnesses, "fitnesses", shape)
        if np.isnan(fit).any():
            raise ContractViolation("fitnesses must not be NaN")
        order = np.argsort(fit, axis=1, kind="stable")
        dec = self.decomposition
        parents = self._candidates[np.arange(len(order))[:, None], order[:, :params.parent_count]]

        # normalized parent steps y_i = (x_i - m) / sigma
        y = ops.div(ops.sub(parents, self.mean[:, None]), self.sigma[:, None, None])
        y_w = ops.weighted_sum(self.w, y)
        self.mean = ops.add(self.mean, ops.mul(self.sigma[:, None], y_w))

        self.path_sigma = ops.add(ops.mul(self.one_minus_cs, self.path_sigma),
                                  ops.mul(self.coef_sigma, ops.invsqrt_times(dec, y_w)))
        ps_norm = ops.norm(self.path_sigma)
        ratio = ops.div(ps_norm, self.chi)
        factor = ops.exp(ops.mul(self.cs_over_ds, ops.sub(ratio, self.one)))
        self.sigma, clamped = ops.floor_sigma(ops.mul(self.sigma, factor))
        self.sigma_clamps += clamped

        gen1 = self.generation + 1
        c_s = params.c_sigma
        h_sig = (ops.to_float(ps_norm) / math.sqrt(1.0 - (1.0 - c_s) ** (2.0 * gen1))
                 < (1.4 + 2.0 / (params.dim + 1.0)) * params.chi_n)
        # h_sigma picks coefficients, not branches: the path term's is zero
        # when it is off, the rank-1 correction's when it is on, and a zero
        # product adds nothing, in float and in fixed point alike
        self.path_c = ops.add(ops.mul(self.one_minus_cc, self.path_c),
                              ops.mul(np.where(h_sig, self.coef_c, self.zero)[:, None], y_w))
        rank1 = ops.add(ops.mul(self.path_c[:, :, None], self.path_c[:, None, :]),
                        ops.mul(np.where(h_sig, self.zero, self.hsig_coef)[:, None, None],
                                self.cov))

        cov = ops.add(ops.add(ops.mul(self.base_coef, self.cov), ops.mul(self.c1, rank1)),
                      ops.mul(self.cmu, ops.rank_mu(self.w, y)))
        cov = ops.halve(ops.add(cov, np.swapaxes(cov, 1, 2)))
        self.stale |= (cov != self.cov).any(axis=(1, 2))
        self.cov = cov
        self.generation = gen1
        self._candidates = None


@dataclass(frozen=True)
class MinimizeResult:
    best_p: np.ndarray
    best_fitness: float
    trace: list[float]          # running best after each generation
    evaluations: int
    nonfinite_count: int        # objective values replaced by +inf
    quant_warnings: Optional[dict] = None  # the machine's saturation/clamp counts


class Search:
    """The run of every row of one machine, each scored by its objective
    (``objectives`` has one per row, or is one for all): the baseline, if
    any, is evaluated on construction, each :meth:`step` is one generation
    of all live rows and :meth:`result` a row's outcome so far. Rows are
    named by position at construction. A row whose evaluation raises
    :class:`ContractViolation` or :class:`ConvergenceFailure`, or whose
    :meth:`CmaEs.prepare` fails, goes to ``errors`` and leaves ``rows``, the
    live ones; the rest go on with the same bits. ``seconds`` holds each
    row's own evaluation time plus an equal share of the rest of each step.
    Evaluations and steps run with numpy's overflow and invalid warnings
    off: a value they would warn of is non-finite, and the non-finite rule
    handles it, so ``nonfinite_count`` and the row's error are the signal.
    """

    def __init__(self, machine, objectives, baseline: Optional[np.ndarray] = None):
        count = len(machine.rngs)
        self.machine = machine
        self.objectives = [objectives] * count if callable(objectives) else list(objectives)
        if len(self.objectives) != count:
            raise ContractViolation("need one objective per row")
        self.rows = np.arange(count)
        self.errors: dict[int, Exception] = {}
        self.seconds = np.zeros(count)
        self.evaluations = 0
        self.nonfinite = np.zeros(count, dtype=np.int64)
        self.best_p: Optional[np.ndarray] = None
        self.best_f = np.full(count, math.inf)
        self.trace: list[np.ndarray] = []  # every row's running best after each generation
        if baseline is not None:
            baseline = real_array(baseline, "baseline", (machine.params.dim,))
            # in its number system, as one row all rows share
            point = machine.ops.to_float(machine.ops.quantize(baseline[None])[0])
            fits, _ = self._evaluate(np.broadcast_to(point, (count, 1, point.size)))
            self.best_f[self.rows] = fits[:, 0]
            self.best_p = np.tile(point, (count, 1))

    def _drop(self, failed: dict):
        """Record and drop the rows of ``failed``; the live rows kept, as an index."""
        if not failed:
            return slice(None)
        self.errors.update(failed)
        kept = ~np.isin(self.rows, list(failed))
        self.machine.keep(kept)
        self.rows = self.rows[kept]
        return kept

    @np.errstate(over="ignore", invalid="ignore")
    def _evaluate(self, points: np.ndarray) -> tuple:
        """Each live row's objective on its points, one timed call each; a
        non-finite value counts and becomes +inf. Drops the rows that fail;
        returns the others' fitnesses and the mask kept."""
        fits, failed = np.empty(points.shape[:2]), {}
        for j, row in enumerate(self.rows.tolist()):
            start = time.perf_counter()
            try:
                fits[j] = [self.objectives[row](point) for point in points[j]]
            except (ContractViolation, ConvergenceFailure) as exc:
                failed[row] = exc
            self.seconds[row] += time.perf_counter() - start
        self.evaluations += points.shape[1]
        kept = self._drop(failed)
        fits = fits[kept]
        nonfinite = ~np.isfinite(fits)
        if nonfinite.any():
            self.nonfinite[self.rows] += nonfinite.sum(axis=1)
            fits[nonfinite] = math.inf
        return fits, kept

    @np.errstate(over="ignore", invalid="ignore")
    def step(self) -> None:
        """One generation of every live row."""
        start, rows, own = time.perf_counter(), self.rows, self.seconds.sum()
        self._drop({int(rows[j]): exc for j, exc in self.machine.prepare().items()})
        if self.rows.size:
            points = np.asarray(self.machine.ask())
            fits, kept = self._evaluate(points)
            points, live = points[kept], self.rows
            best, low = fits.argmin(axis=1), fits.min(axis=1)  # the first minimum wins
            better = (low < self.best_f[live]) | (self.best_p is None)
            if self.best_p is None:
                self.best_p = np.zeros((len(self.objectives), points.shape[2]))
            self.best_f[live[better]] = low[better]
            self.best_p[live[better]] = points[better, best[better]]
            self.machine.tell(fits)
            self.trace.append(self.best_f.copy())
        rest = time.perf_counter() - start - (self.seconds.sum() - own)  # less the evaluations
        self.seconds[rows] += rest / max(len(rows), 1)

    def result(self, row: int = 0) -> MinimizeResult:
        """The outcome so far of live row ``row``."""
        assert self.best_p is not None  # a baseline or a step guarantees evaluations
        warnings = self.machine.quant_warnings
        at = self.rows.tolist().index(row)  # its position in the machine
        return MinimizeResult(
            best_p=self.best_p[row].copy(),
            best_fitness=float(self.best_f[row]),
            trace=[float(best[row]) for best in self.trace],
            evaluations=self.evaluations,
            nonfinite_count=int(self.nonfinite[row]),
            quant_warnings=None if warnings is None else {
                name: int(counts[at]) for name, counts in warnings.items()},
        )


def search(
    machine,
    objective: Callable[[np.ndarray], float],
    iterations: int,
    baseline: Optional[np.ndarray] = None,
) -> MinimizeResult:
    """Run ``iterations`` ask/evaluate/tell generations of a one-row
    ``machine`` and return the best point over every evaluation made.

    The optional ``baseline`` is evaluated first and competes with the
    machine's points, so the result can never be worse than it; with a
    baseline, zero iterations evaluate it alone. A non-finite objective value
    counts, and is +inf for selection and for ``tell``.
    """
    iterations = integer(iterations, "iterations")
    if iterations < 0 or (iterations == 0 and baseline is None):
        raise ContractViolation("iterations must be >= 1, or 0 with a baseline")
    if len(machine.rngs) != 1:
        raise ContractViolation("search runs a one-row machine")
    run = Search(machine, objective, baseline)
    for _ in range(iterations):
        run.step()
    for error in run.errors.values():
        raise error
    return run.result()
