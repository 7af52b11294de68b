"""Forward-only CMA-ES: the one search machine and the one search driver.

:class:`CmaEs` draws candidates from N(mean, sigma^2 * C). Ranked fitnesses
drive weighted recombination of the mean, cumulative step-size adaptation of
sigma, and a rank-1 plus rank-mu update of the covariance. Strategy constants
follow the standard tutorial defaults. The machine holds its state and its
constants (one table, ``_CONSTANTS``) in a number system ``ops``:
:class:`FloatOps`, whose primitives are plain numpy expressions, or the
fixed-point registers of :mod:`latentadapt.quant`. ``ask`` and ``tell`` are
written once over those primitives, so both number systems run the same
equations in the same order; h_sigma gates its two terms through a
coefficient that is zero when it is off. The covariance is decomposed with
the package's own deterministic eigensolver and all noise comes from the
package PRNG, so runs replay bit for bit from the seed. A generation's noise
is drawn in one call of :func:`latentadapt.rng.normals_many`: by ``ask``
itself on the machine's own stream, or beforehand for all the live machines
of a batch at once and handed to ``ask(noise)`` (``Search.step(noise)``
passes it on), which gives the same bits. Its candidates are computed as
stacked matrix-vector products (``np.matmul(B, x[:, :, None])``): each row
still goes through gemv, bit for bit like ``B @ x``, whereas one
matrix-matrix product may round differently.

Every search machine, this one and the 1-bit and fixed-point machines in
:mod:`latentadapt.quant`, has the same interface: ``ask()`` returns the
generation's candidates as a (population, dim) array, and ``tell(fitnesses)``
ranks the machine's own last candidates after :func:`fitness_order` has
checked the one fitness contract. :class:`Search` is the one
ask/evaluate/tell driver, one generation per ``step``; :func:`search` runs
it for a number of generations, and :class:`MinimizeResult` is its one
result type, with the quantized machines' saturation and clamp counts as
``quant_warnings``. Each machine keeps its covariance's :class:`Decomposition`
in ``decomposition``, None while stale, derived by its number system from
the eigenpairs of its ``float_cov()`` handed to ``take_decomposition``.
:func:`decompose_stale`, the one caller of the eigensolver on the search
path, decomposes one machine or a whole lockstep batch alike, solving each
distinct matrix of the call once; it keeps nothing from one call to the next.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import ContractViolation, ConvergenceFailure
from .rng import Xoshiro256pp, normals_many


def default_lambda(k: int) -> int:
    """Default population size 4 + floor(3 ln k)."""
    if k < 1:
        raise ContractViolation("dimension must be >= 1")
    return 4 + int(math.floor(3.0 * math.log(k)))


@dataclass(frozen=True, eq=False)
class CmaEsParams:
    """Strategy constants, read-only and free of the seed, so one instance
    serves every machine of a configuration. Build with :meth:`defaults`
    unless testing."""

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
        w = np.array(self.recombination_weights, dtype=np.float64)
        if w.shape != (self.parent_count,):
            raise ContractViolation("weights length must equal parent count")
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
        """Standard strategy constants for the given dimension: one shared
        instance per (dim, population, initial_sigma)."""
        if dim < 1:
            raise ContractViolation("dimension must be >= 1")
        lam = population if population is not None else default_lambda(dim)
        return _defaults(cls, dim, lam, float(initial_sigma))

    @property
    def chi_n(self) -> float:
        """Expected norm of a standard normal vector of the search dimension."""
        k = self.dim
        return math.sqrt(k) * (1.0 - 1.0 / (4.0 * k) + 1.0 / (21.0 * k * k))


@functools.lru_cache(maxsize=64)
def _defaults(cls, dim: int, lam: int, initial_sigma: float) -> CmaEsParams:
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
        initial_sigma=initial_sigma,
    )


def fitness_order(fitnesses, population: int, candidates) -> np.ndarray:
    """The contract of every machine's ``tell``: one ``tell`` per ``ask``
    (``candidates`` is None when nothing is asked), and exactly one finite
    float per candidate, else :class:`ContractViolation`. Returns the
    candidate indices ranked ascending by fitness, ties in candidate order."""
    if candidates is None:
        raise ContractViolation("tell needs an ask first, and pairs with one ask only")
    try:
        fit = np.asarray(fitnesses, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ContractViolation("fitnesses must be floats") from exc
    if fit.shape != (population,):
        raise ContractViolation(f"expected {population} fitnesses, got shape {fit.shape}")
    if not np.isfinite(fit).all():
        raise ContractViolation("fitnesses must be finite")
    return np.argsort(fit, kind="stable")


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
    """What a machine keeps of the eigen-decomposition of its covariance."""

    vectors: np.ndarray                    # eigenvectors, by descending eigenvalue
    scale: np.ndarray                      # square roots of the eigenvalues
    clamps: int = 0                        # fixed point: eigenvalues clamped up to the resolution
    invsqrt: Optional[np.ndarray] = None   # fixed point: C^(-1/2), tabulated in float and quantized
    invsqrt_saturations: int = 0           # the table's, counted again by every tell that uses it


class FloatOps:
    """The float number system of :class:`CmaEs`. Each primitive is the numpy
    expression the float update equations are written with, so the float
    machine's bits are those of the equations written out."""

    def quantize(self, x):
        return x

    to_float = quantize  # a float is its own value

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def halve(self, x):
        return x / 2.0

    def weighted_sum(self, w, y):
        return w @ y

    def rank_mu(self, w, y):
        return (y * w[:, None]).T @ y

    def norm(self, v):
        return float(np.linalg.norm(v))

    exp = staticmethod(math.exp)

    def invsqrt_times(self, dec: Decomposition, v):
        """C^(-1/2) v through the eigenpairs."""
        return dec.vectors @ ((dec.vectors.T @ v) / dec.scale)

    def floor_sigma(self, sigma):
        """Sigma as it is, and that it was not clamped."""
        return sigma, False

    def decomposition(self, values, vectors) -> Decomposition:
        if values[-1] <= 0.0:
            raise ConvergenceFailure(
                f"covariance lost positive definiteness (min eigenvalue {values[-1]:.3e})"
            )
        return Decomposition(vectors, np.sqrt(values))


class CmaEs:
    """CMA-ES as a search machine for :func:`search`, over a number system.

    A machine holds its ``params`` and a noise stream seeded by ``seed``,
    proposes the points to evaluate (``ask``, a (population, dim) float
    array), takes back their fitnesses in the same order (``tell``, once per
    ``ask``) and maps the baseline onto the point it stands for in its number
    system (``start``). Its state, strategy constants and arithmetic live in
    ``ops``: :class:`FloatOps` by default, fixed-point registers for
    :class:`latentadapt.quant.FixedCmaes`. It starts at zero mean, identity
    covariance and zeroed paths. Single-owner: drive from one thread only.
    """

    quant_warnings: Optional[dict] = None  # counts kept by quantized machines

    def __init__(self, params: CmaEsParams, seed: int, ops=None):
        self.params = params
        self.ops = ops = FloatOps() if ops is None else ops
        k = params.dim
        self.mean = ops.quantize(np.zeros(k))
        self.sigma, clamped = ops.floor_sigma(ops.quantize(params.initial_sigma))
        self.sigma_clamps = int(clamped)
        self.eig_clamps = 0
        self.cov = ops.quantize(np.eye(k))
        self.path_sigma = ops.quantize(np.zeros(k))
        self.path_c = ops.quantize(np.zeros(k))
        self.generation = 0
        self.rng = Xoshiro256pp(seed)
        self._candidates = None  # asked, not yet told
        self.decomposition: Optional[Decomposition] = None  # of cov, None while stale
        # strategy constants, quantized once per machine
        self.w = ops.quantize(params.recombination_weights)
        self.zero, self.one, self.chi = (ops.quantize(x) for x in (0.0, 1.0, params.chi_n))
        for attr, _, value in _CONSTANTS:
            setattr(self, attr, ops.quantize(value(params)))

    def float_cov(self) -> np.ndarray:
        return self.ops.to_float(self.cov)

    def take_decomposition(self, values: np.ndarray, vectors: np.ndarray) -> None:
        """Keep what the number system derives from the eigenpairs of
        :meth:`float_cov`; the float one refuses a non-positive eigenvalue."""
        self.decomposition = self.ops.decomposition(values, vectors)

    def start(self, baseline: np.ndarray) -> np.ndarray:
        return self.ops.to_float(self.ops.quantize(baseline))

    def ask(self, noise: Optional[np.ndarray] = None) -> np.ndarray:
        """Sample one population of candidates; advances only the RNG state.

        ``noise`` is the generation's population * dim normals from this
        machine's stream, as a lockstep draw of :func:`normals_many` gives
        them; when None, the machine draws them itself.
        """
        params, ops = self.params, self.ops
        size = params.population * params.dim
        if noise is not None and np.shape(noise) != (size,):
            raise ContractViolation(f"noise must have shape ({size},), got {np.shape(noise)}")
        dec = decomposition_of(self)
        self.eig_clamps += dec.clamps  # once per generation, reused or not
        if noise is None:
            noise = normals_many([self.rng], size)[0]
        noise = np.reshape(noise, (params.population, -1))
        # stacked matvecs: each row still goes through gemv, like ``vectors @ row``,
        # where one (population, dim) x (dim, dim) gemm may round differently
        y = np.matmul(dec.vectors, (dec.scale * noise)[:, :, None])[:, :, 0]
        self._candidates = ops.quantize(ops.to_float(self.mean) + ops.to_float(self.sigma) * y)
        return ops.to_float(self._candidates)

    def tell(self, fitnesses: list[float]) -> None:
        """Rank the last candidates ascending by fitness and update the search
        distribution.

        Ties rank by candidate index. The mean moves to the weighted
        recombination of the top parents, sigma follows cumulative step-size
        adaptation, and the covariance gets the rank-1 plus rank-mu update
        followed by explicit re-symmetrization. The decomposition goes stale
        only when the covariance changes.
        """
        params, ops = self.params, self.ops
        order = fitness_order(fitnesses, params.population, self._candidates)
        dec = decomposition_of(self)
        parents = self._candidates[order[: params.parent_count]]

        # normalized parent steps y_i = (x_i - m) / sigma
        y = ops.div(ops.sub(parents, self.mean), self.sigma)
        y_w = ops.weighted_sum(self.w, y)
        self.mean = ops.add(self.mean, ops.mul(self.sigma, y_w))

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
                              ops.mul(self.coef_c if h_sig else self.zero, y_w))
        rank1 = ops.add(ops.mul(self.path_c[:, None], self.path_c[None, :]),
                        ops.mul(self.zero if h_sig else self.hsig_coef, self.cov))

        cov = ops.add(ops.add(ops.mul(self.base_coef, self.cov), ops.mul(self.c1, rank1)),
                      ops.mul(self.cmu, ops.rank_mu(self.w, y)))
        cov = ops.halve(ops.add(cov, cov.T))
        if not np.array_equal(cov, self.cov):
            self.decomposition = None
        self.cov = cov
        self.generation = gen1
        self._candidates = None


def decompose_stale(machines: list) -> dict[int, Optional[Exception]]:
    """Decompose the matrix of every machine in ``machines`` (all of one
    dimension) whose decomposition is stale, and hand it its eigenpairs: one
    :func:`linalg.sym_eig_many` call, which solves each distinct matrix once.

    Returns the positions of the machines that took part, each mapped to
    None when the machine now holds its decomposition, or else to the
    exception its own ``ask`` would have raised.
    """
    stale = [i for i, m in enumerate(machines) if m.decomposition is None]
    if not stale:
        return {}
    matrices = {i: machines[i].float_cov() for i in stale}
    keys = {i: matrix.tobytes() for i, matrix in matrices.items()}
    distinct = {keys[i]: matrices[i] for i in stale}
    solved = linalg.sym_eig_many(list(distinct.values()), machines[stale[0]].params.dim)
    found = dict(zip(distinct, solved))
    outcome: dict[int, Optional[Exception]] = {}
    for i, key in keys.items():
        outcome[i] = found[key] if isinstance(found[key], Exception) else None
        if outcome[i] is None:
            try:
                machines[i].take_decomposition(*found[key])
            except (ContractViolation, ConvergenceFailure) as exc:
                outcome[i] = exc
    return outcome


def decomposition_of(machine):
    """The machine's decomposition, made by :func:`decompose_stale` if stale."""
    error = decompose_stale([machine]).get(0)
    if error is not None:
        raise error
    return machine.decomposition


@dataclass(frozen=True)
class MinimizeResult:
    best_p: np.ndarray
    best_fitness: float
    trace: list[float]          # running best after each generation
    evaluations: int
    nonfinite_count: int        # objective values replaced by +inf
    quant_warnings: Optional[dict] = None  # the machine's saturation/clamp counts


class Search:
    """One machine's run of :func:`search`: the baseline, if any, is
    evaluated on construction, each :meth:`step` is one ask/evaluate/tell
    generation and :meth:`result` the outcome so far. A batch runner
    advances many of them together."""

    def __init__(self, machine, objective: Callable[[np.ndarray], float],
                 baseline: Optional[np.ndarray] = None):
        self.machine = machine
        self.objective = objective
        self.evaluations = 0
        self.nonfinite = 0
        self.best_p: Optional[np.ndarray] = None
        self.best_f = math.inf
        self.trace: list[float] = []
        if baseline is not None:
            baseline = np.asarray(baseline, dtype=np.float64)
            if baseline.shape != (machine.params.dim,):
                raise ContractViolation("baseline must have the search dimension")
            point = machine.start(baseline)
            self.best_f = self._evaluate(point)
            self.best_p = point.copy()

    def _evaluate(self, point: np.ndarray) -> float:
        value = float(self.objective(point))
        self.evaluations += 1
        if not math.isfinite(value):
            self.nonfinite += 1
            return math.inf
        return value

    def step(self, noise: Optional[np.ndarray] = None) -> None:
        """One generation, on ``noise`` for the machine's ``ask`` if given."""
        points = self.machine.ask() if noise is None else self.machine.ask(noise)
        fits = [self._evaluate(point) for point in points]
        for point, f in zip(points, fits):
            if self.best_p is None or f < self.best_f:
                self.best_f = f
                self.best_p = point.copy()
        if any(math.isinf(f) for f in fits):
            finite = [f for f in fits if math.isfinite(f)]
            worst = max(finite) if finite else 0.0
            # above worst also where adding 1 rounds back to it (|worst| >= 2^53);
            # the largest float has nothing finite above it, and ties instead
            sentinel = min(max(worst + 1.0, math.nextafter(worst, math.inf)), sys.float_info.max)
            fits = [f if math.isfinite(f) else sentinel for f in fits]
        self.machine.tell(fits)
        self.trace.append(self.best_f)

    def result(self) -> MinimizeResult:
        assert self.best_p is not None  # a baseline or a step guarantees evaluations
        return MinimizeResult(
            best_p=self.best_p,
            best_fitness=self.best_f,
            trace=self.trace,
            evaluations=self.evaluations,
            nonfinite_count=self.nonfinite,
            quant_warnings=self.machine.quant_warnings,
        )


def search(
    machine,
    objective: Callable[[np.ndarray], float],
    iterations: int,
    baseline: Optional[np.ndarray] = None,
) -> MinimizeResult:
    """Run ``iterations`` ask/evaluate/tell generations of ``machine`` and
    return the best point over every evaluation made.

    The optional ``baseline`` is evaluated first and competes with the
    machine's points, so the result can never be worse than it; with a
    baseline, zero iterations evaluate it alone. A non-finite objective value
    counts as +inf for selection and reaches ``tell`` as one more than the
    generation's worst finite value (1 when none is finite), or as the next
    float above it where adding 1 would round back to that value.
    """
    if iterations < 0 or (iterations == 0 and baseline is None):
        raise ContractViolation("iterations must be >= 1, or 0 with a baseline")
    run = Search(machine, objective, baseline)
    for _ in range(iterations):
        run.step()
    return run.result()
