"""Forward-only CMA-ES: the float search machine and the one search driver.

:class:`CmaEs` draws candidates from N(mean, sigma^2 * C). Ranked fitnesses
drive weighted recombination of the mean, cumulative step-size adaptation of
sigma, and a rank-1 plus rank-mu update of the covariance. Strategy constants
follow the standard tutorial defaults; the covariance is decomposed with the
package's own deterministic eigensolver and all noise comes from the package
PRNG, so runs replay bit for bit from the seed. A generation's noise is drawn
in one call, and its candidates are computed as stacked matrix-vector
products (``np.matmul(B, x[:, :, None])``): each row still goes through gemv,
bit for bit like ``B @ x``, whereas one matrix-matrix product may round
differently.

Every search machine, this one and the 1-bit and fixed-point machines in
:mod:`latentadapt.quant`, has the same interface: ``ask()`` returns the
generation's candidates as a (population, dim) array, and ``tell(fitnesses)``
ranks the machine's own last candidates after :func:`fitness_order` has
checked the one fitness contract. :class:`Search` is the one
ask/evaluate/tell driver, one generation per ``step``; :func:`search` runs
it for a number of generations, and :class:`MinimizeResult` is its one
result type, with the quantized machines' saturation and clamp counts as
``quant_warnings``. The batch runner in :mod:`latentadapt.adapt` steps many
searches in lockstep and, before each generation, hands every stale float
covariance to :func:`decompose_stale`, which decomposes them in one
:func:`latentadapt.linalg.sym_eig_many` call; each machine then finds its
decomposition cached, so its arithmetic is the same as when run alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import ContractViolation, ConvergenceFailure
from .rng import Xoshiro256pp


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


def _positive_definite(decomposition: tuple[np.ndarray, np.ndarray]) -> tuple:
    values = decomposition[0]
    if values[-1] <= 0.0:
        raise ConvergenceFailure(
            f"covariance lost positive definiteness (min eigenvalue {values[-1]:.3e})"
        )
    return decomposition


class CmaEs:
    """Float CMA-ES as a search machine for :func:`search`.

    A machine holds its ``params`` and a noise stream seeded by ``seed``,
    proposes the points to evaluate (``ask``, a (population, dim) array),
    takes back their fitnesses in the same order (``tell``, once per
    ``ask``) and maps the baseline onto the point it stands for in its number
    system (``start``). It starts at zero mean, identity covariance and
    zeroed paths. Single-owner: drive from one thread only.
    """

    quant_warnings: Optional[dict] = None  # counts kept by quantized machines

    def __init__(self, params: CmaEsParams, seed: int):
        self.params = params
        k = params.dim
        self.mean = np.zeros(k)
        self.sigma = params.initial_sigma
        self.cov = np.eye(k)
        self.path_sigma = np.zeros(k)
        self.path_c = np.zeros(k)
        self.generation = 0
        self.rng = Xoshiro256pp(seed)
        self._candidates: Optional[np.ndarray] = None  # asked, not yet told
        self._dec: Optional[tuple[np.ndarray, np.ndarray]] = None  # of cov, until tell

    def _decomposition(self) -> tuple[np.ndarray, np.ndarray]:
        if self._dec is None:
            self._dec = _positive_definite(linalg.sym_eig(self.cov, self.params.dim))
        return self._dec

    def start(self, baseline: np.ndarray) -> np.ndarray:
        return baseline

    def ask(self) -> np.ndarray:
        """Sample one population of candidates; advances only the RNG state."""
        params = self.params
        values, vectors = self._decomposition()
        scale = np.sqrt(values)
        noise = self.rng.normals(params.population * params.dim).reshape(params.population, -1)
        # stacked matvecs: each row still goes through gemv, like ``vectors @ row``
        y = np.matmul(vectors, (scale * noise)[:, :, None])[:, :, 0]
        self._candidates = self.mean + self.sigma * y
        return self._candidates

    def tell(self, fitnesses: list[float]) -> None:
        """Rank the last candidates ascending by fitness and update the search
        distribution.

        Ties rank by candidate index. The mean moves to the weighted
        recombination of the top parents, sigma follows cumulative step-size
        adaptation, and the covariance gets the rank-1 plus rank-mu update
        followed by explicit re-symmetrization.
        """
        params = self.params
        order = fitness_order(fitnesses, params.population, self._candidates)
        values, vectors = self._decomposition()
        parents = self._candidates[order[: params.parent_count]]
        w = params.recombination_weights

        old_mean = self.mean
        y_parents = (parents - old_mean) / self.sigma
        y_w = w @ y_parents
        self.mean = old_mean + self.sigma * y_w

        # C^(-1/2) action via the cached eigendecomposition
        invsqrt_yw = vectors @ ((vectors.T @ y_w) / np.sqrt(values))
        c_s = params.c_sigma
        self.path_sigma = (1.0 - c_s) * self.path_sigma + math.sqrt(
            c_s * (2.0 - c_s) * params.mu_eff
        ) * invsqrt_yw

        gen1 = self.generation + 1
        ps_norm = float(np.linalg.norm(self.path_sigma))
        self.sigma = self.sigma * math.exp(
            (c_s / params.d_sigma) * (ps_norm / params.chi_n - 1.0)
        )

        h_sig = 1.0 if (
            ps_norm / math.sqrt(1.0 - (1.0 - c_s) ** (2.0 * gen1))
            < (1.4 + 2.0 / (params.dim + 1.0)) * params.chi_n
        ) else 0.0
        c_c = params.c_c
        self.path_c = (1.0 - c_c) * self.path_c + h_sig * math.sqrt(
            c_c * (2.0 - c_c) * params.mu_eff
        ) * y_w

        rank_mu = (y_parents * w[:, None]).T @ y_parents
        cov = (
            (1.0 - params.c_1 - params.c_mu) * self.cov
            + params.c_1
            * (
                np.outer(self.path_c, self.path_c)
                + (1.0 - h_sig) * c_c * (2.0 - c_c) * self.cov
            )
            + params.c_mu * rank_mu
        )
        self.cov = (cov + cov.T) / 2.0
        self.generation = gen1
        self._dec = None
        self._candidates = None


def decompose_stale(machines: list) -> dict[int, Optional[Exception]]:
    """Decompose the covariance of every float machine in ``machines`` (all
    of one dimension) whose decomposition is stale, with one
    :func:`linalg.sym_eig_many` call, which stacks the matrices once there
    are enough of them.

    Returns the positions of the machines that took part, each mapped to
    None when the machine now holds its decomposition, or else to the
    exception its own ``ask`` would have raised.
    """
    stale = [i for i, m in enumerate(machines) if isinstance(m, CmaEs) and m._dec is None]
    if not stale:
        return {}
    found = linalg.sym_eig_many([machines[i].cov for i in stale], machines[stale[0]].params.dim)
    outcome: dict[int, Optional[Exception]] = {}
    for i, decomposition in zip(stale, found):
        if not isinstance(decomposition, Exception):
            try:
                machines[i]._dec = _positive_definite(decomposition)
                decomposition = None
            except ConvergenceFailure as exc:
                decomposition = exc
        outcome[i] = decomposition
    return outcome


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

    def step(self) -> None:
        points = self.machine.ask()
        fits = [self._evaluate(point) for point in points]
        for point, f in zip(points, fits):
            if self.best_p is None or f < self.best_f:
                self.best_f = f
                self.best_p = point.copy()
        if any(math.isinf(f) for f in fits):
            finite = [f for f in fits if math.isfinite(f)]
            sentinel = (max(finite) if finite else 0.0) + 1.0
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
    generation's worst finite value (1 when none is finite).
    """
    if iterations < 0 or (iterations == 0 and baseline is None):
        raise ContractViolation("iterations must be >= 1, or 0 with a baseline")
    run = Search(machine, objective, baseline)
    for _ in range(iterations):
        run.step()
    return run.result()
