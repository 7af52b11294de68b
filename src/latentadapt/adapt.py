"""Single-instance adaptation of one latent vector.

For each test latent, a coordinate vector is searched by entropy minimization
over the fitted subspace, the frozen decoder scoring every candidate. The
mode picks the search machine: ``ted`` searches in float, ``qted-v1`` with
1-bit corrections and ``fixed`` in fixed-point registers, while ``none``
evaluates the baseline alone. The no-correction point competes in the
selection, so an adapted prediction can never be less confident than the
unadapted one. Nothing in the decoder or
subspace is ever modified.

:func:`adapt_batch` runs its rows in lockstep, ``_LOCKSTEP_ROWS`` at a time:
each row's search advances one generation at a time, and before each
generation the covariances of all live float searches are decomposed
together, stacked once there are at least ``linalg._STACK_MIN`` of them.
Each row's ask, evaluation and tell stay its own, so a row's result does not
depend on the batch it ran in. :func:`adapt` is the same runner, on one row
or on one chunk of a batch.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import cmaes, quant
from .decoder import LinearDecoder, Prediction, decode, fitness
from .errors import ContractViolation, ConvergenceFailure
from .quant import FixedPointFormat
from .rng import derive_seed
from .subspace import PrincipalSubspace, apply_correction

MODES = ("none", "ted", "qted-v1", "fixed")
# a batch runs in lockstep this many rows at a time: each live row holds its
# search state (about 20 KB at k = 16), and the stacked decomposition gains
# little beyond a few hundred matrices
_LOCKSTEP_ROWS = 256


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


@dataclass(frozen=True)
class AdaptationConfig:
    """Per-task knobs for the adaptation search.

    ``population`` defaults to the standard rule for the subspace dimension.
    ``binary_alpha`` pins the 1-bit magnitude; when None it tracks the
    optimizer's current step size. ``binary_feedback`` feeds the quantized
    candidates back into the optimizer update instead of the raw ones.
    """

    k: int = 16
    n: int = 8
    population: Optional[int] = None
    sigma0: float = 1.0
    seed: int = 0
    mode: str = "ted"
    fixed_format: Optional[FixedPointFormat] = None
    binary_alpha: Optional[float] = None
    binary_feedback: bool = False

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ContractViolation("k and n must be >= 1")
        if self.mode not in MODES:
            raise ContractViolation(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "fixed" and self.fixed_format is None:
            raise ContractViolation("mode 'fixed' requires fixed_format")
        if self.population is not None and self.population < 2:
            raise ContractViolation("population must be >= 2")
        if not _positive(self.sigma0):
            raise ContractViolation("sigma0 must be finite and > 0")
        if self.binary_alpha is not None and not _positive(self.binary_alpha):
            raise ContractViolation("binary_alpha must be finite and > 0")

    def with_seed(self, seed: int) -> "AdaptationConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class AdaptationResult:
    p_star: np.ndarray
    z_adapted: np.ndarray
    prediction: Prediction
    baseline_prediction: Prediction
    entropy_trace: list[float]
    evaluations: int
    nonfinite_count: int  # objective values the search replaced by +inf
    quant_warnings: Optional[dict] = None  # fixed mode: saturation/clamp counts


def adapt(
    z_t: np.ndarray,
    decoder: LinearDecoder,
    s: PrincipalSubspace,
    cfg: AdaptationConfig,
    *,
    indices: Optional[np.ndarray] = None,
) -> AdaptationResult | BatchResult:
    """Adapt one latent and return the best correction found.

    Runs ``cfg.n`` generations of entropy-minimizing search over the
    correction coordinates (none in mode ``none``), with the zero correction
    evaluated first as the baseline. The winner is the lowest-entropy point
    over every evaluation. This is the batch runner on one row, seeded with
    ``cfg.seed`` itself.

    Given ``indices``, ``z_t`` is instead a chunk of rows, row ``i`` seeded
    from ``indices[i]`` as :func:`adapt_batch` seeds it, and the chunk's
    :class:`BatchResult` is returned. :func:`adapt_batch` runs each of its
    chunks this way, so every search runs inside an ``adapt`` call, where
    profiles of the package (``bench/spans.py``) look for it.
    """
    if indices is not None:
        return _run(z_t, decoder, s, cfg, indices)
    batch = _run([z_t], decoder, s, cfg, None)
    if batch.errors:
        raise batch.errors[0]
    return batch.results[0]


def _start_row(z_t, decoder: LinearDecoder, s: PrincipalSubspace, cfg: AdaptationConfig,
               index: Optional[int]) -> tuple[cmaes.Search, np.ndarray]:
    """One row's search, its baseline evaluated, and the row's latent. The
    machine is seeded from ``index``, or with ``cfg.seed`` itself when it is
    None."""
    seed = cfg.seed if index is None else derive_seed(cfg.seed, int(index))
    z_t = np.asarray(z_t, dtype=np.float64)
    if z_t.shape != (s.dim,):
        raise ContractViolation(f"latent must have shape ({s.dim},), got {z_t.shape}")
    if not np.all(np.isfinite(z_t)):
        raise ContractViolation("latent contains non-finite entries")
    if cfg.k != s.k:
        raise ContractViolation(f"config k={cfg.k} does not match subspace k={s.k}")
    if decoder.dim != s.dim:
        raise ContractViolation("decoder and subspace dimensions differ")

    params = cmaes.CmaEsParams.defaults(cfg.k, cfg.population, cfg.sigma0)
    if cfg.mode == "fixed":
        machine = quant.FixedCmaes(params, cfg.fixed_format, seed)
    elif cfg.mode == "qted-v1":
        machine = quant.BinaryCmaes(params, seed, cfg.binary_alpha, cfg.binary_feedback)
    else:
        machine = cmaes.CmaEs(params, seed)
    # every machine starts from the zero correction, +0.0 in each coordinate
    run = cmaes.Search(machine, functools.partial(fitness, decoder, s, z_t),
                       baseline=np.zeros(cfg.k))
    return run, z_t


def _finish_row(run: cmaes.Search, z_t: np.ndarray, decoder: LinearDecoder,
                s: PrincipalSubspace) -> AdaptationResult:
    result = run.result()
    p_star = result.best_p
    z_adapted = apply_correction(s, z_t, p_star)
    baseline_prediction = decode(decoder, apply_correction(s, z_t, np.zeros(s.k)))
    # an all-zero winner is the baseline: an equal later point cannot score lower
    prediction = decode(decoder, z_adapted) if p_star.any() else baseline_prediction
    return AdaptationResult(
        p_star=p_star,
        z_adapted=z_adapted,
        prediction=prediction,
        baseline_prediction=baseline_prediction,
        entropy_trace=result.trace,
        evaluations=result.evaluations,
        nonfinite_count=result.nonfinite_count,
        quant_warnings=result.quant_warnings,
    )


@dataclass(frozen=True)
class BatchResult:
    """Per-row outcomes; failed rows hold None with the error kept alongside."""

    results: list[Optional[AdaptationResult]]
    errors: dict[int, Exception] = field(default_factory=dict)
    wall_ms: list[float] = field(default_factory=list)  # per row, failed rows too


def adapt_batch(
    z_rows: np.ndarray,
    decoder: LinearDecoder,
    s: PrincipalSubspace,
    cfg: AdaptationConfig,
    indices: Optional[np.ndarray] = None,
) -> BatchResult:
    """Adapt each row independently with a per-row derived seed.

    Row ``i`` uses the seed derived from ``cfg.seed`` and ``indices[i]``
    (default: the row position; else integers >= 0, checked before any row
    runs), so outcomes do not depend on processing order and shards can be
    recombined. Rows run in lockstep ``_LOCKSTEP_ROWS`` at a time, each chunk
    by one :func:`adapt` call. A row that raises ContractViolation
    or ConvergenceFailure is recorded as failed; any other exception
    propagates. Each row's wall time is the time spent on that row alone
    plus an equal share of each joint decomposition it took part in.
    """
    z_rows = np.asarray(z_rows, dtype=np.float64)
    if z_rows.ndim != 2:
        raise ContractViolation("batch must be a 2-d array of latents")
    n_rows = z_rows.shape[0]
    if indices is None:
        indices = np.arange(n_rows)
    else:
        indices = np.asarray(indices)
        if indices.shape != (n_rows,):
            raise ContractViolation("indices must have one entry per row")
        if not (np.issubdtype(indices.dtype, np.integer) and (indices >= 0).all()):
            raise ContractViolation("indices must be integers >= 0")

    results: list[Optional[AdaptationResult]] = []
    errors: dict[int, Exception] = {}
    wall_ms: list[float] = []
    for start in range(0, n_rows, _LOCKSTEP_ROWS):
        rows = slice(start, start + _LOCKSTEP_ROWS)
        chunk = adapt(z_rows[rows], decoder, s, cfg, indices=indices[rows])
        results += chunk.results
        errors.update((start + i, exc) for i, exc in chunk.errors.items())
        wall_ms += chunk.wall_ms
    return BatchResult(results=results, errors=errors, wall_ms=wall_ms)


def _run(z_rows, decoder: LinearDecoder, s: PrincipalSubspace, cfg: AdaptationConfig,
         indices: Optional[np.ndarray]) -> BatchResult:
    """The lockstep runner: every row's search advances one generation at a
    time, and before each generation the stale covariances of all live
    float machines are decomposed together (:func:`cmaes.decompose_stale`).

    Row ``i`` is seeded from ``indices[i]``, or with ``cfg.seed`` itself when
    ``indices`` is None. A row fails alone. Its wall time is the time spent
    on it alone plus an equal share of each joint decomposition it took part
    in.
    """
    n_rows = len(z_rows)
    wall = [0.0] * n_rows
    errors: dict[int, Exception] = {}
    rows: dict[int, tuple[cmaes.Search, np.ndarray]] = {}

    def timed(i: int, step, *args):
        start = time.perf_counter()
        try:
            return step(*args)
        except (ContractViolation, ConvergenceFailure) as exc:
            errors[i] = exc
            rows.pop(i, None)
        finally:
            wall[i] += time.perf_counter() - start

    for i in range(n_rows):
        row = timed(i, _start_row, z_rows[i], decoder, s, cfg,
                    None if indices is None else indices[i])
        if row is not None:
            rows[i] = row
    for _ in range(0 if cfg.mode == "none" else cfg.n):
        live = list(rows)
        start = time.perf_counter()
        joined = cmaes.decompose_stale([rows[i][0].machine for i in live])
        share = (time.perf_counter() - start) / max(len(joined), 1)
        for j, exc in joined.items():
            wall[live[j]] += share
            if exc is not None:
                errors[live[j]] = exc
                del rows[live[j]]
        for i in list(rows):
            timed(i, rows[i][0].step)
    results: list[Optional[AdaptationResult]] = [None] * n_rows
    for i, (run, z_t) in list(rows.items()):
        results[i] = timed(i, _finish_row, run, z_t, decoder, s)
    return BatchResult(results=results, errors=dict(sorted(errors.items())),
                       wall_ms=[w * 1e3 for w in wall])
