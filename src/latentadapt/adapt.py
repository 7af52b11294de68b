"""Single-instance adaptation of one latent vector.

For each test latent, a coordinate vector is searched by entropy minimization
over the fitted subspace, the frozen decoder scoring every candidate. The
mode picks the search machine: ``ted`` searches in float, ``qted-v1`` with
1-bit corrections and ``fixed`` in fixed-point registers, while ``none``
evaluates the baseline alone. The no-correction point competes in the
selection, so an adapted prediction can never be less confident than the
unadapted one. Nothing in the decoder or subspace is ever modified.

:func:`adapt_batch` runs its rows in lockstep, ``_LOCKSTEP_ROWS`` at a time,
as the rows of one search machine driven by one :class:`cmaes.Search`: each
generation is at most one eigensolver call (rows start decomposed, so an
8b4 chunk makes none), one noise draw, one ``ask`` and one ``tell`` for all
live rows, and one :func:`decoder.fitness` call per candidate. Every row of
a chunk is a row of the machine: a row whose latent is refused gets an
objective that raises the refusal, so it fails at its baseline evaluation,
before any noise is drawn. A row that fails is dropped and the others go on
with the same bits, so a row's result does not depend on its batch.
:func:`adapt` is the same runner, on one row or on one chunk of a batch.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import cmaes, quant
from .decoder import LinearDecoder, Prediction, decode, fitness
from .errors import ContractViolation, integer, real_array, seed64
from .quant import FixedPointFormat
from .rng import derive_seed
from .subspace import PrincipalSubspace, apply_correction

MODES = ("none", "ted", "qted-v1", "fixed")
# a batch runs in lockstep this many rows at a time: each live row holds its
# search state (about 20 KB at k = 16), and the stacked decomposition and
# update gain little beyond a few hundred rows
_LOCKSTEP_ROWS = 256


def _positive(x: float) -> bool:
    try:
        return math.isfinite(x) and x > 0.0
    except OverflowError:  # an int past the float range
        return False


def _real(x, name: str):
    """``x`` if it is a real number, else :class:`ContractViolation`; a bool
    is not."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        return x
    raise ContractViolation(f"{name} must be a real number, got {x!r}")


def _fixed_format(x, name: str) -> FixedPointFormat:
    if isinstance(x, FixedPointFormat):
        return x
    raise ContractViolation(f"{name} must be a FixedPointFormat, got {x!r}")


# each field's check, which returns the value kept; a field whose default is
# None may be None
_KINDS = {"k": integer, "n": integer, "population": integer, "seed": seed64,
          "sigma0": _real, "binary_alpha": _real, "fixed_format": _fixed_format}


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
        for name, kind in _KINDS.items():
            value = getattr(self, name)
            if value is not None or getattr(AdaptationConfig, name) is not None:
                object.__setattr__(self, name, kind(value, name))
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
    ``cfg.seed`` itself. Given ``indices``, ``z_t`` is a chunk of rows,
    checked and seeded as :func:`adapt_batch` does, and the chunk's
    :class:`BatchResult` is returned; :func:`adapt_batch` runs every chunk so,
    and profiles (``bench/spans.py``) find all searches inside ``adapt``.
    """
    if indices is not None:
        z_rows, indices = _checked_batch(z_t, indices)
        return _run(z_rows, decoder, s, cfg, [derive_seed(cfg.seed, int(i)) for i in indices])
    batch = _run([z_t], decoder, s, cfg, [cfg.seed])
    if batch.errors:
        raise batch.errors[0]
    return batch.results[0]


def _checked_latent(z_t, decoder: LinearDecoder, s: PrincipalSubspace,
                    cfg: AdaptationConfig) -> np.ndarray | ContractViolation:
    """A row's latent as a float array, or the refusal of its first failed check."""
    try:
        z_t = real_array(z_t, "latent", (s.dim,))
    except ContractViolation as exc:
        return exc
    if not np.all(np.isfinite(z_t)):
        return ContractViolation("latent contains non-finite entries")
    if cfg.k != s.k:
        return ContractViolation(f"config k={cfg.k} does not match subspace k={s.k}")
    if decoder.dim != s.dim:
        return ContractViolation("decoder and subspace dimensions differ")
    return z_t


def _refuse(error: ContractViolation, p: np.ndarray) -> float:
    """The objective of a refused row, which fails at its first evaluation."""
    raise error


def _machine(cfg: AdaptationConfig, seeds: list[int]):
    """The mode's search machine, one row per seed."""
    params = cmaes.CmaEsParams.defaults(cfg.k, cfg.population, cfg.sigma0)
    if cfg.mode == "fixed":
        return quant.FixedCmaes(params, cfg.fixed_format, seeds)
    if cfg.mode == "qted-v1":
        return quant.BinaryCmaes(params, seeds, cfg.binary_alpha, cfg.binary_feedback)
    return cmaes.CmaEs(params, seeds)


def _finish_row(result: cmaes.MinimizeResult, z_t: np.ndarray, decoder: LinearDecoder,
                s: PrincipalSubspace) -> AdaptationResult:
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
    or ConvergenceFailure, a refused latent at its baseline evaluation
    included, is recorded as failed; any other exception propagates. Each
    row's wall time is the time of its evaluations and its result plus an
    equal share of the rest of each generation it took part in.
    """
    z_rows, indices = _checked_batch(z_rows, indices)
    n_rows = z_rows.shape[0]
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


def _checked_batch(z_rows, indices) -> tuple[np.ndarray, np.ndarray]:
    """The rows as a 2-d float array and their seed indices: the row
    positions when ``indices`` is None, else checked as one integer >= 0 per
    row, so that bad indices fail before any row runs."""
    z_rows = real_array(z_rows, "batch")
    if z_rows.ndim != 2:
        raise ContractViolation("batch must be a 2-d array of latents")
    if indices is None:
        return z_rows, np.arange(len(z_rows))
    indices = np.asarray(indices)
    if indices.shape != (len(z_rows),):
        raise ContractViolation("indices must have one entry per row")
    if not (np.issubdtype(indices.dtype, np.integer) and (indices >= 0).all()):
        raise ContractViolation("indices must be integers >= 0")
    return z_rows, indices


def _run(z_rows, decoder: LinearDecoder, s: PrincipalSubspace, cfg: AdaptationConfig,
         seeds: list[int]) -> BatchResult:
    """The lockstep runner of the module docstring, for the rows and wall
    times :func:`adapt_batch` describes: row ``i`` is machine row ``i``,
    seeded with ``seeds[i]``. A refused row's objective is :func:`_refuse`,
    so :class:`cmaes.Search` drops it at the baseline evaluation, before any
    noise is drawn."""
    latents = [_checked_latent(z_t, decoder, s, cfg) for z_t in z_rows]
    objectives = [functools.partial(_refuse, z_t) if isinstance(z_t, ContractViolation)
                  else functools.partial(fitness, decoder, s, z_t) for z_t in latents]
    # every row starts from the zero correction, +0.0 in each coordinate
    run = cmaes.Search(_machine(cfg, seeds), objectives, np.zeros(cfg.k))
    for _ in range(0 if cfg.mode == "none" else cfg.n):
        run.step()
    results: list[Optional[AdaptationResult]] = [None] * len(latents)
    wall = run.seconds.copy()
    for i in run.rows.tolist():
        start = time.perf_counter()
        results[i] = _finish_row(run.result(i), latents[i], decoder, s)
        wall[i] += time.perf_counter() - start
    return BatchResult(results=results, errors=dict(sorted(run.errors.items())),
                       wall_ms=(wall * 1e3).tolist())
