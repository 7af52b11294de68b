import dataclasses
import hashlib
import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentadapt import cmaes, linalg, quant, rng
from latentadapt.errors import ContractViolation, ConvergenceFailure

# frozen regression fixture: first population for dimension 2, seed 42
GOLDEN_ASK_K2_SEED42 = np.array(
    [
        [0.9813983900724986, -0.565720104673956],
        [1.3403256427520227, 0.4023128702992608],
        [-0.9642205062941384, 0.2705508644582529],
        [0.1962265296745266, 1.1536067585699392],
        [0.20290854483035597, -0.48523781072537336],
        [-2.2415265146996535, 1.063884628300405],
    ]
)


def sphere(p):
    return float(np.sum(p * p))


def rosenbrock(p):
    return float(
        sum(100.0 * (p[i + 1] - p[i] ** 2) ** 2 + (1.0 - p[i]) ** 2 for i in range(len(p) - 1))
    )


def test_default_lambda_values():
    assert cmaes.default_lambda(16) == 12
    assert cmaes.default_lambda(2) == 6
    assert cmaes.default_lambda(1) == 4


def test_params_defaults_are_valid():
    for dim in (1, 2, 8, 16, 32):
        params = cmaes.CmaEsParams.defaults(dim)
        w = params.recombination_weights
        assert params.parent_count == params.population // 2
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(np.diff(w) < 0.0) or len(w) == 1
        assert params.d_sigma >= 1.0
        for rate in (params.c_sigma, params.c_c, params.c_1, params.c_mu):
            assert 0.0 < rate <= 1.0


def _param_values(params):
    return {f.name: (v.tolist() if isinstance(v, np.ndarray) else v)
            for f in dataclasses.fields(params) for v in [getattr(params, f.name)]}


def test_params_defaults_are_one_shared_read_only_instance():
    params = cmaes.CmaEsParams.defaults(16)
    values = _param_values(params)
    assert _param_values(cmaes.CmaEsParams.defaults(16, population=None)) == values
    same = cmaes.CmaEsParams.defaults(16, population=12, initial_sigma=1)
    assert _param_values(same) == values and type(same.initial_sigma) is float
    assert _param_values(cmaes.CmaEsParams.defaults(16, initial_sigma=0.5)) != values
    assert _param_values(cmaes.CmaEsParams.defaults(16, population=10)) != values
    assert not hasattr(params, "seed")
    with pytest.raises(ValueError):
        params.recombination_weights[0] = 0.5
    # the weights given are copied, not frozen in the caller's hands
    weights = np.array([0.75, 0.25])
    fields = {name: getattr(params, name) for name in ("mu_eff", "c_sigma", "d_sigma", "c_c",
                                                         "c_1", "c_mu")}
    own = cmaes.CmaEsParams(dim=2, population=4, parent_count=2, recombination_weights=weights,
                            initial_sigma=1.0, **fields)
    weights[0] = 0.8
    assert own.recombination_weights.tolist() == [0.75, 0.25]


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
def test_params_refuse_an_initial_sigma_not_finite_and_positive(sigma):
    with pytest.raises(ContractViolation):
        cmaes.CmaEsParams.defaults(4, initial_sigma=sigma)


def _replaced(**fields):
    params = cmaes.CmaEsParams.defaults(4)
    return lambda: dataclasses.replace(params, **fields)


_WEIGHTS = cmaes.CmaEsParams.defaults(4).recombination_weights
_PARAM_REFUSALS = {
    "lambda-dim": (lambda: cmaes.default_lambda(0), "dimension must be >= 1"),
    "defaults-dim": (lambda: cmaes.CmaEsParams.defaults(0), "dimension must be >= 1"),
    "population": (_replaced(population=1), "population must be >= 2"),
    "weights-count": (_replaced(recombination_weights=_WEIGHTS[:-1]),
                      "recombination weights must have shape (4,), got (3,)"),
    "weights-order": (_replaced(recombination_weights=_WEIGHTS[::-1]),
                      "weights must be positive and strictly decreasing"),
    "weights-sum": (_replaced(recombination_weights=_WEIGHTS / 2.0), "weights must sum to 1"),
    "rate": (_replaced(c_c=0.0), "c_c must be in (0, 1]"),
    "d_sigma": (_replaced(d_sigma=0.5), "d_sigma must be >= 1"),
}


@pytest.mark.parametrize("case", list(_PARAM_REFUSALS))
def test_params_refuse_constants_outside_their_ranges(case):
    call, message = _PARAM_REFUSALS[case]
    with pytest.raises(ContractViolation) as info:
        call()
    assert str(info.value) == message


def test_a_search_needs_one_objective_per_row_and_search_one_row():
    two_rows = cmaes.CmaEs(cmaes.CmaEsParams.defaults(2), [0, 1])
    with pytest.raises(ContractViolation, match="^need one objective per row$"):
        cmaes.Search(two_rows, [sphere])
    with pytest.raises(ContractViolation, match="^search runs a one-row machine$"):
        cmaes.search(two_rows, sphere, 1)


def test_init_contract():
    machine = cmaes.CmaEs(cmaes.CmaEsParams.defaults(2), 0)
    np.testing.assert_array_equal(machine.mean, [[0.0, 0.0]])
    np.testing.assert_array_equal(machine.sigma, [1.0])
    np.testing.assert_array_equal(machine.cov, [np.eye(2)])
    np.testing.assert_array_equal(machine.path_sigma, [[0.0, 0.0]])
    np.testing.assert_array_equal(machine.path_c, [[0.0, 0.0]])
    assert machine.generation == 0
    assert machine.stale.tolist() == [False]  # decomposed from the start, see below


def _fixed(fmt):
    return lambda params, seed: quant.FixedCmaes(params, quant.FixedPointFormat.parse(fmt), seed)


@pytest.mark.parametrize("make", [cmaes.CmaEs, quant.BinaryCmaes] + [
    _fixed(fmt) for fmt in ("8b4", "16b8", "4b0", "8b0")],
    ids=["float", "binary", "8b4", "16b8", "4b0", "8b0"])
def test_a_fresh_machine_holds_the_eigensolver_s_decomposition_of_its_register(monkeypatch, make):
    # the start register is a multiple of the identity (below it where 1.0
    # saturates, as at 4b0 and 8b0): each row holds what the eigensolver's
    # pairs give, and its first generation makes no solve but the counts and
    # candidates of a twin that solves its register
    params = cmaes.CmaEsParams.defaults(6)
    fresh, twin = make(params, [3, 4]), make(params, [3, 4])
    for i in range(2):
        values, vectors = linalg.sym_eig(fresh.ops.to_float(fresh.cov[i]), 6)
        want, errors = fresh.ops.decomposition(values[None], vectors[None])
        assert errors == {}
        for got, expected in zip(fresh.decomposition, want):
            assert (got is None) == (expected is None)
            if got is not None:
                assert np.asarray(got[i]).tobytes() == np.asarray(expected[0]).tobytes()
    twin.stale[:] = True
    solved = []
    real = linalg.sym_eig_many
    monkeypatch.setattr(linalg, "sym_eig_many",
                        lambda mats, k: solved.append(len(mats)) or real(mats, k))
    asked = [fresh.ask(), twin.ask()]
    assert solved == [2]  # the twin's
    assert asked[0].tobytes() == asked[1].tobytes()
    for machine, points in zip((fresh, twin), asked):
        machine.tell([[sphere(p) for p in row] for row in points])
    assert fresh.cov.tobytes() == twin.cov.tobytes()
    assert fresh.mean.tobytes() == twin.mean.tobytes()
    if fresh.quant_warnings is not None:
        for name, counts in fresh.quant_warnings.items():
            assert counts.tolist() == twin.quant_warnings[name].tolist()


def test_init_bit_identical_for_equal_seeds():
    a = cmaes.CmaEs(cmaes.CmaEsParams.defaults(3), 77)
    b = cmaes.CmaEs(cmaes.CmaEsParams.defaults(3), 77)
    assert a.mean.tobytes() == b.mean.tobytes()
    assert a.cov.tobytes() == b.cov.tobytes()
    assert [g.state() for g in a.rngs] == [g.state() for g in b.rngs]


def test_ask_matches_golden_fixture():
    machine = cmaes.CmaEs(cmaes.CmaEsParams.defaults(2), 42)
    candidates = machine.ask()
    np.testing.assert_array_equal(candidates, GOLDEN_ASK_K2_SEED42[None])


def test_ask_degenerate_sigma_collapses_to_mean():
    params = cmaes.CmaEsParams.defaults(3, initial_sigma=1e-300)
    machine = cmaes.CmaEs(params, 5)
    for c in machine.ask()[0]:
        assert np.max(np.abs(c)) < 1e-290


def test_ask_monte_carlo_identity_covariance():
    params = cmaes.CmaEsParams.defaults(2)
    machine = cmaes.CmaEs(params, 9)
    draws = []
    while len(draws) < 100_000:
        draws.extend(machine.ask()[0])
    xs = np.array(draws[:100_000])
    assert np.max(np.abs(xs.mean(axis=0))) < 0.02
    cov = np.cov(xs.T)
    assert np.max(np.abs(cov - np.eye(2))) < 0.05


def test_ask_monte_carlo_anisotropic_covariance():
    params = cmaes.CmaEsParams.defaults(2)
    machine = cmaes.CmaEs(params, 10)
    machine.cov[0] = np.diag([4.0, 1.0])
    machine.stale[0] = True  # a register written since its decomposition
    draws = []
    while len(draws) < 40_000:
        draws.extend(machine.ask()[0])
    xs = np.array(draws)
    ratio = xs[:, 0].var() / xs[:, 1].var()
    assert abs(ratio - 4.0) < 0.4


def test_tell_tie_breaking_uses_candidate_order():
    candidates = np.array([[float(i), 0.0] for i in range(6)])

    class Given(cmaes.CmaEs):
        def ask(self):
            self._candidates = candidates[None]
            return self._candidates

    params = cmaes.CmaEsParams.defaults(2, population=6)
    machine = Given(params, 1)
    machine.ask()
    machine.tell([[7.0] * 6])
    expected = np.zeros(2)
    for i in range(params.parent_count):
        expected += params.recombination_weights[i] * candidates[i]
    np.testing.assert_allclose(machine.mean[0], expected, atol=1e-12)
    assert machine.generation == 1


def test_tell_validates_inputs():
    params = cmaes.CmaEsParams.defaults(2)
    machine = cmaes.CmaEs(params, 2)
    machine.ask()
    with pytest.raises(ContractViolation):
        machine.tell([[0.0] * (params.population - 1)])
    with pytest.raises(ContractViolation):
        machine.tell([[math.nan] * params.population])
    with pytest.raises(ContractViolation):
        machine.tell([0.0] * params.population)  # one row's fitnesses, not a (1, lambda) array


def _machine_state(machine):
    return (machine.generation, machine.mean.tobytes(), repr(machine.sigma),
            machine.cov.tobytes(), machine.path_sigma.tobytes(), machine.path_c.tobytes(),
            [g.state() for g in machine.rngs], repr(machine.quant_warnings))


@pytest.mark.parametrize("make, warnings", [
    (lambda params: cmaes.CmaEs(params, 21), type(None)),
    (lambda params: quant.BinaryCmaes(params, 21), type(None)),
    (lambda params: quant.FixedCmaes(params, quant.FixedPointFormat.parse("8b4"), 21), dict),
], ids=["float", "binary", "fixed8b4"])
def test_machine_protocol(make, warnings):
    # every machine asks a (rows, lambda, k) float array and holds tell to one
    # fitness per candidate, NaN refused, and to one tell per ask, leaving
    # its state alone when refused
    params = cmaes.CmaEsParams.defaults(4)
    machine = make(params)
    with pytest.raises(ContractViolation):
        machine.tell([[0.0] * params.population])  # nothing asked yet
    assert machine.generation == 0
    points = machine.ask()
    assert isinstance(points, np.ndarray)
    assert points.dtype == np.float64 and points.shape == (1, params.population, 4)
    fits = [sphere(p) for p in points[0]]
    for bad in ([fits[:-1]], [fits + [0.0]], [fits[:-1] + [math.nan]], fits, [fits, fits]):
        with pytest.raises(ContractViolation):
            machine.tell(bad)
        assert machine.generation == 0
    machine.tell([fits])
    told = _machine_state(machine)
    with pytest.raises(ContractViolation):
        machine.tell([fits])  # the same candidates told twice
    assert _machine_state(machine) == told
    fresh = make(params)
    fresh.ask()
    fresh.tell([fits])
    assert machine.generation == 1
    assert machine.mean.tobytes() == fresh.mean.tobytes()
    assert isinstance(machine.quant_warnings, warnings)


def test_covariance_stays_symmetric_pd_across_generations():
    params = cmaes.CmaEsParams.defaults(4)
    machine = cmaes.CmaEs(params, 3)
    for _ in range(60):
        cands = machine.ask()[0]
        machine.tell([[rosenbrock(c) for c in cands]])
        c = machine.cov[0]
        assert np.max(np.abs(c - c.T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(c)) > 0.0


def test_minimize_sphere_benchmark_single_seed():
    res = cmaes.search(cmaes.CmaEs(cmaes.CmaEsParams.defaults(8), 1), sphere, 200)
    assert res.best_fitness < 1e-8
    assert res.evaluations == 200 * cmaes.default_lambda(8)


def test_minimize_rosenbrock_single_seed():
    params = cmaes.CmaEsParams.defaults(4)
    res = cmaes.search(cmaes.CmaEs(params, 3), rosenbrock, 20_000 // params.population)
    assert res.best_fitness < 1e-6


def test_minimize_quadratic_bowl_hits_center():
    center = np.array([1.5, -2.25])

    def bowl(p):
        return float(np.sum((p - center) ** 2))

    res = cmaes.search(cmaes.CmaEs(cmaes.CmaEsParams.defaults(2), 4), bowl, 50)
    assert np.max(np.abs(res.best_p - center)) < 1e-3


def test_minimize_baseline_at_optimum_cannot_be_beaten():
    center = np.array([0.5, 0.5, 0.5])

    def bowl(p):
        return float(np.sum((p - center) ** 2))

    params = cmaes.CmaEsParams.defaults(3)
    res = cmaes.search(cmaes.CmaEs(params, 5), bowl, 20, baseline=center)
    assert res.best_fitness == bowl(center)
    np.testing.assert_array_equal(res.best_p, center)


def test_minimize_budget_accounting():
    params = cmaes.CmaEsParams.defaults(2, population=6)
    calls = {"n": 0}

    def counted(p):
        calls["n"] += 1
        return sphere(p)

    res = cmaes.search(cmaes.CmaEs(params, 6), counted, 1, baseline=np.zeros(2))
    assert calls["n"] == 7
    assert res.evaluations == 7
    assert res.quant_warnings is None


def test_minimize_trace_is_running_best():
    params = cmaes.CmaEsParams.defaults(3)
    res = cmaes.search(cmaes.CmaEs(params, 7), sphere, 40, baseline=np.ones(3))
    assert len(res.trace) == 40
    assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))
    assert res.trace[0] <= sphere(np.ones(3))
    assert res.best_fitness == res.trace[-1]


def test_minimize_bit_identical_across_runs():
    params = cmaes.CmaEsParams.defaults(4)
    r1 = cmaes.search(cmaes.CmaEs(params, 8), sphere, 30)
    r2 = cmaes.search(cmaes.CmaEs(params, 8), sphere, 30)
    assert r1.best_p.tobytes() == r2.best_p.tobytes()
    assert r1.trace == r2.trace


def test_minimize_counts_nonfinite_objective_values():
    params = cmaes.CmaEsParams.defaults(2, population=6)
    calls = {"n": 0}

    def sometimes_nan(p):
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            return math.nan
        return sphere(p)

    res = cmaes.search(cmaes.CmaEs(params, 9), sometimes_nan, 10)
    assert res.nonfinite_count == 60 // 5
    assert math.isfinite(res.best_fitness)


@pytest.mark.parametrize("worst", [2.0 ** 60, -(2.0 ** 60), 3.0, sys.float_info.max])
def test_a_nonfinite_value_reaches_tell_above_every_finite_one(worst):
    # a NaN evaluation reaches tell as +inf and ranks after every finite value,
    # the largest float included; the +inf values tie, and index order decides
    machine = cmaes.CmaEs(cmaes.CmaEsParams.defaults(4), 1)
    told = []
    real_tell = machine.tell
    machine.tell = lambda fits: told.append(list(fits[0])) or real_tell(fits)
    run = cmaes.Search(machine, lambda p: math.nan if p[0] < 0.0 else worst)
    run.step()
    fits = told[0]
    assert 0 < run.nonfinite[0] < len(fits)
    assert sorted(set(fits)) == [worst, math.inf]
    # the same candidates told their rank: the finite ones by index, then the rest
    twin = cmaes.CmaEs(cmaes.CmaEsParams.defaults(4), 1)
    twin.ask()
    order = [i for i, f in enumerate(fits) if f == worst] + [
        i for i, f in enumerate(fits) if f == math.inf]
    twin.tell([[float(order.index(i)) for i in range(len(fits))]])
    assert _machine_state(machine) == _machine_state(twin)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 64 - 1), st.data())
def test_telling_inf_is_telling_any_value_above_the_finite_ones(dim, seed, data):
    params = cmaes.CmaEsParams.defaults(dim)
    # below the largest float, so that some finite value lies above them all
    finite = st.floats(max_value=math.nextafter(sys.float_info.max, 0.0), allow_nan=False,
                       allow_infinity=False)
    fits = data.draw(st.lists(finite, min_size=params.population,
                              max_size=params.population))
    lost = data.draw(st.lists(st.booleans(), min_size=params.population,
                              max_size=params.population))
    kept = [f for f, gone in zip(fits, lost) if not gone]
    above = data.draw(st.floats(min_value=max(kept, default=-math.inf), exclude_min=True,
                                allow_nan=False, allow_infinity=False))
    states = []
    for value in (math.inf, above):
        machine = cmaes.CmaEs(params, seed)
        machine.ask()
        machine.tell([[value if gone else f for f, gone in zip(fits, lost)]])
        states.append(_machine_state(machine))
    assert states[0] == states[1]


def test_search_reports_the_point_the_machine_evaluated():
    class Rounding(cmaes.CmaEs):
        def ask(self):
            return [np.round(c) for c in super().ask()]

    params = cmaes.CmaEsParams.defaults(2, population=6)
    res = cmaes.search(Rounding(params, 10), sphere, 5)
    np.testing.assert_array_equal(res.best_p, np.round(res.best_p))


def test_search_with_zero_iterations_evaluates_the_baseline_alone():
    params = cmaes.CmaEsParams.defaults(3)
    res = cmaes.search(cmaes.CmaEs(params, 11), sphere, 0, baseline=np.ones(3))
    assert res.evaluations == 1
    assert res.best_fitness == 3.0
    assert res.trace == []
    with pytest.raises(ContractViolation):
        cmaes.search(cmaes.CmaEs(params, 11), sphere, 0)
    with pytest.raises(ContractViolation):
        cmaes.search(cmaes.CmaEs(params, 11), sphere, -1, baseline=np.ones(3))


# ---------------------------------------------------------------- stacked gemv


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(1, 32), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_stacked_matmul_equals_one_matvec_per_row(k, lam, seed, eigenvectors):
    # ask relies on this: each stacked product goes through gemv, like
    # ``V @ x``, while ``X @ V.T`` (gemm) may round differently
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((k, k))
    if eigenvectors:
        v = linalg.sym_eig(v @ v.T + np.eye(k), k)[1]
    x = rng.standard_normal((lam, k)) * rng.uniform(0.1, 10.0, k)
    stacked = np.matmul(v, x[:, :, None])[:, :, 0]
    rows = np.array([v @ row for row in x])
    assert stacked.tobytes() == rows.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 7, 200]), st.integers(1, 12).map(lambda h: 2 * h + 1),
       st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_stacked_float_primitives_equal_the_per_row_expressions(rows, lam, k, seed):
    # the stacked float machine relies on this: each primitive gives every row
    # the bits of the per-row numpy expression, whatever BLAS numpy is built on
    rng = np.random.default_rng(seed)
    mu = lam // 2
    w = rng.uniform(0.1, 1.0, mu)
    y = rng.standard_normal((rows, mu, k)) * rng.uniform(0.1, 10.0, (rows, 1, k))
    v = rng.standard_normal((rows, k)) * 3.0
    vectors = np.linalg.qr(rng.standard_normal((rows, k, k)))[0]
    dec = cmaes.Decomposition(vectors, rng.uniform(0.1, 3.0, (rows, k)), np.zeros(rows, int))
    x = rng.standard_normal(rows) * 5.0
    ops = cmaes.FloatOps()
    stacked = [ops.weighted_sum(w, y), ops.rank_mu(w, y), ops.invsqrt_times(dec, v),
               ops.norm(v), ops.exp(x)]
    for i in range(rows):
        alone = [w @ y[i], (y[i] * w[:, None]).T @ y[i],
                 vectors[i] @ ((vectors[i].T @ v[i]) / dec.scale[i]),
                 float(np.linalg.norm(v[i])), math.exp(x[i])]
        for got, want in zip(stacked, alone):
            assert np.asarray(got[i]).tobytes() == np.asarray(want).tobytes()


def _ask_one_row_at_a_time(machine):
    """The float ask as one normals draw and one matvec per candidate."""
    assert machine.prepare() == {}
    vectors, scale = machine.decomposition.vectors[0], machine.decomposition.scale[0]
    rng = machine.rngs[0].clone()
    candidates = []
    for _ in range(machine.params.population):
        n = rng.normals(machine.params.dim)
        candidates.append(machine.mean[0] + machine.sigma[0] * (vectors @ (scale * n)))
    return candidates, rng.state()


@pytest.mark.parametrize("dim, population, seed", [(1, None, 0), (2, None, 42), (5, 9, 7),
                                                   (16, None, 14), (40, 24, 3)])
def test_ask_equals_one_candidate_at_a_time(dim, population, seed):
    machine = cmaes.CmaEs(cmaes.CmaEsParams.defaults(dim, population=population), seed)
    for _ in range(4):
        want, rng_state = _ask_one_row_at_a_time(machine)
        got = machine.ask()[0]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert machine.rngs[0].state() == rng_state
        machine.tell([[rosenbrock(c) for c in got]])


@pytest.mark.parametrize("make", [
    cmaes.CmaEs,
    quant.BinaryCmaes,
    lambda params, seed: quant.FixedCmaes(params, quant.FixedPointFormat(16, 8), seed),
], ids=["float", "binary", "16b8"])
def test_ask_on_the_machine_s_own_noise_equals_drawing_it(monkeypatch, make):
    # 5 x 7 normals a generation: every other generation starts on a spare;
    # each row of a stacked machine draws from its own stream, in lockstep
    # lanes or alone, and gets the candidates and stream it gets alone
    params = cmaes.CmaEsParams.defaults(5, population=7)
    seeds = [3, 4, 3]
    for lanes_min in (2, 10):
        monkeypatch.setattr(rng, "_LANES_MIN", lanes_min)
        stacked, alone = make(params, seeds), [make(params, seed) for seed in seeds]
        for _ in range(3):
            got = stacked.ask()
            for i, machine in enumerate(alone):
                assert got[i].tobytes() == machine.ask()[0].tobytes()
                assert stacked.rngs[i].state() == machine.rngs[0].state()
                machine.tell([[rosenbrock(c) for c in got[i]]])
            stacked.tell([[rosenbrock(c) for c in points] for points in got])
        assert got[0].tobytes() == got[2].tobytes()


_STACKED_MACHINES = [
    cmaes.CmaEs,
    quant.BinaryCmaes,
    lambda params, seed: quant.FixedCmaes(params, quant.FixedPointFormat(8, 4), seed),
    lambda params, seed: quant.FixedCmaes(params, quant.FixedPointFormat(4, 2), seed),
]


def _ask(machine):
    """The machine's candidates and the error its ask raised, one of them None."""
    try:
        return machine.ask(), None
    except (ContractViolation, ConvergenceFailure) as exc:
        return None, exc


def _told(machine):
    """The machine after one generation of every row on the sphere."""
    machine.tell([[sphere(p) for p in points] for points in machine.ask()])
    return machine


@pytest.mark.parametrize("count", [4, linalg._STACK_MIN + 2])
def test_prepare_gives_each_row_its_own_decomposition_or_error(monkeypatch, count):
    # a machine of float rows, an 8b4 row with a clamped eigenvalue and two
    # 16b8 rows with one matrix, each row with a twin that decomposes alone
    params = cmaes.CmaEsParams.defaults(6)
    machines = [_told(cmaes.CmaEs(params, range(count)))]  # covariances that are not diagonal
    twins = [[_told(cmaes.CmaEs(params, seed)) for seed in range(count)]]
    for fmt, seeds in (("8b4", [5]), ("16b8", [5, 5])):
        fmt = quant.FixedPointFormat.parse(fmt)
        group = [quant.FixedCmaes(params, fmt, seeds)] + [quant.FixedCmaes(params, fmt, seed)
                                                           for seed in seeds]
        for m in group:
            m.cov[:, 0, 0] = 0  # an eigenvalue of 0, clamped up to the resolution
            m.stale[:] = True  # a register written since its decomposition
            if len(seeds) == 2:
                _told(m)  # a register that is not diagonal
        machines.append(group[0])
        twins.append(group[1:])
    bad = {0: np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]), 1: np.full((6, 6), np.nan),
           2: np.triu(np.ones((6, 6)))}
    for i, cov in bad.items():
        machines[0].cov[i] = twins[0][i].cov[0] = cov
        machines[0].stale[i] = twins[0][i].stale[0] = True

    solved = []
    real = linalg.sym_eig_many
    monkeypatch.setattr(linalg, "sym_eig_many",
                        lambda mats, k: solved.append(len(mats)) or real(mats, k))
    failures = [machine.prepare() for machine in machines]
    assert solved == [count, 1, 2]  # one call a machine, one matrix a stale row
    wants = []
    for machine, failed, alone in zip(machines, failures, twins):
        assert set(failed) == (set(bad) if machine is machines[0] else set())
        for i, twin in enumerate(alone):
            want, error = _ask(twin)
            wants.append(want)
            if i in failed:
                assert type(failed[i]) is type(error) and str(failed[i]) == str(error)
                assert machine.stale[i]
                continue
            assert error is None and not machine.stale[i]
            for got, expected in zip(machine.decomposition, twin.decomposition):
                if got is not None:
                    assert np.asarray(got[i]).tobytes() == np.asarray(expected[0]).tobytes()
    assert "positive definiteness" in str(failures[0][0])
    assert isinstance(failures[0][2], ContractViolation)
    # a failed row stays stale, and a decomposed one takes no part again
    solved.clear()
    assert list(machines[0].prepare()) == sorted(bad) and solved == [len(bad)]
    machines[0].keep(~machines[0].stale)
    del twins[0][:len(bad)], wants[:len(bad)]
    for machine, alone in zip(machines, twins):
        got = machine.ask()
        for i, twin in enumerate(alone):
            assert got[i].tobytes() == wants.pop(0)[0].tobytes()
            if twin.quant_warnings is not None:
                assert {name: counts[i] for name, counts in machine.quant_warnings.items()} \
                    == twin.quant_warnings
    assert solved == [len(bad)]
    assert machines[2].cov[0].tobytes() == machines[2].cov[1].tobytes()
    assert machines[1].eig_clamps.tolist() == [1] and machines[2].eig_clamps.tolist() == [2, 2]


def _registers(machine, i):
    """Row ``i``'s state, stream and counts, as bytes and ints."""
    warnings = machine.quant_warnings
    return ([np.asarray(getattr(machine, name)[i]).tobytes()
             for name in ("mean", "sigma", "cov", "path_sigma", "path_c")],
            machine.rngs[i].state(),
            None if warnings is None else {name: int(c[i]) for name, c in warnings.items()})


@pytest.mark.parametrize("make", _STACKED_MACHINES, ids=["float", "binary", "8b4", "4b2"])
def test_a_dropped_row_changes_no_other_row_s_registers(make):
    # rows 2 and 4 fail at their second generation: the search drops them and
    # every other row ends where it ends alone, register for register
    params = cmaes.CmaEsParams.defaults(5, population=7)
    seeds = [3, 1, 4, 1, 5, 9, 2]
    calls = {}

    def objective(row):
        def value(p):
            calls[row] = calls.get(row, 0) + 1
            if row in (2, 4) and calls[row] == 1 + params.population + 1:
                raise ConvergenceFailure(f"row {row} left")
            return rosenbrock(p)
        return value

    run = cmaes.Search(make(params, seeds), [objective(r) for r in range(len(seeds))],
                       np.zeros(5))
    for _ in range(4):
        run.step()
    assert run.rows.tolist() == [0, 1, 3, 5, 6] and sorted(run.errors) == [2, 4]
    assert str(run.errors[2]) == "row 2 left"
    for position, row in enumerate(run.rows.tolist()):
        twin = make(params, seeds[row])
        alone = cmaes.search(twin, rosenbrock, 4, np.zeros(5))
        assert _registers(run.machine, position) == _registers(twin, 0)
        got = run.result(row)
        assert got.best_p.tobytes() == alone.best_p.tobytes() and got.trace == alone.trace
        assert got.quant_warnings == alone.quant_warnings


def test_a_row_whose_step_size_overflows_fails_alone():
    # row 2's path is so long that its step-size factor overflows at its first
    # tell: that row fails at the next prepare, naming its step size, and
    # every other row ends where it ends alone
    params = cmaes.CmaEsParams.defaults(5, population=7)
    seeds = [3, 1, 4, 1, 5]
    machine = cmaes.CmaEs(params, seeds)
    machine.path_sigma[2] = 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = cmaes.Search(machine, rosenbrock, np.zeros(5))
        for _ in range(4):
            run.step()
    assert run.rows.tolist() == [0, 1, 3, 4] and list(run.errors) == [2]
    assert type(run.errors[2]) is ConvergenceFailure
    assert str(run.errors[2]) == "step size is inf"
    for position, row in enumerate(run.rows.tolist()):
        twin = cmaes.CmaEs(params, seeds[row])
        alone = cmaes.search(twin, rosenbrock, 4, np.zeros(5))
        assert _registers(run.machine, position) == _registers(twin, 0)
        got = run.result(row)
        assert got.best_p.tobytes() == alone.best_p.tobytes() and got.trace == alone.trace
    lone = cmaes.CmaEs(params, seeds[2])
    lone.path_sigma[0] = 1e150
    with pytest.raises(ConvergenceFailure, match="^step size is inf$"):
        cmaes.search(lone, rosenbrock, 2)


@pytest.mark.parametrize("make", _STACKED_MACHINES, ids=["float", "binary", "8b4", "4b2"])
def test_a_search_whose_last_row_fails_raises_its_error(make):
    # the failing row is dropped before its tell, which then has no rows
    params = cmaes.CmaEsParams.defaults(4)
    calls = []

    def failing(p):
        calls.append(p)
        if len(calls) > params.population + 3:
            raise ContractViolation("objective refused")
        return sphere(p)

    with pytest.raises(ContractViolation, match="objective refused"):
        cmaes.search(make(params, 1), failing, 3, np.zeros(4))
    run = cmaes.Search(make(params, [1, 2]), failing, np.zeros(4))
    run.step()
    assert run.rows.size == 0 and sorted(run.errors) == [0, 1]
    run.step()  # nothing left to run


def test_a_failed_decomposition_is_not_kept(monkeypatch):
    # a failure under a lowered sweep cap must not outlive the cap
    machine = cmaes.CmaEs(cmaes.CmaEsParams.defaults(6), 0)
    _told(machine)  # a covariance that is not diagonal
    cap = linalg._MAX_SWEEPS
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceFailure, match="sweep cap"):
        machine.ask()
    assert machine.stale.tolist() == [True]
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", cap)
    assert machine.ask().shape == (1, machine.params.population, 6)


# ---------------------------------------------------------------- float golden runs
#
# Digests of a float or 1-bit search: the result and the machine's final
# mean, sigma, covariance and paths. The linear objective keeps the sigma
# path long, so h_sigma switches the rank-1 path term off in the number of
# generations given; any change to the update equations, their constants or
# their order changes a digest.


def _linear(p):
    return float(p[0] + np.sum(p))


def _golden_objective(name, k):
    if name == "linear":
        return _linear
    if name == "ellipsoid":
        w = 10.0 ** (4.0 * np.arange(k) / max(k - 1, 1))
        return lambda p: float(np.sum(w * (p - 0.7) ** 2))
    if name == "holes":  # non-finite values on part of the space
        def holes(p):
            if p[0] > 0.25:
                return float("nan")
            if p[-1] < -1.5:
                return float("inf")
            return sphere(p - 0.5)
        return holes
    raise KeyError(name)


_MACHINES = {
    "float": lambda params, seed: cmaes.CmaEs(params, seed),
    "binary": lambda params, seed: quant.BinaryCmaes(params, seed),
    "feedback": lambda params, seed: quant.BinaryCmaes(params, seed, alpha=2.0, feedback=True),
}


def _hsig_off(machine):
    """Whether the last tell switched h_sigma off, from the state it left."""
    params = machine.params
    ps_norm = float(np.linalg.norm(machine.path_sigma[0]))
    denom = math.sqrt(1.0 - (1.0 - params.c_sigma) ** (2.0 * machine.generation))
    return not ps_norm / denom < (1.4 + 2.0 / (params.dim + 1.0)) * params.chi_n


def _run_digest(machine, res):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(res.best_p, dtype=np.float64).tobytes())
    h.update(struct.pack("<d", res.best_fitness))
    h.update(struct.pack(f"<{len(res.trace)}d", *res.trace))
    h.update(struct.pack("<2q", res.evaluations, res.nonfinite_count))
    h.update(struct.pack("<d", machine.sigma[0]))
    for state in (machine.mean[0], machine.cov[0], machine.path_sigma[0], machine.path_c[0]):
        h.update(np.ascontiguousarray(state, dtype=np.float64).tobytes())
    return h.hexdigest()


# (machine, k, sigma0, seed, objective, baseline fill or None, iterations,
#  generations with h_sigma off, digest)
_GOLDEN = [
    ("float", 16, 1.0, 3, "linear", None, 8, 5,
     "6228e1c3f0d63ed2d0e8c35bbc9a8705ebcd8c8a8f24bde79f64a09e1d0fc2ef"),
    ("float", 6, 0.3, 9, "ellipsoid", None, 30, 0,
     "e6281b01bc66629a2c608f044c385351fc3a583c176f7dd0bcc13ddd2f4c9434"),
    ("float", 5, 0.5, 3, "holes", 0.0, 20, 0,
     "70323c84e4543185c744a5d3741e922e192c2bed8892315a4671960d33f65d43"),
    ("binary", 8, 1.0, 1, "linear", None, 8, 1,
     "6758294319f9ce0b68968bf50133ddff65b23a5f9c4ad730624219c753cd89a8"),
    ("binary", 5, 1.0, 2, "holes", None, 12, 1,
     "2cc72cc1426388c02103c77a7c15c37730b20b308abd0f69262686372ae9cd6e"),
    ("feedback", 16, 1.0, 1, "linear", None, 12, 3,
     "740de6ac46200d81027fe81d5898a1886b6dc11214fed74a1277ac1ad990c54b"),
    ("feedback", 8, 1.0, 2, "ellipsoid", 0.0, 12, 2,
     "3807537760e2364611a8ed88b6275e48b733299be7bc0ae726cbc457599384c5"),
]


@pytest.mark.parametrize("kind, k, sigma0, seed, objective, base, iterations, offs, digest",
                         _GOLDEN)
def test_float_search_matches_recorded_digests(kind, k, sigma0, seed, objective, base,
                                               iterations, offs, digest):
    params = cmaes.CmaEsParams.defaults(k, initial_sigma=sigma0)
    machine = _MACHINES[kind](params, seed)
    run = cmaes.Search(machine, _golden_objective(objective, k),
                       None if base is None else np.full(k, base))
    gates = []
    for _ in range(iterations):
        run.step()
        gates.append(_hsig_off(machine))
    res = run.result()
    assert res.quant_warnings is None
    assert sum(gates) == offs
    assert _run_digest(machine, res) == digest
