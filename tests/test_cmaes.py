import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentadapt import cmaes, linalg, quant
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


def test_params_defaults_are_one_shared_read_only_instance():
    params = cmaes.CmaEsParams.defaults(16)
    assert cmaes.CmaEsParams.defaults(16, population=None) is params
    assert cmaes.CmaEsParams.defaults(16, population=12, initial_sigma=1) is params
    assert cmaes.CmaEsParams.defaults(16, initial_sigma=0.5) is not params
    assert cmaes.CmaEsParams.defaults(16, population=10) is not params
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


def test_init_contract():
    machine = cmaes.CmaEs(cmaes.CmaEsParams.defaults(2), 0)
    np.testing.assert_array_equal(machine.mean, [0.0, 0.0])
    assert machine.sigma == 1.0
    np.testing.assert_array_equal(machine.cov, np.eye(2))
    np.testing.assert_array_equal(machine.path_sigma, [0.0, 0.0])
    np.testing.assert_array_equal(machine.path_c, [0.0, 0.0])
    assert machine.generation == 0


def test_init_bit_identical_for_equal_seeds():
    a = cmaes.CmaEs(cmaes.CmaEsParams.defaults(3), 77)
    b = cmaes.CmaEs(cmaes.CmaEsParams.defaults(3), 77)
    assert a.mean.tobytes() == b.mean.tobytes()
    assert a.cov.tobytes() == b.cov.tobytes()
    assert a.rng.state() == b.rng.state()


def test_ask_matches_golden_fixture():
    machine = cmaes.CmaEs(cmaes.CmaEsParams.defaults(2), 42)
    candidates = np.array(machine.ask())
    np.testing.assert_array_equal(candidates, GOLDEN_ASK_K2_SEED42)


def test_ask_degenerate_sigma_collapses_to_mean():
    params = cmaes.CmaEsParams.defaults(3, initial_sigma=1e-300)
    machine = cmaes.CmaEs(params, 5)
    for c in machine.ask():
        assert np.max(np.abs(c)) < 1e-290


def test_ask_monte_carlo_identity_covariance():
    params = cmaes.CmaEsParams.defaults(2)
    machine = cmaes.CmaEs(params, 9)
    draws = []
    while len(draws) < 100_000:
        draws.extend(machine.ask())
    xs = np.array(draws[:100_000])
    assert np.max(np.abs(xs.mean(axis=0))) < 0.02
    cov = np.cov(xs.T)
    assert np.max(np.abs(cov - np.eye(2))) < 0.05


def test_ask_monte_carlo_anisotropic_covariance():
    params = cmaes.CmaEsParams.defaults(2)
    machine = cmaes.CmaEs(params, 10)
    machine.cov = np.diag([4.0, 1.0])
    draws = []
    while len(draws) < 40_000:
        draws.extend(machine.ask())
    xs = np.array(draws)
    ratio = xs[:, 0].var() / xs[:, 1].var()
    assert abs(ratio - 4.0) < 0.4


def test_tell_tie_breaking_uses_candidate_order():
    candidates = np.array([[float(i), 0.0] for i in range(6)])

    class Given(cmaes.CmaEs):
        def ask(self):
            self._candidates = candidates
            return candidates

    params = cmaes.CmaEsParams.defaults(2, population=6)
    machine = Given(params, 1)
    machine.ask()
    machine.tell([7.0] * 6)
    expected = np.zeros(2)
    for i in range(params.parent_count):
        expected += params.recombination_weights[i] * candidates[i]
    np.testing.assert_allclose(machine.mean, expected, atol=1e-12)
    assert machine.generation == 1


def test_tell_validates_inputs():
    params = cmaes.CmaEsParams.defaults(2)
    machine = cmaes.CmaEs(params, 2)
    machine.ask()
    with pytest.raises(ContractViolation):
        machine.tell([0.0] * (params.population - 1))
    with pytest.raises(ContractViolation):
        machine.tell([math.nan] * params.population)


def _machine_state(machine):
    return (machine.generation, machine.mean.tobytes(), repr(machine.sigma),
            machine.cov.tobytes(), machine.path_sigma.tobytes(), machine.path_c.tobytes(),
            machine.rng.state(), machine.quant_warnings)


@pytest.mark.parametrize("make, warnings", [
    (lambda params: cmaes.CmaEs(params, 21), type(None)),
    (lambda params: quant.BinaryCmaes(params, 21), type(None)),
    (lambda params: quant.FixedCmaes(params, quant.FixedPointFormat.parse("8b4"), 21), dict),
], ids=["float", "binary", "fixed8b4"])
def test_machine_protocol(make, warnings):
    # every machine asks a (lambda, k) float array and holds tell to one
    # finite fitness per candidate and to one tell per ask, leaving its
    # state alone when refused
    params = cmaes.CmaEsParams.defaults(4)
    machine = make(params)
    with pytest.raises(ContractViolation):
        machine.tell([0.0] * params.population)  # nothing asked yet
    assert machine.generation == 0
    points = machine.ask()
    assert isinstance(points, np.ndarray)
    assert points.dtype == np.float64 and points.shape == (params.population, 4)
    fits = [sphere(p) for p in points]
    for bad in (fits[:-1], fits + [0.0], fits[:-1] + [math.nan]):
        with pytest.raises(ContractViolation):
            machine.tell(bad)
        assert machine.generation == 0
    machine.tell(fits)
    told = _machine_state(machine)
    with pytest.raises(ContractViolation):
        machine.tell(fits)  # the same candidates told twice
    assert _machine_state(machine) == told
    fresh = make(params)
    fresh.ask()
    fresh.tell(fits)
    assert machine.generation == 1
    assert machine.mean.tobytes() == fresh.mean.tobytes()
    assert isinstance(machine.quant_warnings, warnings)


def test_covariance_stays_symmetric_pd_across_generations():
    params = cmaes.CmaEsParams.defaults(4)
    machine = cmaes.CmaEs(params, 3)
    for _ in range(60):
        cands = machine.ask()
        machine.tell([rosenbrock(c) for c in cands])
        c = machine.cov
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


def _ask_one_row_at_a_time(machine):
    """The float ask as one normals draw and one matvec per candidate."""
    values, vectors = machine._decomposition()
    scale = np.sqrt(values)
    rng = machine.rng.clone()
    candidates = []
    for _ in range(machine.params.population):
        n = rng.normals(machine.params.dim)
        candidates.append(machine.mean + machine.sigma * (vectors @ (scale * n)))
    return candidates, rng.state()


@pytest.mark.parametrize("dim, population, seed", [(1, None, 0), (2, None, 42), (5, 9, 7),
                                                   (16, None, 14), (40, 24, 3)])
def test_ask_equals_one_candidate_at_a_time(dim, population, seed):
    machine = cmaes.CmaEs(cmaes.CmaEsParams.defaults(dim, population=population), seed)
    for _ in range(4):
        want, rng_state = _ask_one_row_at_a_time(machine)
        got = machine.ask()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert machine.rng.state() == rng_state
        machine.tell([rosenbrock(c) for c in got])


def _ask_error(machine):
    try:
        machine.ask()
    except (ContractViolation, ConvergenceFailure) as exc:
        return exc
    return None


@pytest.mark.parametrize("count", [4, linalg._STACK_MIN + 2])
def test_decompose_stale_gives_each_machine_its_own_decomposition_or_error(count):
    params = cmaes.CmaEsParams.defaults(6)
    fixed = quant.FixedCmaes(params, quant.FixedPointFormat(8, 4), 0)
    machines, twins = [fixed], []
    for seed in range(count):
        pair = [cmaes.CmaEs(params, seed), cmaes.CmaEs(params, seed)]
        for m in pair:
            m.tell([sphere(p) for p in m.ask()])  # a covariance that is not diagonal
        machines.append(pair[0])
        twins.append(pair[1])
    bad = {1: np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0]), 2: np.full((6, 6), np.nan),
           3: np.triu(np.ones((6, 6)))}
    for i, cov in bad.items():
        machines[i].cov = twins[i - 1].cov = cov
    machines[4]._decomposition()  # fresh: takes no part

    outcome = cmaes.decompose_stale(machines)
    assert set(outcome) == set(range(1, count + 1)) - {4}
    for i, twin in enumerate(twins, start=1):
        alone = _ask_error(twin)
        if i in bad:
            assert type(outcome[i]) is type(alone) and str(outcome[i]) == str(alone)
            assert machines[i]._dec is None
        else:
            assert alone is None and outcome.get(i) is None
            for got, want in zip(machines[i]._decomposition(), twin._decomposition()):
                assert got.tobytes() == want.tobytes()
    assert "positive definiteness" in str(outcome[1])
    assert isinstance(outcome[3], ContractViolation)
