import hashlib
import importlib
import math
import struct
import warnings

import numpy as np
import pytest

from latentadapt import cmaes, datagen, linalg, rng
from latentadapt.adapt import MODES, AdaptationConfig, adapt, adapt_batch
from latentadapt.decoder import LinearDecoder, decode
from latentadapt.errors import ContractViolation, ConvergenceFailure
from latentadapt.quant import FixedPointFormat
from latentadapt.rng import derive_seed
from latentadapt.subspace import PrincipalSubspace, apply_correction, fit, project


def _small_setup(seed=0):
    task = datagen.make_task(class_count=4, dim=12, seed=seed)
    source, _ = datagen.gen_source(task, 50, stream=0)
    sub = fit(source, 4)
    dec = datagen.make_decoder(task)
    return task, sub, dec


def test_config_validation():
    with pytest.raises(ContractViolation):
        AdaptationConfig(k=0)
    with pytest.raises(ContractViolation):
        AdaptationConfig(n=0)
    with pytest.raises(ContractViolation):
        AdaptationConfig(mode="weird")
    with pytest.raises(ContractViolation):
        AdaptationConfig(mode="fixed")  # missing format
    for bad in (0.0, -1.0, math.nan, math.inf, 10 ** 400):
        with pytest.raises(ContractViolation):
            AdaptationConfig(sigma0=bad)
        with pytest.raises(ContractViolation):
            AdaptationConfig(mode="qted-v1", binary_alpha=bad)
    AdaptationConfig(mode="fixed", fixed_format=FixedPointFormat(8, 4))


@pytest.mark.parametrize("kwargs, message", [
    ({"k": 3.0}, "k must be an integer, got 3.0"),
    ({"n": 1.5}, "n must be an integer, got 1.5"),
    ({"n": True}, "n must be an integer, got True"),
    ({"population": 2.5}, "population must be an integer, got 2.5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"seed": -1}, "seed must be in [0, 2^64), got -1"),
    ({"seed": 2 ** 64}, "seed must be in [0, 2^64), got 18446744073709551616"),
    ({"mode": "fixed", "fixed_format": "8b4"}, "fixed_format must be a FixedPointFormat, got '8b4'"),
    ({"sigma0": "1"}, "sigma0 must be a real number, got '1'"),
    ({"mode": "qted-v1", "binary_alpha": False},
     "binary_alpha must be a real number, got False"),
], ids=["k-float", "n-float", "n-bool", "population-float", "seed-float", "seed-negative",
        "seed-2^64", "format-text", "sigma0-text", "alpha-bool"])
def test_config_refuses_a_value_of_the_wrong_kind(kwargs, message):
    with pytest.raises(ContractViolation) as info:
        AdaptationConfig(**kwargs)
    assert str(info.value) == message


def test_config_keeps_integers_as_python_ints():
    cfg = AdaptationConfig(k=np.int64(4), n=np.uint8(2), population=np.int32(6),
                           seed=np.uint64(2 ** 64 - 1))
    assert [type(v) for v in (cfg.k, cfg.n, cfg.population, cfg.seed)] == [int] * 4
    assert (cfg.k, cfg.n, cfg.population, cfg.seed) == (4, 2, 6, 2 ** 64 - 1)
    assert AdaptationConfig(sigma0=1, binary_alpha=np.float32(0.5)).sigma0 == 1


def test_a_latent_that_is_not_a_real_numeric_array_is_refused():
    task, sub, dec = _small_setup(seed=11)
    z = task.class_means[0]
    latents = {"text": ("abc", ", got dtype <U3"), "ragged": ([[1, 2], [3]], ""),
               "dict": ({"a": 1}, ", got dtype object"),
               "complex": (z + 0j, ", got dtype complex128"), "bool": (z > 0, ", got dtype bool")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a complex latent is not cast with a warning
        for bad, tail in latents.values():
            with pytest.raises(ContractViolation) as info:
                adapt(bad, dec, sub, _GOOD)
            assert str(info.value) == "latent must be a real numeric array" + tail
        batches = {"ragged": [list(z), list(z[:-1])], "complex": np.tile(z + 0j, (3, 1)),
                   "text": np.full((3, task.dim), "1")}
        for bad in batches.values():
            for run in (lambda: adapt_batch(bad, dec, sub, _GOOD),
                        lambda: adapt(bad, dec, sub, _GOOD, indices=np.arange(3))):
                with pytest.raises(ContractViolation, match="^batch must be a real numeric"):
                    run()
        with pytest.raises(ContractViolation, match="^source features must be a real"):
            fit(np.tile(z, (5, 1)) + 1j, 2)
    # integers are real numbers: an integer latent is its float value
    ints = np.round(z).astype(np.int64)
    assert adapt(ints, dec, sub, _GOOD).p_star.tobytes() \
        == adapt(ints.astype(np.float64), dec, sub, _GOOD).p_star.tobytes()


def test_confident_sample_keeps_its_prediction():
    task, sub, dec = _small_setup()
    z = task.class_means[2] * 3.0  # deep inside class 2, entropy ~ 0
    base = decode(dec, z)
    assert base.entropy < 1e-6
    cfg = AdaptationConfig(k=4, n=4, seed=1)
    result = adapt(z, dec, sub, cfg)
    assert result.prediction.predicted_class == base.predicted_class
    assert result.prediction.entropy <= base.entropy


def test_constructed_instance_entropy_drops_below_uniform():
    # one decoder row aligned with a basis column; start at the subspace mean
    d, k, c = 6, 2, 3
    basis = np.zeros((d, k))
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    sub = PrincipalSubspace(
        mean=np.zeros(d),
        basis=basis,
        singular_values=np.array([2.0, 1.0]),
        source_count=10,
    )
    w = np.zeros((c, d))
    w[1, 0] = 3.0  # moving along v1 raises exactly one logit
    dec = LinearDecoder(weights=w, bias=np.zeros(c))
    z = sub.mean.copy()
    base = decode(dec, z)
    assert abs(base.entropy - np.log(c)) < 1e-12
    result = adapt(z, dec, sub, AdaptationConfig(k=k, n=6, seed=3))
    assert result.prediction.entropy < base.entropy


def test_entropy_guarantee_every_mode():
    task, sub, dec = _small_setup(seed=5)
    target, _ = datagen.gen_source(task, 5, stream=2)
    spec = datagen.preset_shifts(task.dim, 1.0, 5)[2]
    shifted = datagen.apply_shift(target, task.class_means.mean(axis=0), spec)
    for mode, fmt in (
        ("ted", None),
        ("qted-v1", None),
        ("fixed", FixedPointFormat(8, 4)),
        ("fixed", FixedPointFormat(4, 2)),
    ):
        cfg = AdaptationConfig(k=4, n=3, seed=7, mode=mode, fixed_format=fmt)
        for z in shifted:
            result = adapt(z, dec, sub, cfg)
            assert result.prediction.entropy <= result.baseline_prediction.entropy


def test_budget_is_exact():
    task, sub, dec = _small_setup(seed=6)
    z = task.class_means[0] + 0.5
    for mode, fmt in (("ted", None), ("qted-v1", None), ("fixed", FixedPointFormat(8, 4))):
        cfg = AdaptationConfig(k=4, n=5, population=6, seed=2, mode=mode, fixed_format=fmt)
        result = adapt(z, dec, sub, cfg)
        assert result.evaluations == 5 * 6 + 1
        assert len(result.entropy_trace) == 5


def test_z_adapted_matches_correction_exactly():
    task, sub, dec = _small_setup(seed=7)
    z = task.class_means[1] + 0.3
    result = adapt(z, dec, sub, AdaptationConfig(k=4, n=3, seed=9))
    np.testing.assert_array_equal(
        result.z_adapted, apply_correction(sub, z, result.p_star)
    )


def test_binary_mode_returns_one_bit_corrections():
    task, sub, dec = _small_setup(seed=8)
    spec = datagen.preset_shifts(task.dim, 1.0, 8)[2]
    target, _ = datagen.gen_source(task, 8, stream=3)
    shifted = datagen.apply_shift(target, task.class_means.mean(axis=0), spec)
    cfg = AdaptationConfig(k=4, n=4, seed=4, mode="qted-v1", binary_alpha=0.75)
    for z in shifted:
        result = adapt(z, dec, sub, cfg)
        values = set(np.unique(result.p_star))
        # either the 1-bit correction won or the untouched baseline did
        assert values.issubset({0.75, -0.75}) or values == {0.0}


def test_model_is_frozen_across_calls():
    task, sub, dec = _small_setup(seed=9)
    before = (
        hashlib.sha256(dec.weights.tobytes()).hexdigest(),
        hashlib.sha256(dec.bias.tobytes()).hexdigest(),
        hashlib.sha256(sub.mean.tobytes()).hexdigest(),
        hashlib.sha256(sub.basis.tobytes()).hexdigest(),
    )
    z = task.class_means[0] + 0.2
    cfg = AdaptationConfig(k=4, n=2, seed=11)
    for _ in range(50):
        adapt(z, dec, sub, cfg)
    after = (
        hashlib.sha256(dec.weights.tobytes()).hexdigest(),
        hashlib.sha256(dec.bias.tobytes()).hexdigest(),
        hashlib.sha256(sub.mean.tobytes()).hexdigest(),
        hashlib.sha256(sub.basis.tobytes()).hexdigest(),
    )
    assert before == after


def test_adapt_is_pure_given_config():
    task, sub, dec = _small_setup(seed=10)
    z = task.class_means[2] + 0.4
    cfg = AdaptationConfig(k=4, n=4, seed=13)
    r1 = adapt(z, dec, sub, cfg)
    r2 = adapt(z, dec, sub, cfg)
    assert r1.p_star.tobytes() == r2.p_star.tobytes()
    assert r1.entropy_trace == r2.entropy_trace


_GOOD = AdaptationConfig(k=4, n=2, seed=0)
_BAD_K = AdaptationConfig(k=3, n=2)


def _refusals(task, dec):
    """Each row refusal of ``adapt`` on the subspace of ``_small_setup``, in
    check order: name -> (latent, decoder, config, message)."""
    wide = LinearDecoder(weights=np.hstack([dec.weights, dec.weights[:, :1]]), bias=dec.bias)
    return {
        "shape": (np.zeros(5), dec, _GOOD, f"latent must have shape ({task.dim},), got (5,)"),
        "nonfinite": (np.full(task.dim, np.nan), dec, _GOOD, "latent contains non-finite entries"),
        "k": (np.zeros(task.dim), dec, _BAD_K, "config k=3 does not match subspace k=4"),
        "dims": (np.zeros(task.dim), wide, _GOOD, "decoder and subspace dimensions differ"),
    }


def test_adapt_rejects_bad_inputs():
    task, sub, dec = _small_setup(seed=11)
    for z, decoder, cfg, message in _refusals(task, dec).values():
        with pytest.raises(ContractViolation) as info:
            adapt(z, decoder, sub, cfg)
        assert str(info.value) == message


def test_a_latent_with_two_problems_reports_the_first_in_check_order():
    task, sub, dec = _small_setup(seed=11)
    refusals = _refusals(task, dec)
    wide, message = refusals["dims"][1], {name: r[3] for name, r in refusals.items()}
    two = [(np.full(5, np.nan), dec, _GOOD, message["shape"]),  # and non-finite
           (np.full(task.dim, np.inf), dec, _BAD_K, message["nonfinite"]),  # and k
           (np.zeros(task.dim), wide, _BAD_K, message["k"])]  # and the dimensions
    for z, decoder, cfg, first in two:
        with pytest.raises(ContractViolation) as info:
            adapt(z, decoder, sub, cfg)
        assert str(info.value) == first
        batch = adapt_batch(np.atleast_2d(z), decoder, sub, cfg)
        assert [str(exc) for exc in batch.errors.values()] == [first]


@pytest.mark.parametrize("mode, fmt", [("none", None), ("ted", None), ("qted-v1", None),
                                       ("fixed", FixedPointFormat(8, 4))],
                         ids=["none", "ted", "qted-v1", "8b4"])
def test_a_refused_middle_row_leaves_the_others_their_bits_alone(mode, fmt):
    task, sub, dec = _small_setup(seed=11)
    rows = task.class_means[np.arange(7) % 4] * 0.5 + 0.1 * np.arange(7)[:, None]
    rows[3, 2] = np.nan
    cfg = AdaptationConfig(k=4, n=3, seed=17, mode=mode, fixed_format=fmt)
    batch = adapt_batch(rows, dec, sub, cfg)
    assert list(batch.errors) == [3]
    assert isinstance(batch.errors[3], ContractViolation)
    assert str(batch.errors[3]) == "latent contains non-finite entries"
    assert batch.results[3] is None
    assert len(batch.wall_ms) == 7 and all(w >= 0.0 for w in batch.wall_ms)
    for i, got in enumerate(batch.results):
        if i == 3:
            continue
        alone = adapt(rows[i], dec, sub, cfg.with_seed(derive_seed(17, i)))
        assert got.p_star.tobytes() == alone.p_star.tobytes()
        assert got.z_adapted.tobytes() == alone.z_adapted.tobytes()
        assert np.array(got.entropy_trace).tobytes() == np.array(alone.entropy_trace).tobytes()
        assert (got.evaluations, got.nonfinite_count, got.quant_warnings) \
            == (alone.evaluations, alone.nonfinite_count, alone.quant_warnings)
        _same_prediction(got.prediction, alone.prediction)
        _same_prediction(got.baseline_prediction, alone.baseline_prediction)


def test_a_refusal_of_every_row_is_reported_per_row_and_nothing_raises():
    task, sub, dec = _small_setup(seed=11)
    for name, (z, decoder, cfg, message) in _refusals(task, dec).items():
        if name == "nonfinite":
            continue  # a property of one row, pinned above
        batch = adapt_batch(np.tile(z, (3, 1)), decoder, sub, cfg)
        assert batch.results == [None] * 3
        assert list(batch.errors) == [0, 1, 2]
        assert all(type(exc) is ContractViolation and str(exc) == message
                   for exc in batch.errors.values())
        assert len(batch.wall_ms) == 3 and all(w >= 0.0 for w in batch.wall_ms)


def test_batch_single_row_matches_adapt_with_derived_seed():
    task, sub, dec = _small_setup(seed=12)
    z = task.class_means[3] + 0.1
    cfg = AdaptationConfig(k=4, n=3, seed=21)
    batch = adapt_batch(z[None, :], dec, sub, cfg)
    assert not batch.errors
    direct = adapt(z, dec, sub, cfg.with_seed(derive_seed(21, 0)))
    assert batch.results[0].p_star.tobytes() == direct.p_star.tobytes()


def test_batch_processing_order_does_not_matter():
    task, sub, dec = _small_setup(seed=13)
    rows, _ = datagen.gen_source(task, 3, stream=4)
    cfg = AdaptationConfig(k=4, n=3, seed=31)
    forward = adapt_batch(rows, dec, sub, cfg)
    perm = np.array([7, 2, 9, 0, 5, 1, 11, 3, 10, 4, 8, 6])
    permuted = adapt_batch(rows[perm], dec, sub, cfg, indices=perm)
    for j, original_index in enumerate(perm):
        a = forward.results[original_index]
        b = permuted.results[j]
        assert a.p_star.tobytes() == b.p_star.tobytes()
        assert a.prediction.predicted_class == b.prediction.predicted_class


def test_binary_mode_tracks_float_accuracy_at_k2():
    # frozen fixture: on a k=2 task the 1-bit variant stays within 3 points
    task = datagen.make_task(class_count=10, dim=16, seed=21)
    train, _ = datagen.gen_source(task, 200, stream=0)
    test, test_y = datagen.gen_source(task, 20, stream=1)
    dec = datagen.make_decoder(task)
    combined = [s for s in datagen.preset_shifts(16, 1.0, 21) if s.label == "combined"][0]
    shifted = datagen.apply_shift(test, task.class_means.mean(axis=0), combined)
    sub = fit(train, 2)
    accuracy = {}
    for mode in ("ted", "qted-v1"):
        cfg = AdaptationConfig(k=2, n=8, seed=21, mode=mode)
        batch = adapt_batch(shifted, dec, sub, cfg)
        preds = [r.prediction.predicted_class for r in batch.results]
        accuracy[mode] = 100.0 * np.mean(np.array(preds) == test_y)
    assert accuracy["ted"] == 76.5  # frozen at first measurement
    assert accuracy["qted-v1"] == 77.0
    assert abs(accuracy["ted"] - accuracy["qted-v1"]) <= 3.0


def test_fixed_mode_reports_quant_warnings():
    task, sub, dec = _small_setup(seed=15)
    z = task.class_means[0] + 0.25
    cfg = AdaptationConfig(
        k=4, n=3, seed=5, mode="fixed", fixed_format=FixedPointFormat(4, 2)
    )
    result = adapt(z, dec, sub, cfg)
    assert result.quant_warnings is not None
    assert set(result.quant_warnings) == {"saturations", "sigma_clamps", "eig_clamps"}
    float_result = adapt(z, dec, sub, AdaptationConfig(k=4, n=3, seed=5))
    assert float_result.quant_warnings is None


def test_batch_collects_row_errors_without_failing():
    task, sub, dec = _small_setup(seed=14)
    rows, _ = datagen.gen_source(task, 2, stream=5)
    rows = rows.copy()
    rows[3, 0] = np.nan
    batch = adapt_batch(rows, dec, sub, AdaptationConfig(k=4, n=2, seed=41))
    assert set(batch.errors) == {3}
    assert batch.results[3] is None
    assert all(batch.results[i] is not None for i in range(len(rows)) if i != 3)


@pytest.mark.parametrize("indices", [[0, -1, 2], [0, 0.7, 2], [True, False, True], [0, 1],
                                     [0, 1, 2, 3]],
                         ids=["negative", "fractional", "bool", "short", "long"])
def test_batch_refuses_bad_indices_before_any_row(monkeypatch, indices):
    adapt_module = importlib.import_module("latentadapt.adapt")
    machines, evaluations = [], []
    machine, real_fitness = adapt_module._machine, adapt_module.fitness
    monkeypatch.setattr(adapt_module, "_machine",
                        lambda cfg, seeds: machines.append(seeds) or machine(cfg, seeds))
    monkeypatch.setattr(adapt_module, "fitness",
                        lambda *args: evaluations.append(args) or real_fitness(*args))
    task, sub, dec = _small_setup(seed=21)
    rows = task.class_means[:3]
    cfg = AdaptationConfig(k=4, n=2, seed=3)
    for run in (adapt_batch, adapt):  # adapt given indices runs a chunk of rows
        with pytest.raises(ContractViolation):
            run(rows, dec, sub, cfg, indices=indices)
    assert machines == [] and evaluations == []
    adapt_batch(rows, dec, sub, cfg, indices=[5, 0, 2 ** 40])
    assert machines == [[derive_seed(3, 5), derive_seed(3, 0), derive_seed(3, 2 ** 40)]]
    assert len(evaluations) == 3 * (cfg.n * cmaes.default_lambda(cfg.k) + 1)


def _same_prediction(a, b):
    assert a.logits.tobytes() == b.logits.tobytes()
    assert a.probabilities.tobytes() == b.probabilities.tobytes()
    assert a.predicted_class == b.predicted_class
    assert struct.pack("<d", a.entropy) == struct.pack("<d", b.entropy)


@pytest.mark.parametrize("mode, fmt", [("ted", None), ("qted-v1", None),
                                       ("fixed", FixedPointFormat(16, 8))])
def test_overflowing_candidates_never_win(mode, fmt):
    # both logits are 1e308 * z_0: any correction with |z_0| > 1.8 takes them
    # to the same infinity, and inf - inf leaves NaN probabilities, which
    # must count as non-finite rather than as a perfectly confident prediction
    dim = 4
    dec = LinearDecoder(weights=np.vstack([1e308 * np.eye(dim)[0]] * 2), bias=np.array([0.0, 1.0]))
    sub = PrincipalSubspace(mean=np.zeros(dim), basis=np.eye(dim)[:, :2],
                            singular_values=np.ones(2), source_count=10)
    cfg = AdaptationConfig(k=2, n=3, sigma0=100.0, seed=1, mode=mode, fixed_format=fmt)
    with np.errstate(over="ignore", invalid="ignore"):
        result = adapt(np.zeros(dim), dec, sub, cfg)
        _same_prediction(result.prediction, decode(dec, result.z_adapted))
    assert result.nonfinite_count > 0
    assert result.prediction.entropy == result.baseline_prediction.entropy > 0.0
    assert np.isfinite(result.prediction.probabilities).all()
    assert result.prediction is result.baseline_prediction  # the baseline point won


@pytest.mark.parametrize("mode, fmt", [("none", None), ("ted", None), ("qted-v1", None),
                                       ("fixed", FixedPointFormat(8, 4)),
                                       ("fixed", FixedPointFormat(16, 8))],
                         ids=["none", "ted", "qted-v1", "8b4", "16b8"])
def test_predictions_are_the_decodes_of_the_winner_and_the_baseline(mode, fmt):
    task, sub, dec = _small_setup(seed=22)
    z = task.class_means[0] * 0.3 + task.class_means[3] * 0.7
    result = adapt(z, dec, sub, AdaptationConfig(k=4, n=4, seed=6, mode=mode, fixed_format=fmt))
    assert result.p_star.any() == (mode != "none")  # a search point won
    _same_prediction(result.prediction, decode(dec, result.z_adapted))
    _same_prediction(result.baseline_prediction, decode(dec, z))
    assert result.prediction.entropy == min([result.baseline_prediction.entropy]
                                            + result.entropy_trace)


def test_nonfinite_count_reported_every_mode(monkeypatch):
    adapt_module = importlib.import_module("latentadapt.adapt")
    real_fitness = adapt_module.fitness
    calls = {"n": 0}

    def every_fifth_nan(*args):
        calls["n"] += 1
        entropy = real_fitness(*args)
        return math.nan if calls["n"] % 5 == 0 else entropy

    monkeypatch.setattr(adapt_module, "fitness", every_fifth_nan)
    task, sub, dec = _small_setup(seed=16)
    z = task.class_means[1] + 0.4
    for mode, fmt in (("ted", None), ("qted-v1", None), ("fixed", FixedPointFormat(8, 4))):
        calls["n"] = 0
        cfg = AdaptationConfig(k=4, n=5, population=6, seed=3, mode=mode, fixed_format=fmt)
        result = adapt(z, dec, sub, cfg)
        assert result.evaluations == calls["n"] == 31
        assert result.nonfinite_count == 31 // 5
    monkeypatch.setattr(adapt_module, "fitness", real_fitness)
    assert adapt(z, dec, sub, AdaptationConfig(k=4, n=3, seed=3)).nonfinite_count == 0


def test_batch_records_eigensolver_sweep_cap_per_row(monkeypatch):
    task, sub, dec = _small_setup(seed=17)
    rows, _ = datagen.gen_source(task, 1, stream=6)
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    batch = adapt_batch(rows, dec, sub, AdaptationConfig(k=4, n=3, seed=8))
    assert set(batch.errors) == set(range(len(rows)))
    assert all(isinstance(e, ConvergenceFailure) for e in batch.errors.values())
    assert batch.results == [None] * len(rows)


def test_modes_are_the_cli_names():
    assert MODES == ("none", "ted", "qted-v1", "fixed")
    for old_name in ("float", "binary"):
        with pytest.raises(ContractViolation):
            AdaptationConfig(mode=old_name)


def test_mode_none_evaluates_only_the_baseline():
    task, sub, dec = _small_setup(seed=18)
    z = task.class_means[1] + 0.6
    result = adapt(z, dec, sub, AdaptationConfig(k=4, n=5, seed=2, mode="none"))
    assert result.evaluations == 1
    assert result.entropy_trace == []
    np.testing.assert_array_equal(result.p_star, np.zeros(4))
    base = decode(dec, z)
    assert result.prediction is result.baseline_prediction
    assert result.prediction.entropy == base.entropy
    assert result.prediction.predicted_class == base.predicted_class


def test_batch_times_every_row_failed_or_not():
    task, sub, dec = _small_setup(seed=19)
    rows, _ = datagen.gen_source(task, 1, stream=7)
    rows = rows.copy()
    rows[1, 0] = np.nan
    batch = adapt_batch(rows, dec, sub, AdaptationConfig(k=4, n=2, seed=3))
    assert set(batch.errors) == {1}
    assert len(batch.wall_ms) == len(rows)
    assert all(ms >= 0.0 for ms in batch.wall_ms)


def test_batch_propagates_unexpected_errors(monkeypatch):
    adapt_module = importlib.import_module("latentadapt.adapt")

    def broken_fitness(*args):
        raise RuntimeError("decoder fault")

    monkeypatch.setattr(adapt_module, "fitness", broken_fitness)
    task, sub, dec = _small_setup(seed=20)
    rows, _ = datagen.gen_source(task, 1, stream=8)
    with pytest.raises(RuntimeError, match="decoder fault"):
        adapt_batch(rows, dec, sub, AdaptationConfig(k=4, n=2, seed=3))


def test_public_surface_is_pinned():
    # a name added to or dropped from the package surface must be added or
    # dropped here too
    import latentadapt

    assert latentadapt.__all__ == [
        "AdaptationConfig", "AdaptationResult", "BatchResult", "CmaEsParams",
        "ContractViolation", "ConvergenceFailure", "DataFormatError", "FixedPointFormat",
        "LinearDecoder", "ModelArtifact", "Prediction", "PrincipalSubspace", "ShiftSpec",
        "SyntheticTask", "adapt", "adapt_batch", "apply_correction", "apply_shift",
        "decode", "default_lambda", "fit", "fitness", "gen_source", "make_decoder",
        "make_task", "preset_shifts", "project", "quantize_binary", "read_artifact",
        "read_features", "reconstruct", "write_artifact", "write_features",
    ]
    for name in latentadapt.__all__:
        assert getattr(latentadapt, name).__module__.startswith("latentadapt.")


_COMPOSITION_MODES = [("none", None), ("ted", None), ("qted-v1", None),
                      ("fixed", FixedPointFormat(8, 4)), ("fixed", FixedPointFormat(16, 8))]


def _row_bits(result):
    return (result.p_star.tobytes(), result.entropy_trace, result.evaluations,
            result.nonfinite_count, result.quant_warnings)


def _composition_rows(seed, per_class=linalg._STACK_MIN, count=2 * linalg._STACK_MIN + 3):
    task, sub, dec = _small_setup(seed=seed)
    rows, _ = datagen.gen_source(task, per_class, stream=9)
    return rows[:count], sub, dec


def _lockstep_draws(monkeypatch) -> list:
    """Draw the noise of two rows or more by the lane kernel, a single row's
    by the scalar loop, and log the lane count of each lockstep draw."""
    lanes, draw_lanes = [], rng._draw_lanes
    monkeypatch.setattr(rng, "_LANES_MIN", 2)
    monkeypatch.setattr(rng, "_draw_lanes",
                        lambda gens, out: lanes.append(len(gens)) or draw_lanes(gens, out))
    return lanes


@pytest.mark.parametrize("mode, fmt", _COMPOSITION_MODES, ids=["none", "ted", "qted-v1", "8b4", "16b8"])
def test_batch_composition_does_not_change_a_row(monkeypatch, mode, fmt):
    # all rows at once decompose the float covariances in stacked calls, 7-row
    # shards and single rows one matrix at a time; the noise of the batch and
    # of its shards is drawn in lockstep, a single row's alone
    adapt_module = importlib.import_module("latentadapt.adapt")
    lanes = _lockstep_draws(monkeypatch)
    rows, sub, dec = _composition_rows(seed=22)
    cfg = AdaptationConfig(k=4, n=3, seed=17, mode=mode, fixed_format=fmt)
    whole = adapt_batch(rows, dec, sub, cfg)
    assert not whole.errors
    assert lanes == ([] if mode == "none" else [len(rows)] * cfg.n)
    expected = [_row_bits(r) for r in whole.results]
    for start in range(0, len(rows), 7):
        shard = np.arange(start, min(start + 7, len(rows)))
        part = adapt_batch(rows[shard], dec, sub, cfg, indices=shard)
        assert [_row_bits(r) for r in part.results] == expected[shard[0]:shard[-1] + 1]
    for i in range(len(rows)):
        single = adapt_batch(rows[i:i + 1], dec, sub, cfg, indices=[i])
        assert _row_bits(single.results[0]) == expected[i]

    broken = rows.copy()
    middle = len(rows) // 2
    broken[middle, 0] = np.nan
    mixed = adapt_batch(broken, dec, sub, cfg)
    assert set(mixed.errors) == {middle} and mixed.results[middle] is None
    assert str(mixed.errors[middle]) == "latent contains non-finite entries"
    assert [_row_bits(r) for i, r in enumerate(mixed.results) if i != middle] == \
        expected[:middle] + expected[middle + 1:]
    assert len(mixed.wall_ms) == len(rows) and all(ms >= 0.0 for ms in mixed.wall_ms)

    # 200 rows run as machines of 1, 7 and 200 rows give every row the same bytes
    many, _, _ = _composition_rows(seed=22, per_class=50, count=200)
    by_size = {}
    for size in (1, 7, 200):
        monkeypatch.setattr(adapt_module, "_LOCKSTEP_ROWS", size)
        by_size[size] = [_row_bits(r) for r in adapt_batch(many, dec, sub, cfg).results]
    assert by_size[1] == by_size[7] == by_size[200]

    # in lockstep chunks, each chunk is one adapt call
    chunks = []
    real_adapt = adapt_module.adapt
    monkeypatch.setattr(adapt_module, "adapt",
                        lambda z, *args, **kw: chunks.append(len(z)) or real_adapt(z, *args, **kw))
    monkeypatch.setattr(adapt_module, "_LOCKSTEP_ROWS", linalg._STACK_MIN)
    chunked = adapt_batch(broken, dec, sub, cfg)
    assert chunks == [linalg._STACK_MIN, linalg._STACK_MIN, len(rows) - 2 * linalg._STACK_MIN]
    assert list(chunked.errors) == [middle]
    assert str(chunked.errors[middle]) == str(mixed.errors[middle])
    assert [r and _row_bits(r) for r in chunked.results] == \
        [r and _row_bits(r) for r in mixed.results]
    assert len(chunked.wall_ms) == len(rows)

    empty = adapt_batch(rows[:0], dec, sub, cfg)
    assert (empty.results, empty.errors, empty.wall_ms) == ([], {}, [])


@pytest.mark.parametrize("mode, fmt", _COMPOSITION_MODES[1:], ids=["ted", "qted-v1", "8b4", "16b8"])
def test_a_failed_stacked_decomposition_fails_each_row_as_alone(monkeypatch, mode, fmt):
    lanes = _lockstep_draws(monkeypatch)
    rows, sub, dec = _composition_rows(seed=23)
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    cfg = AdaptationConfig(k=4, n=3, seed=19, mode=mode, fixed_format=fmt)
    # the last two rows repeat the first two, seed included: one matrix each
    indices = [*range(len(rows)), 0, 1]
    whole = adapt_batch(np.concatenate([rows, rows[:2]]), dec, sub, cfg, indices=indices)
    # every float row fails; a fixed-point register may stay diagonal
    assert {0, 1, len(rows), len(rows) + 1} <= set(whole.errors)
    assert mode == "fixed" or set(whole.errors) == set(range(len(indices)))
    assert lanes[0] == len(indices)
    for i, index in enumerate(indices):
        single = adapt_batch(rows[index:index + 1], dec, sub, cfg, indices=[index])
        if i in whole.errors:
            assert type(single.errors[0]) is type(whole.errors[i]) is ConvergenceFailure
            assert str(single.errors[0]) == str(whole.errors[i])
        else:
            assert not single.errors
            assert _row_bits(single.results[0]) == _row_bits(whole.results[i])


@pytest.mark.parametrize("mode, fmt", _COMPOSITION_MODES[1:], ids=["ted", "qted-v1", "8b4", "16b8"])
def test_a_row_leaving_the_lockstep_draw_shifts_no_other_row(monkeypatch, mode, fmt):
    # k = 3 and population 7 draw 21 normals a generation, so every row carries
    # a spare into the next; one row fails at its second generation, after
    # its noise was drawn, and the others draw on without it
    adapt_module = importlib.import_module("latentadapt.adapt")
    lanes = _lockstep_draws(monkeypatch)
    rows, sub, dec = _composition_rows(seed=24)
    sub = sub.truncated(3)
    cfg = AdaptationConfig(k=3, n=3, population=7, seed=21, mode=mode, fixed_format=fmt)
    alone = [_row_bits(adapt_batch(rows[i:i + 1], dec, sub, cfg, indices=[i]).results[0])
             for i in range(len(rows))]
    whole = adapt_batch(rows, dec, sub, cfg)
    assert [_row_bits(r) for r in whole.results] == alone

    leaving = len(rows) // 2
    real_fitness = adapt_module.fitness
    calls = []

    def fitness(d, s, z_t, p):
        # the leaving row's baseline and first generation, then its second's
        # first candidate fails
        if np.array_equal(z_t, rows[leaving]):
            calls.append(p)
            if len(calls) == 1 + cfg.population + 1:
                raise ConvergenceFailure("left mid-search")
        return real_fitness(d, s, z_t, p)

    monkeypatch.setattr(adapt_module, "fitness", fitness)
    lanes.clear()
    left = adapt_batch(rows, dec, sub, cfg)
    assert lanes == [len(rows), len(rows), len(rows) - 1]
    assert list(left.errors) == [leaving] and str(left.errors[leaving]) == "left mid-search"
    assert [_row_bits(r) for i, r in enumerate(left.results) if i != leaving] == \
        alone[:leaving] + alone[leaving + 1:]


def test_an_8b4_batch_and_single_rows_after_it_make_no_eigensolve(monkeypatch):
    # at 8b4 and k = 16 the covariance never moves from the identity, which
    # every row starts decomposed: neither a batch nor a single row solves
    task = datagen.make_task(class_count=4, dim=20, seed=24)
    source, _ = datagen.gen_source(task, 50, stream=0)
    sub, dec = fit(source, 16), datagen.make_decoder(task)
    rows, _ = datagen.gen_source(task, 6, stream=10)
    solved = []
    real = linalg.sym_eig_many
    monkeypatch.setattr(linalg, "sym_eig_many", lambda mats, k: solved.append(len(mats)) or real(mats, k))
    cfg = AdaptationConfig(k=16, n=3, seed=5, mode="fixed", fixed_format=FixedPointFormat(8, 4))
    batch = adapt_batch(rows[:23], dec, sub, cfg)
    assert len(batch.results) == 23 and not batch.errors
    again = adapt_batch(rows[:23], dec, sub, cfg)  # nothing is kept from the first run
    assert [_row_bits(r) for r in again.results] == [_row_bits(r) for r in batch.results]
    for z in rows[:2]:
        adapt(z, dec, sub, cfg)
    assert solved == []
