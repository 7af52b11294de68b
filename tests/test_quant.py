import hashlib
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentadapt import cmaes, linalg, quant
from latentadapt.errors import ContractViolation
from latentadapt.quant import (
    BinaryCmaes,
    FixedCmaes,
    FixedPointFormat,
    _FixedOps,
    quantization_health,
    quantize_binary,
)

F8B4 = FixedPointFormat(8, 4)


def test_format_layout():
    assert F8B4.frac_bits == 3
    assert F8B4.resolution == 0.125
    assert F8B4.min_value == -16.0
    assert F8B4.max_value == 15.875
    assert str(F8B4) == "8b4"


def test_format_parse():
    assert FixedPointFormat.parse("8b4") == F8B4
    assert FixedPointFormat.parse("32b8") == FixedPointFormat(32, 8)
    for bad in ("8x4", "b4", "8b", "3b1", "33b4", "8b8"):
        with pytest.raises(ContractViolation):
            FixedPointFormat.parse(bad)


def _saturate(raw, fmt):
    return min(max(raw, fmt.raw_min), fmt.raw_max)


def exact_quantize(v, fmt):
    """The exact oracle: v * 2^f rounded half to even on rationals, saturated."""
    return _saturate(round(Fraction(v) * (1 << fmt.frac_bits)), fmt)


def exact_mul(a, b, fmt):
    """The exact oracle: a * b / 2^f rounded half to even, saturated."""
    return _saturate(round(Fraction(a * b, 1 << fmt.frac_bits)), fmt)


def test_to_fixed_zero():
    for fmt in (F8B4, FixedPointFormat(4, 2), FixedPointFormat(16, 0)):
        assert int(_FixedOps(fmt).quantize(0.0)) == exact_quantize(0.0, fmt) == 0


def test_to_fixed_rounding_example():
    ops = _FixedOps(F8B4)
    raw = ops.quantize(1.3)
    assert int(raw) == exact_quantize(1.3, F8B4) == 10
    assert ops.to_float(raw) == 1.25
    ties = [1.3125, 1.4375, -1.3125, 0.0625]  # raw 10.5, 11.5, -10.5, 0.5: to even
    assert ops.quantize(ties).tolist() == [exact_quantize(v, F8B4) for v in ties] == [
        10, 12, -10, 0]


def test_to_fixed_saturates():
    ops = _FixedOps(F8B4)
    assert ops.to_float(ops.quantize(100.0)) == 15.875
    assert ops.to_float(ops.quantize(-100.0)) == -16.0
    assert ops.saturations == 2


def test_quantize_nan_raises_and_inf_saturates():
    # the kernel saturates an infinite input and counts it; only NaN is refused
    ops = _FixedOps(F8B4)
    with pytest.raises(ContractViolation):
        ops.quantize(float("nan"))
    with pytest.raises(ContractViolation):
        ops.quantize(np.array([1.0, float("nan")]))
    assert ops.saturations == 0
    raw = ops.quantize(np.array([float("inf"), -float("inf"), 1.0]))
    assert raw.tolist() == [F8B4.raw_max, F8B4.raw_min, 8]
    assert ops.saturations == 2


def test_fixed_add_identity_and_saturation():
    ops = _FixedOps(F8B4)
    a = ops.quantize(1.375)
    assert ops.add(a, ops.quantize(0.0)) == a
    mx = np.int64(F8B4.raw_max)
    assert ops.add(mx, mx) == F8B4.raw_max
    assert ops.saturations == 1


def test_fixed_mul_one_within_step():
    ops = _FixedOps(F8B4)
    one = ops.quantize(1.0)
    for value in (0.5, -3.25, 7.125):
        a = ops.quantize(value)
        prod = ops.mul(a, one)
        assert int(prod) == exact_mul(int(a), int(one), F8B4)
        assert abs(ops.to_float(prod) - ops.to_float(a)) <= F8B4.resolution


def test_fixed_mul_ties_to_even_example():
    ops = _FixedOps(F8B4)
    a = ops.quantize(1.25)
    product = ops.mul(a, a)  # exact 1.5625 is raw 12.5, which rounds to even 12
    assert int(product) == exact_mul(10, 10, F8B4) == 12
    assert ops.to_float(product) == 1.5


def test_fixed_mul_saturates_no_wrap():
    ops = _FixedOps(F8B4)
    mx, mn = np.int64(F8B4.raw_max), np.int64(F8B4.raw_min)
    assert ops.mul(mx, mx) == exact_mul(F8B4.raw_max, F8B4.raw_max, F8B4) == F8B4.raw_max
    assert ops.mul(mn, mx) == exact_mul(F8B4.raw_min, F8B4.raw_max, F8B4) == F8B4.raw_min
    assert ops.saturations == 2


@st.composite
def _format_and_operands(draw):
    total_bits = draw(st.integers(4, 32))
    fmt = FixedPointFormat(total_bits, draw(st.integers(0, total_bits - 1)))
    raw = st.one_of(st.sampled_from([fmt.raw_min, fmt.raw_max, 0, 1, -1]),
                    st.integers(fmt.raw_min, fmt.raw_max))
    pairs = draw(st.lists(st.tuples(raw, raw), min_size=1, max_size=6))
    return fmt, pairs


@settings(max_examples=300, deadline=None)
@given(_format_and_operands())
def test_mul_equals_exact_rounding_then_saturation(case):
    fmt, pairs = case
    ops = _FixedOps(fmt)
    a, b = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    want = [exact_mul(x, y, fmt) for x, y in pairs]
    assert ops.mul(a, b).tolist() == want
    assert ops.saturations == sum(w != round(Fraction(x * y, 1 << fmt.frac_bits))
                                  for (x, y), w in zip(pairs, want))


def _all_formats_up_to(total_bits):
    for x in range(4, total_bits + 1):
        for y in range(0, x):
            yield FixedPointFormat(x, y)


def test_roundtrip_exhaustive_small_formats():
    # every representable value must convert back to itself exactly, as an
    # array and one scalar at a time
    for fmt in _all_formats_up_to(12):
        ops = _FixedOps(fmt)
        raws = np.arange(fmt.raw_min, fmt.raw_max + 1)
        values = raws * fmt.resolution
        np.testing.assert_array_equal(ops.quantize(values), raws)
        for raw, value in zip(raws.tolist(), values.tolist()):
            assert int(ops.quantize(value)) == raw
        assert ops.saturations == 0


def test_monotonicity_and_error_bound_random():
    rng = np.random.default_rng(0)
    for fmt in (FixedPointFormat(4, 2), F8B4, FixedPointFormat(12, 5)):
        ops = _FixedOps(fmt)
        span = 4.0 * fmt.max_value
        xs = np.sort(rng.uniform(-span, span, size=2000))
        raws = ops.quantize(xs)
        assert raws.tolist() == [exact_quantize(v, fmt) for v in xs.tolist()]
        quantized = ops.to_float(raws)
        assert np.all(np.diff(quantized) >= 0.0)
        in_range = (xs >= fmt.min_value) & (xs <= fmt.max_value)
        errors = np.abs(quantized[in_range] - xs[in_range])
        assert np.max(errors) <= fmt.resolution / 2.0 + 1e-15


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-1e6, 1e6),
    st.integers(4, 16),
)
def test_roundtrip_error_bound_property(value, total_bits):
    fmt = FixedPointFormat(total_bits, total_bits // 2 if total_bits // 2 < total_bits else 0)
    ops = _FixedOps(fmt)
    raw = ops.quantize(value)
    assert int(raw) == exact_quantize(value, fmt)
    back = float(ops.to_float(raw))
    if fmt.min_value <= value <= fmt.max_value:
        assert abs(back - value) <= fmt.resolution / 2.0
    else:
        assert back in (fmt.min_value, fmt.max_value)


def test_quantize_binary_signs_and_zero():
    out = quantize_binary(np.array([0.3, -2.0, 0.0]), 1.0)
    np.testing.assert_array_equal(out, [1.0, -1.0, 1.0])


@pytest.mark.parametrize("magnitude", [0.0, -1.0, math.nan, math.inf])
def test_quantize_binary_refuses_a_magnitude_not_finite_and_positive(magnitude):
    with pytest.raises(ContractViolation):
        quantize_binary(np.array([0.3, -2.0]), magnitude)


def test_quantize_binary_idempotent():
    p = np.array([0.5, -0.5, 0.5])
    np.testing.assert_array_equal(quantize_binary(p, 0.5), p)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=16), st.floats(0.01, 10.0))
def test_quantize_binary_two_values_property(values, alpha):
    out = quantize_binary(np.array(values), alpha)
    assert set(np.unique(out)).issubset({alpha, -alpha})


def sphere(p):
    return float(np.sum(p * p))


def test_binary_machine_snaps_with_the_step_size_at_ask_time():
    params = cmaes.CmaEsParams.defaults(3)
    machine = BinaryCmaes(params, 13)
    sigmas = set()
    for _ in range(4):
        sigma = machine.sigma[0]
        sigmas.add(sigma)
        points = machine.ask()[0]
        assert all(set(np.abs(p)) == {sigma} for p in points)
        machine.tell([[sphere(p) for p in points]])
    assert len(sigmas) == 4
    pinned = BinaryCmaes(params, 13, alpha=0.5)
    assert all(set(np.abs(p)) == {0.5} for p in pinned.ask()[0])


def test_binary_machine_feedback_tells_the_snapped_points():
    params = cmaes.CmaEsParams.defaults(3)
    for feedback in (False, True):
        machine = BinaryCmaes(params, 14, alpha=0.5, feedback=feedback)
        points = machine.ask()[0]
        raw = machine._candidates[0]
        # every snapped point has the same sphere value: parents are the first mu
        machine.tell([[sphere(p) for p in points]])
        told = points if feedback else raw
        w = params.recombination_weights
        expected = w @ np.asarray(told[: params.parent_count])
        np.testing.assert_allclose(machine.mean[0], expected, rtol=0, atol=1e-12)


def test_fixed_cmaes_wide_format_tracks_float():
    params = cmaes.CmaEsParams.defaults(2)
    float_res = cmaes.search(cmaes.CmaEs(params, 7), sphere, 50)
    fixed_res = cmaes.search(FixedCmaes(params, FixedPointFormat(32, 8), 7), sphere, 50)
    assert abs(float_res.best_fitness - fixed_res.best_fitness) < 1e-4


def test_fixed_cmaes_coarse_format_still_converges():
    params = cmaes.CmaEsParams.defaults(2)
    res = cmaes.search(FixedCmaes(params, F8B4, 7), sphere, 50)
    assert np.linalg.norm(res.best_p) <= 0.25


def test_fixed_cmaes_candidates_live_on_the_grid():
    params = cmaes.CmaEsParams.defaults(3)
    seen = []

    def probe(p):
        seen.append(p.copy())
        return sphere(p)

    cmaes.search(FixedCmaes(params, F8B4, 8), probe, 4)
    for p in seen:
        scaled = p / F8B4.resolution
        np.testing.assert_array_equal(scaled, np.round(scaled))
        assert np.all(p >= F8B4.min_value) and np.all(p <= F8B4.max_value)


def test_fixed_cmaes_baseline_guarantee_and_budget():
    params = cmaes.CmaEsParams.defaults(2, population=6)
    center = np.zeros(2)
    res = cmaes.search(FixedCmaes(params, F8B4, 9), sphere, 3, baseline=center)
    assert res.best_fitness == 0.0
    assert res.evaluations == 3 * 6 + 1
    assert len(res.trace) == 3
    assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))


@pytest.mark.parametrize("rows", [3, 4, 5])
def test_a_shared_baseline_s_saturation_counts_for_every_row(rows):
    # the k = 4 baseline is one row all rows share, also when the machine
    # has exactly k rows: 100 saturates at 8b4 and counts once for each
    params = cmaes.CmaEsParams.defaults(4)
    run = cmaes.Search(FixedCmaes(params, F8B4, range(rows)), sphere,
                       np.array([100.0, 0.0, 0.0, 0.0]))
    assert run.machine.ops.saturations.tolist() == [1] * rows
    assert run.best_p.tolist() == [[F8B4.max_value, 0.0, 0.0, 0.0]] * rows


def test_fixed_cmaes_deterministic():
    params = cmaes.CmaEsParams.defaults(2)
    r1 = cmaes.search(FixedCmaes(params, F8B4, 11), sphere, 20)
    r2 = cmaes.search(FixedCmaes(params, F8B4, 11), sphere, 20)
    assert r1.best_p.tobytes() == r2.best_p.tobytes()
    assert r1.trace == r2.trace
    assert r1.quant_warnings == r2.quant_warnings


def test_fixed_cmaes_sigma_clamp_is_counted():
    # a tiny initial step size quantizes to zero and must clamp, not die
    params = cmaes.CmaEsParams.defaults(2, initial_sigma=1e-6)
    res = cmaes.search(FixedCmaes(params, F8B4, 12), sphere, 3)
    assert res.quant_warnings["sigma_clamps"] >= 1
    assert np.all(np.isfinite(res.best_p))


# ---------------------------------------------------------------- bit identity
#
# Digests of every field of a fixed-point search result, its three
# quant_warnings counts included, recorded from the scalar-loop implementation
# at commit ee2df22 (before the vectorised tell, the batched ask, the
# decomposition reuse and the inlined normal generator). Any change to a
# candidate, a count or the trace changes a digest.


def _objective(name, k):
    if name == "sphere":
        return sphere
    if name == "shifted":
        c = np.linspace(-3.0, 3.0, k)
        return lambda p: float(np.sum((p - c) ** 2))
    if name == "far":  # optimum outside every small format: saturates
        return lambda p: float(np.sum((p - 40.0) ** 2))
    if name == "ellipsoid":
        w = 10.0 ** (4.0 * np.arange(k) / max(k - 1, 1))
        return lambda p: float(np.sum(w * (p - 0.7) ** 2))
    if name == "linear":  # keeps the sigma path long: h_sigma goes off
        return lambda p: float(p[0] + np.sum(p))
    if name == "holes":  # non-finite values on part of the space
        def holes(p):
            if p[0] > 0.25:
                return float("nan")
            if p[-1] < -1.5:
                return float("inf")
            return sphere(p - 0.5)
        return holes
    raise KeyError(name)


def _result_digest(res):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(res.best_p, dtype=np.float64).tobytes())
    h.update(struct.pack("<d", res.best_fitness))
    h.update(struct.pack(f"<{len(res.trace)}d", *res.trace))
    counts = res.quant_warnings
    h.update(struct.pack("<5q", res.evaluations, res.nonfinite_count, counts["saturations"],
                         counts["sigma_clamps"], counts["eig_clamps"]))
    return h.hexdigest()


# (fmt, k, sigma0, seed, objective, baseline fill or None, iterations, digest);
# the set covers saturation, sigma clamps, eigenvalue clamps and non-finite values
_GOLDEN = [
    ("4b2", 2, 1.0, 1, "sphere", None, 12,
     "1acce3b36224f0bc9c2829c7b9060570cbe783d61406e144c9f73f48f29c168a"),
    ("4b2", 8, 1.0, 2, "far", None, 12,
     "43c120b103b192b3afeb50ec8d698ee41daeeff30abe48af025796c6a8b876bd"),
    ("6b3", 5, 0.5, 3, "holes", None, 12,
     "34fd092624e8defb44e7f53b302877e5bc790db86d179c6cd54fd537367d96b8"),
    ("8b4", 16, 1.0, 4, "shifted", 0.0, 12,
     "d94a87b8b02146a09bdbf0ffc3b7c940451f16f8d432d865337b74c7c771ef8b"),
    ("8b4", 16, 1e-06, 5, "sphere", None, 12,
     "b9db07a6b4c2b120ad9542e965eb7783cf810d308525eea91587ca4cb8289ad3"),
    ("8b4", 3, 2.0, 6, "far", 0.0, 12,
     "0259dfbb9adc0309ee4df5078f49a11aaf1524a9eb34bb61524b587c6b2b6b36"),
    ("10b2", 4, 1.0, 7, "ellipsoid", None, 12,
     "db9cc280956e645d204fc48ad2af4e3f3fd857109575f19d8a00a8549dd353eb"),
    ("12b4", 16, 1.0, 8, "holes", 0.0, 12,
     "1aa78a9943feafcf92598267f9263b4e3ead0f4895581bca78de326574863160"),
    ("16b8", 6, 0.3, 9, "ellipsoid", None, 12,
     "b937ba5afd72f9eb477dc18e34b76ab5242a56087ce59947aaed996bfc42b679"),
    ("16b4", 8, 3.0, 10, "far", None, 12,
     "27b4447d7fb0bf64537b0956878059f65ce09f632d575c3ba002dbb9193c96c7"),
    ("24b8", 5, 1.0, 11, "ellipsoid", 0.0, 12,
     "0db11d2795ca26babfe4ea14d3efa053c45792e39bce7183962321d2e8ee3fa6"),
    ("32b8", 16, 1.0, 12, "shifted", None, 12,
     "c2e2c68432ee8505eaa55e0dbd75a31f8f302d3edb3cd8f5907c1ac19a43ca24"),
    ("32b8", 4, 1e-09, 13, "ellipsoid", None, 12,
     "eebc53ac3fe66bb374ff1fe46e47f72bf0cf2d083f05d91c2c146b7cb2f25992"),
    ("12b4", 2, 3.0, 0, "far", None, 30,
     "ccd4c730f568e6a0e06ae1c0c48157aa7c156e26ba8fe63fd50d8e71dfbd8bb3"),
    ("10b2", 3, 0.05, 1, "far", None, 30,
     "8521cfba6a17ee4cf6e92115f098de9e5ae545cd1ce9e0553d6f0ed700f3af52"),
    # h_sigma is off in 6 of the 8 generations
    ("16b8", 16, 1.0, 3, "linear", None, 8,
     "979d3ed8a9d159ab08d10a66f6f78bc2b696ab0f0e2eedd3090ca121e0bfb207"),
    # no integer bits: sigma0 and the identity covariance saturate to 127/128
    ("8b0", 16, 1.0, 14, "shifted", 0.0, 12,
     "1045b8c3eeb52c95e053d67d1bab6d581b6821a10bdc402cf05463eb9523024e"),
]


@pytest.mark.parametrize("fmt, k, sigma0, seed, objective, base, iterations, digest", _GOLDEN)
def test_fixed_cmaes_matches_recorded_digests(fmt, k, sigma0, seed, objective, base, iterations,
                                              digest):
    params = cmaes.CmaEsParams.defaults(k, initial_sigma=sigma0)
    baseline = None if base is None else np.full(k, base)
    machine = FixedCmaes(params, FixedPointFormat.parse(fmt), seed)
    res = cmaes.search(machine, _objective(objective, k), iterations, baseline=baseline)
    assert _result_digest(res) == digest


def _sequential_sum(ops, terms):
    total = np.int64(0)
    for term in terms:
        total = ops.add(total, term)
    return total


@st.composite
def _format_and_terms(draw):
    total_bits = draw(st.integers(4, 32))
    fmt = FixedPointFormat(total_bits, draw(st.integers(0, total_bits - 1)))
    # extremes are over-weighted so that partial sums leave the range
    raw = st.one_of(st.sampled_from([fmt.raw_min, fmt.raw_max, 0]),
                    st.integers(fmt.raw_min, fmt.raw_max))
    count = draw(st.integers(1, 8))
    width = draw(st.integers(1, 4))
    terms = draw(st.lists(st.lists(raw, min_size=width, max_size=width),
                          min_size=count, max_size=count))
    return fmt, np.array(terms, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_format_and_terms())
def test_saturating_sum_equals_sequential_adds(case):
    fmt, terms = case
    for axis, ordered in ((0, terms), (1, terms.T)):
        fast, slow = _FixedOps(fmt), _FixedOps(fmt)
        got = fast.sum(ordered, axis=axis)
        want = _sequential_sum(slow, terms)
        np.testing.assert_array_equal(got, want)
        assert fast.saturations == slow.saturations


def test_saturating_sum_replays_in_order():
    # max + max + min: the prefix sums end in range, the sequential adds do not
    ops = _FixedOps(F8B4)
    terms = np.array([F8B4.raw_max, F8B4.raw_max, F8B4.raw_min])
    assert ops.sum(terms) == -1
    assert ops.saturations == 1
    assert int(np.sum(terms)) == F8B4.raw_max - 1


@st.composite
def _format_and_pair(draw):
    total_bits = draw(st.integers(4, 32))
    fmt = FixedPointFormat(total_bits, draw(st.integers(0, total_bits - 1)))
    raw = st.one_of(st.sampled_from([fmt.raw_min, fmt.raw_max, 0]),
                    st.integers(fmt.raw_min, fmt.raw_max))
    shape = draw(st.sampled_from([None, (3,), (2, 2)]))
    if shape is None:  # a constant register, an int64 scalar
        return fmt, np.int64(draw(raw)), np.int64(draw(raw))
    size = math.prod(shape)
    pair = [np.array(draw(st.lists(raw, min_size=size, max_size=size)),
                     dtype=np.int64).reshape(shape) for _ in range(2)]
    return fmt, *pair


@settings(max_examples=300, deadline=None)
@given(_format_and_pair())
def test_a_zero_coefficient_adds_nothing(case):
    # the h_sigma gate multiplies a term by a zero register instead of
    # skipping it: x + 0 * y must be x bit for bit, with no saturation
    fmt, x, y = case
    ops = _FixedOps(fmt)
    got = ops.add(x, ops.mul(0, y))
    assert np.asarray(got).tobytes() == np.asarray(x).tobytes()
    assert type(got) is type(x)
    assert ops.saturations == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 31), st.lists(st.integers(-(2 ** 62), 2 ** 62), min_size=1, max_size=8))
def test_rhe_shift_equals_exact_division(f, products):
    # every format of 32 bits: integer bits 31 - f leave f fraction bits
    ops = _FixedOps(FixedPointFormat(32, 31 - f))
    assert ops.f == f
    got = ops._rhe_shift(np.array(products, dtype=np.int64))
    assert got.tolist() == [round(Fraction(p, 1 << f)) for p in products]


def _run_generations(monkeypatch, fmt, generations):
    """Drive the fixed machine on the sphere; return it and the number of
    matrices it had decomposed."""
    real = linalg.sym_eig_many
    solved = []
    monkeypatch.setattr(linalg, "sym_eig_many", lambda mats, k: solved.extend(mats) or real(mats, k))
    machine = FixedCmaes(cmaes.CmaEsParams.defaults(16), fmt, 3)
    machine.cov[0, 0, 0] = 0  # an eigenvalue of 0, clamped up to the resolution
    machine.stale[0] = True  # a register written since its decomposition
    start = machine.cov.copy()
    for _ in range(generations):
        machine.tell([[sphere(p) for p in machine.ask()[0]]])
    return machine, start, len(solved)


def test_unchanged_covariance_reuses_decomposition_and_counts_clamps(monkeypatch):
    # at 8b4 and k=16, c_1 and c_mu are 0 and 1-c_1-c_mu is 1: C never moves
    machine, start, eig_calls = _run_generations(monkeypatch, F8B4, 6)
    np.testing.assert_array_equal(machine.cov, start)
    assert eig_calls == 1
    assert machine.eig_clamps.tolist() == [6]  # once per generation, as when recomputed
    kept = machine.decomposition
    machine.tell([[sphere(p) for p in machine.ask()[0]]])
    assert machine.decomposition is kept and not machine.stale.any()


def test_changed_covariance_is_decomposed_every_generation(monkeypatch):
    machine, start, eig_calls = _run_generations(monkeypatch, FixedPointFormat(32, 8), 6)
    assert not np.array_equal(machine.cov, start)
    assert eig_calls == 6
    assert machine.stale.tolist() == [True]  # stale until the next ask


def test_quantization_health_at_harness_settings():
    params = cmaes.CmaEsParams.defaults(16)
    assert quantization_health(params, F8B4) == (
        "strategy constants at 0 or 1: c_1->0, c_mu->0, 1-c_1-c_mu->1 "
        "(recombination weight sum: 0.875)"
    )
    assert quantization_health(params, FixedPointFormat(32, 8)).startswith(
        "strategy constants at 0 or 1: none"
    )


def test_quantization_health_flags_covariance_coefficients_off_one():
    # at 8b4 and k=6, 1-c_1-c_mu quantizes to 0.875 while c_1 and c_mu go to 0:
    # the covariance shrinks with no adaptation at all
    assert quantization_health(cmaes.CmaEsParams.defaults(6), F8B4) == (
        "strategy constants at 0 or 1: c_1->0, c_mu->0 "
        "(recombination weight sum: 0.875; covariance coefficient sum: 0.875)"
    )
    assert quantization_health(cmaes.CmaEsParams.defaults(16), FixedPointFormat(16, 8)).endswith(
        "; covariance coefficient sum: 1.00781)"
    )


@st.composite
def _format_numerators_denominator(draw):
    total_bits = draw(st.integers(4, 32))
    fmt = FixedPointFormat(total_bits, draw(st.integers(0, total_bits - 1)))
    raw = st.one_of(st.sampled_from([fmt.raw_min, fmt.raw_max, 0, 1, -1]),
                    st.integers(fmt.raw_min, fmt.raw_max))
    numerators = draw(st.lists(raw, min_size=1, max_size=6))
    denominator = draw(st.one_of(st.sampled_from([1, 2, 3, fmt.raw_max]),
                                 st.integers(1, fmt.raw_max)))
    return fmt, np.array(numerators, dtype=np.int64), np.int64(denominator)


def _general_div(ops, a, b):
    """The element-wise division a / b that the machine's one-register path
    must equal: sign flip, and division by zero saturating by numerator sign."""
    num, den = np.broadcast_arrays(np.left_shift(a, ops.f), b)
    flip = den < 0
    num = np.where(flip, -num, num)
    den = np.where(flip, -den, den)
    zero = den == 0
    ops.saturations += int(np.count_nonzero(zero))
    safe = np.where(zero, np.int64(1), den)
    q = num // safe
    twice = 2 * (num - q * safe)
    q = q + ((twice > safe) | ((twice == safe) & ((q & 1) == 1)))
    q = np.where(zero, np.where(num >= 0, ops.fmt.raw_max, ops.fmt.raw_min), q)
    return ops._sat(q)


@settings(max_examples=300, deadline=None)
@given(_format_numerators_denominator())
def test_div_by_a_positive_scalar_equals_the_general_path(case):
    fmt, a, b = case
    short, general = _FixedOps(fmt), _FixedOps(fmt)
    np.testing.assert_array_equal(short.div(a, b), _general_div(general, a, np.full(a.shape, b)))
    assert short.saturations == general.saturations
    assert short.div(a[0], b) == _general_div(general, a[:1], b[None])[0]
    assert short.saturations == general.saturations


@pytest.mark.parametrize("den", [np.int64(0), np.int64(-3), np.array([2, 0], dtype=np.int64)])
def test_div_refuses_all_but_one_positive_register(den):
    # a register per row is divided by that row's sigma: each must be positive
    with pytest.raises(ContractViolation):
        _FixedOps(F8B4).div(np.array([1, 2], dtype=np.int64), den)


# ---------------------------------------------------------------- scalar path


@st.composite
def _format_and_scalars(draw):
    total_bits = draw(st.integers(4, 32))
    fmt = FixedPointFormat(total_bits, draw(st.integers(0, total_bits - 1)))
    # extremes over-weighted: raw_min * raw_min is the largest product, and
    # division by 1 and by raw_max the widest quotients
    raw = st.one_of(st.sampled_from([fmt.raw_min, fmt.raw_max, 0, 1, -1]),
                    st.integers(fmt.raw_min, fmt.raw_max))
    den = st.one_of(st.sampled_from([1, fmt.raw_max]), st.integers(1, fmt.raw_max))
    # half steps hit the rounding ties; +-inf and huge values saturate
    value = st.one_of(
        st.integers(2 * fmt.raw_min - 4, 2 * fmt.raw_max + 4).map(
            lambda h: h * fmt.resolution / 2),
        st.floats(allow_nan=False),
    )
    return fmt, draw(raw), draw(raw), draw(den), draw(value)


@settings(max_examples=500, deadline=None)
@given(_format_and_scalars())
def test_int_ops_equal_the_kernel_on_0d_registers(case):
    # a constant shared by every row is a 0-d int64 register: each op on it
    # gives a 0-d register with what the same op gives on a one-row stack,
    # in value and count
    fmt, a, b, den, x = case
    scalars, stacks = _FixedOps(fmt), _FixedOps(fmt)
    a0, b0, den0 = (np.int64(v) for v in (a, b, den))
    a1, b1, den1 = (np.array([v], dtype=np.int64) for v in (a, b, den))
    root = np.int64(a if a >= 0 else -(a + 1))  # a non-negative register for sqrt
    with np.errstate(over="ignore"):  # exp of a large register is +inf, then saturates
        pairs = [
            (lambda: scalars.mul(a0, b0), lambda: stacks.mul(a1, b1)),
            (lambda: scalars.mul(np.int64(fmt.raw_min), np.int64(fmt.raw_min)),
             lambda: stacks.mul(np.array([fmt.raw_min]), np.array([fmt.raw_min]))),
            (lambda: scalars.add(a0, b0), lambda: stacks.add(a1, b1)),
            (lambda: scalars.sub(a0, b0), lambda: stacks.sub(a1, b1)),
            (lambda: scalars.halve(a0), lambda: stacks.halve(a1)),
            (lambda: scalars.div(a0, den0), lambda: stacks.div(a1, den1)),
            (lambda: scalars.quantize(x), lambda: stacks.quantize(np.array([x]))),
            (lambda: scalars.quantize(np.sqrt(scalars.to_float(root))),
             lambda: stacks.quantize(np.sqrt(stacks.to_float(root[None])))),
            (lambda: scalars.exp(a0), lambda: stacks.exp(a1)),
            (lambda: scalars.norm(np.array([a, b], dtype=np.int64)),
             lambda: stacks.norm(np.array([[a, b]], dtype=np.int64))),
        ]
        for scalar_op, stack_op in pairs:
            got, want = scalar_op(), stack_op()
            assert np.ndim(got) == 0 and np.asarray(got).dtype == np.int64
            assert int(got) == int(want[0])
            assert scalars.saturations.tolist() == stacks.saturations.tolist()


def test_int_ops_refuse_what_the_kernel_refuses():
    ops = _FixedOps(F8B4)
    with pytest.raises(ContractViolation):
        ops.quantize(float("nan"))
    with pytest.raises(ContractViolation), np.errstate(invalid="ignore"):
        ops.quantize(np.sqrt(ops.to_float(np.int64(-16))))  # sqrt of a negative register
    for den in (0, -3):
        with pytest.raises(ContractViolation):
            ops.div(np.int64(8), np.int64(den))
    assert ops.saturations.tolist() == [0]


# ---------------------------------------------------------------- register stacks

_STACK_FORMATS = [FixedPointFormat.parse(text) for text in ("4b2", "8b4", "16b8", "32b16")]


@st.composite
def _format_and_stacks(draw):
    fmt = draw(st.sampled_from(_STACK_FORMATS))
    rows = draw(st.integers(1, 5))
    shape = (rows,) + draw(st.sampled_from([(), (3,), (2, 3), (3, 2, 2)]))
    size = math.prod(shape)
    # extremes over-weighted, so that products and prefix sums leave the range
    raw = st.one_of(st.sampled_from([fmt.raw_min, fmt.raw_max, 0, 1, -1]),
                    st.integers(fmt.raw_min, fmt.raw_max))
    a, b = (np.array(draw(st.lists(raw, min_size=size, max_size=size)),
                     dtype=np.int64).reshape(shape) for _ in range(2))
    sigma = np.array(draw(st.lists(st.one_of(st.sampled_from([1, fmt.raw_max]),
                                             st.integers(1, fmt.raw_max)),
                                   min_size=rows, max_size=rows)), dtype=np.int64)
    # half steps hit the rounding ties; +-inf and huge values saturate
    value = st.one_of(st.integers(2 * fmt.raw_min - 4, 2 * fmt.raw_max + 4).map(
        lambda h: h * fmt.resolution / 2), st.floats(allow_nan=False))
    x = np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)
    quiet = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    return fmt, a, b, sigma, x, quiet, draw(value)


@settings(max_examples=300, deadline=None)
@given(_format_and_stacks())
def test_stacked_ops_give_each_row_its_own_value_and_count(case):
    # an op on a (rows, ...) register stack gives each row the value and the
    # saturation count that the same op gives on that row alone
    fmt, a, b, sigma, x, quiet, constant = case
    rows, inner = len(a), a.ndim - 1
    per_row = sigma.reshape((rows,) + (1,) * inner)
    ops = [
        ("mul", lambda o, i: o.mul(a if i is None else a[i], b if i is None else b[i])),
        ("add", lambda o, i: o.add(a if i is None else a[i], b if i is None else b[i])),
        ("sub", lambda o, i: o.sub(a if i is None else a[i], b if i is None else b[i])),
        ("halve", lambda o, i: o.halve(a if i is None else a[i])),
        ("quantize", lambda o, i: o.quantize(x if i is None else x[i])),
        ("div", lambda o, i: o.div(a, per_row) if i is None else o.div(a[i], sigma[i])),
        # a constant shared by every row counts its saturation for every row
        ("constant", lambda o, i: o.quantize(constant)),
    ]
    for axis in range(1, a.ndim):
        # quiet rows' terms are small enough that no prefix leaves the range
        n = a.shape[axis]
        small = np.sign(a) * (np.abs(a) // (n + 1))
        terms = np.where(quiet.reshape((rows,) + (1,) * inner), small, a)
        ops.append((f"sum{axis}", lambda o, i, t=terms, j=axis:
                    o.sum(t, axis=j) if i is None else o.sum(t[i], axis=j - 1)))
    for name, op in ops:
        stacked = _FixedOps(fmt, rows)
        with np.errstate(over="ignore"):  # a huge float scales to +-inf, then saturates
            got = op(stacked, None)
        for i in range(rows):
            alone = _FixedOps(fmt)
            with np.errstate(over="ignore"):
                want = op(alone, i)
            assert np.asarray(got[i] if name != "constant" else got).tobytes() == \
                np.asarray(want).tobytes(), (name, i)
            assert stacked.saturations[i] == alone.saturations[0], (name, i)
    # what the kernel refuses on any row, it refuses on the stack, counting nothing
    stacked = _FixedOps(fmt, rows)
    with pytest.raises(ContractViolation), np.errstate(over="ignore"):
        stacked.quantize(np.where(np.arange(rows) == rows - 1, np.nan, x.reshape(rows, -1)[:, 0]))
    for den in (0, -3):
        with pytest.raises(ContractViolation):
            stacked.div(a, np.where(np.arange(rows) == rows - 1, den, sigma))
    assert stacked.saturations.tolist() == [0] * rows


# ---------------------------------------------------------------- starting registers


def _registers(machine):
    constants = {attr: getattr(machine, attr) for attr, _, _ in cmaes._CONSTANTS}
    return (machine.sigma.tolist(), machine.one, machine.chi, constants, machine.cov[0].tolist(),
            machine.w.tolist(), machine.ops.saturations.tolist(), machine.sigma_clamps.tolist())


def _registers_from_scratch(params, fmt):
    """What a machine starts from, quantized here without the shared template."""
    ops = _FixedOps(fmt)
    sigma = int(ops.quantize(params.initial_sigma))
    constants = {attr: int(ops.quantize(value(params))) for attr, _, value in cmaes._CONSTANTS}
    one, chi = int(ops.quantize(1.0)), int(ops.quantize(params.chi_n))
    cov, w = ops.quantize(np.eye(params.dim)).tolist(), ops.quantize(
        params.recombination_weights).tolist()
    return ([max(sigma, 1)], one, chi, constants, cov, w, ops.saturations.tolist(),
            [int(sigma <= 0)])


def test_a_machine_starts_from_registers_no_earlier_machine_changed():
    params = cmaes.CmaEsParams.defaults(16)
    first = FixedCmaes(params, F8B4, 4)
    first.cov[0, 0, 0] = 0  # as _run_generations does: an eigenvalue of 0, clamped
    first.stale[0] = True
    first.w[0] = 0
    for _ in range(3):
        first.tell([[sphere(p) for p in first.ask()[0]]])
    assert first.eig_clamps.tolist() == [3]
    second = FixedCmaes(params, F8B4, 4)
    assert _registers(second) == _registers_from_scratch(params, F8B4)
    assert not np.shares_memory(second.cov, first.cov)
    assert not np.shares_memory(second.w, first.w)
    # the 8b4, k=16, sigma0=1 golden search still gives its recorded digest
    fmt, k, sigma0, seed, objective, base, iterations, digest = _GOLDEN[3]
    assert (fmt, k, sigma0) == ("8b4", 16, 1.0)
    machine = FixedCmaes(cmaes.CmaEsParams.defaults(k, initial_sigma=sigma0), F8B4, seed)
    res = cmaes.search(machine, _objective(objective, k), iterations, baseline=np.full(k, base))
    assert _result_digest(res) == digest


@pytest.mark.parametrize("fmt, sigma0", [
    (F8B4, 1.0), (FixedPointFormat(4, 2), 1.0), (FixedPointFormat(4, 0), 1.0),
    (F8B4, 0.3), (F8B4, 1e-6), (FixedPointFormat(16, 8), 1.0),
])
def test_each_format_and_sigma0_gets_its_own_registers(fmt, sigma0):
    # 4b0 cannot hold 1.0: its identity covariance saturates at the start
    params = cmaes.CmaEsParams.defaults(16, initial_sigma=sigma0)
    FixedCmaes(cmaes.CmaEsParams.defaults(16), F8B4, 5)  # another config first
    assert _registers(FixedCmaes(params, fmt, 5)) == _registers_from_scratch(params, fmt)
