import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentadapt import report
from latentadapt.decoder import LinearDecoder, decode, fitness, shannon_entropy, softmax
from latentadapt.errors import ContractViolation
from latentadapt.subspace import PrincipalSubspace, apply_correction


def test_zero_decoder_is_maximum_entropy():
    d = LinearDecoder(weights=np.zeros((4, 3)), bias=np.zeros(4))
    pred = decode(d, np.array([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(pred.probabilities, np.full(4, 0.25), atol=1e-12)
    assert abs(pred.entropy - np.log(4.0)) < 1e-12
    assert pred.predicted_class == 0  # tie resolves to lowest index


def test_extreme_logits_are_stable():
    d = LinearDecoder(weights=np.array([[1000.0], [0.0]]), bias=np.zeros(2))
    pred = decode(d, np.array([1.0]))
    assert np.all(np.isfinite(pred.probabilities))
    np.testing.assert_allclose(pred.probabilities, [1.0, 0.0], atol=1e-12)
    assert pred.entropy < 1e-9
    assert pred.predicted_class == 0


def test_entropy_hand_value():
    # direct evaluation at (0.7, 0.2, 0.1)
    assert abs(shannon_entropy(np.array([0.7, 0.2, 0.1])) - 0.80182) < 1e-5


def test_entropy_matches_scipy():
    from scipy.stats import entropy as scipy_entropy

    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.dirichlet(np.ones(6))
        assert abs(shannon_entropy(p) - scipy_entropy(p)) < 1e-12


def test_one_hot_entropy_is_exactly_zero():
    p = np.zeros(5)
    p[2] = 1.0
    assert shannon_entropy(p) == 0.0
    # +0.0: the negated sum of zero terms is -0.0, which a report wrote as -0
    for one_hot in (p, np.array([1.0, 0.0]), np.array([1.0])):
        assert math.copysign(1.0, shannon_entropy(one_hot)) == 1.0


def test_report_row_writes_a_one_hot_entropy_as_zero(tmp_path):
    d = LinearDecoder(weights=np.array([[1000.0], [0.0]]), bias=np.zeros(2))
    pred = decode(d, np.array([1.0]))
    assert pred.probabilities.tolist() == [1.0, 0.0]
    record = report.SampleRecord(index=0, true_label=0, noadapt_class=0,
                                 noadapt_entropy=pred.entropy, adapted_class=0,
                                 adapted_entropy=pred.entropy, evaluations=1, status="ok",
                                 wall_ms=1.0)
    path = tmp_path / "r.csv"
    report.write_csv(path, [record])
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == row[5] == "0"


def test_overflowing_logits_have_no_entropy():
    # both logits overflow to +inf and inf - inf is NaN: no entropy, where a
    # NaN probability used to count as a 0 * log 0 term
    d = LinearDecoder(weights=np.array([[1e308], [1e308]]), bias=np.array([0.0, 1.0]))
    s = PrincipalSubspace(mean=np.zeros(1), basis=np.eye(1), singular_values=np.ones(1),
                          source_count=2)
    with np.errstate(over="ignore", invalid="ignore"):
        entropy = fitness(d, s, np.zeros(1), np.array([10.0]))
        prediction = decode(d, np.array([10.0]))
    assert np.isnan(prediction.probabilities).all()
    assert np.isnan(entropy) and np.isnan(prediction.entropy)
    assert np.isnan(shannon_entropy(np.array([np.nan, 0.0, 1.0])))
    assert shannon_entropy(np.array([0.0, 1.0])) == 0.0


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal(7)
    shifted = softmax(logits + 123.456)
    assert np.max(np.abs(softmax(logits) - shifted)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=12))
def test_entropy_bounds_for_any_logits(logit_list):
    d = LinearDecoder(
        weights=np.eye(len(logit_list)), bias=np.zeros(len(logit_list))
    )
    pred = decode(d, np.array(logit_list))
    c = len(logit_list)
    assert -1e-9 <= pred.entropy <= np.log(c) + 1e-9
    assert abs(pred.probabilities.sum() - 1.0) < 1e-9
    assert np.all(pred.probabilities >= 0.0)
    assert pred.predicted_class == int(np.argmax(pred.probabilities))


def test_decode_dimension_mismatch():
    d = LinearDecoder(weights=np.zeros((2, 3)), bias=np.zeros(2))
    with pytest.raises(ContractViolation):
        decode(d, np.zeros(4))


def _subspace_from_basis(basis, mean=None):
    d, k = basis.shape
    return PrincipalSubspace(
        mean=np.zeros(d) if mean is None else mean,
        basis=basis,
        singular_values=np.linspace(k, 1, k, dtype=np.float64),
        source_count=d,
    )


def test_fitness_at_zero_equals_plain_decode():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = _subspace_from_basis(q[:, :2].copy())
    d = LinearDecoder(weights=rng.standard_normal((3, 6)), bias=rng.standard_normal(3))
    z = rng.standard_normal(6)
    entropy = fitness(d, s, z, np.zeros(2))
    assert type(entropy) is float
    assert entropy == decode(d, z).entropy


def test_fitness_invariant_to_zero_impact_direction():
    # basis column orthogonal to every decoder row cannot change the fitness
    rng = np.random.default_rng(3)
    w = np.zeros((3, 5))
    w[:, :4] = rng.standard_normal((3, 4))  # rows never touch axis 4
    basis = np.zeros((5, 2))
    basis[0, 0] = 1.0
    basis[4, 1] = 1.0  # zero-impact direction
    s = _subspace_from_basis(basis)
    d = LinearDecoder(weights=w, bias=np.zeros(3))
    z = rng.standard_normal(5)
    base_entropy = fitness(d, s, z, np.array([0.7, 0.0]))
    for offset in (-3.0, -1.0, 2.0, 10.0):
        entropy = fitness(d, s, z, np.array([0.7, offset]))
        assert abs(entropy - base_entropy) < 1e-12


def test_entropy_decreases_toward_class_weight_ray():
    # moving along the class-0 weight direction must monotonically sharpen
    w = np.array([[2.0, 0.0], [-2.0, 0.0]])
    d = LinearDecoder(weights=w, bias=np.zeros(2))
    basis = np.array([[1.0], [0.0]])
    s = _subspace_from_basis(basis)
    z = np.zeros(2)
    entropies = [fitness(d, s, z, np.array([t])) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(entropies, entropies[1:]))


def test_decoder_validation():
    with pytest.raises(ContractViolation):
        LinearDecoder(weights=np.zeros((1, 3)), bias=np.zeros(1))
    with pytest.raises(ContractViolation):
        LinearDecoder(weights=np.zeros((3, 2)), bias=np.zeros(2))
    with pytest.raises(ContractViolation):
        LinearDecoder(weights=np.full((2, 2), np.nan), bias=np.zeros(2))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(1.0), st.floats(1.0, 1e4)))
def test_fitness_equals_decode_of_the_corrected_latent(scale):
    # scaled weights spread the logits until probabilities underflow to 0,
    # so the masked entropy branch is compared bit for bit too
    rng = np.random.default_rng(11)
    underflows = 0
    for _ in range(50):
        dim, k, classes = rng.integers(2, 20), rng.integers(1, 8), rng.integers(2, 12)
        k = min(k, dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        s = _subspace_from_basis(q[:, :k].copy(), mean=rng.standard_normal(dim))
        d = LinearDecoder(weights=rng.standard_normal((classes, dim)) * 3 * scale,
                          bias=rng.standard_normal(classes))
        z, p = rng.standard_normal(dim), rng.standard_normal(k) * 2
        entropy = fitness(d, s, z, p)
        want = decode(d, apply_correction(s, z, p))
        assert struct.pack("<d", entropy) == struct.pack("<d", want.entropy)
        masked = np.where(want.probabilities > 0.0, want.probabilities * np.log(
            np.where(want.probabilities > 0.0, want.probabilities, 1.0)), 0.0)
        assert entropy == float(-masked.sum())
        underflows += want.probabilities.min() == 0.0
    if scale >= 1e3:
        assert underflows > 0


@pytest.mark.parametrize("z_dim, p_dim", [(5, 2), (6, 3)], ids=["latent", "coordinates"])
def test_fitness_raises_what_decode_of_the_corrected_latent_raises(z_dim, p_dim):
    s = _subspace_from_basis(np.eye(6)[:, :2].copy())
    d = LinearDecoder(weights=np.ones((3, 6)), bias=np.zeros(3))
    z, p = np.zeros(z_dim), np.zeros(p_dim)
    with pytest.raises(ContractViolation) as composed:
        decode(d, apply_correction(s, z, p))
    with pytest.raises(ContractViolation) as inline:
        fitness(d, s, z, p)
    assert str(inline.value) == str(composed.value)


def test_fitness_names_a_decoder_subspace_dimension_mismatch():
    # the corrected latent has the subspace's shape; the decoder is the odd one
    s = _subspace_from_basis(np.eye(6)[:, :2].copy())
    d = LinearDecoder(weights=np.ones((3, 5)), bias=np.zeros(3))
    with pytest.raises(ContractViolation, match="^decoder and subspace dimensions differ$"):
        fitness(d, s, np.zeros(6), np.zeros(2))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(5e-324, 1.0), min_size=1, max_size=12))
def test_entropy_of_positive_probabilities_equals_the_masked_sum(values):
    p = np.array(values)
    masked = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    assert shannon_entropy(p) == float(-masked.sum())
