import numpy as np
import pytest

from latentadapt.errors import ContractViolation
from latentadapt.rng import Xoshiro256pp
from latentadapt.subspace import apply_correction, fit, project, reconstruct


def _random_subspace(rng, d, k, mean_scale=1.0):
    """Test-side construction: orthonormal basis via QR, independent of fit."""
    from latentadapt.subspace import PrincipalSubspace

    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return PrincipalSubspace(
        mean=mean_scale * rng.standard_normal(d),
        basis=q[:, :k].copy(),
        singular_values=np.linspace(k, 1, k, dtype=np.float64),
        source_count=d,
    )


def test_fit_two_point_closed_form():
    s = fit(np.array([[1.0, 0.0], [-1.0, 0.0]]), 1)
    np.testing.assert_array_equal(s.mean, [0.0, 0.0])
    np.testing.assert_allclose(np.abs(s.basis[:, 0]), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(s.singular_values, [np.sqrt(2.0)], atol=1e-12)
    assert not s.rank_deficient


def test_fit_identical_rows_flags_rank_deficiency():
    row = np.array([2.0, -1.0, 3.0])
    s = fit(np.tile(row, (5, 1)), 1)
    np.testing.assert_array_equal(s.mean, row)
    np.testing.assert_allclose(s.singular_values, [0.0], atol=1e-12)
    assert s.rank_deficient


def test_fit_recovers_dominant_axis_monte_carlo():
    # N(mu, diag(4, 1, ..., 1)) in D=8: leading direction must align with e1
    rng = Xoshiro256pp(1234)
    d, n = 8, 1000
    mu = np.arange(1.0, d + 1.0)
    scale = np.ones(d)
    scale[0] = 2.0
    rows = np.empty((n, d))
    for i in range(n):
        rows[i] = mu + scale * rng.normals(d)
    s = fit(rows, 2)
    cos_angle = abs(s.basis[0, 0])
    assert cos_angle > np.cos(np.radians(5.0))
    np.testing.assert_allclose(s.mean, mu, atol=0.3)


def test_fit_contract_violations():
    with pytest.raises(ContractViolation):
        fit(np.ones((1, 3)), 1)
    with pytest.raises(ContractViolation):
        fit(np.ones((4, 3)), 4)  # k > min(N-1, D)
    with pytest.raises(ContractViolation):
        fit(np.full((3, 3), np.inf), 1)


def test_project_axis_aligned():
    from latentadapt.subspace import PrincipalSubspace

    s = PrincipalSubspace(
        mean=np.zeros(2),
        basis=np.array([[1.0], [0.0]]),
        singular_values=np.array([1.0]),
        source_count=2,
    )
    np.testing.assert_array_equal(project(s, np.array([3.0, 4.0])), [3.0])


def test_project_mean_maps_to_origin():
    rng = np.random.default_rng(2)
    s = _random_subspace(rng, 6, 3)
    np.testing.assert_allclose(project(s, s.mean), np.zeros(3), atol=1e-12)


def test_project_diagonal_direction():
    from latentadapt.subspace import PrincipalSubspace

    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    s = PrincipalSubspace(
        mean=np.array([1.0, 1.0]),
        basis=np.array([[inv_sqrt2], [inv_sqrt2]]),
        singular_values=np.array([1.0]),
        source_count=2,
    )
    np.testing.assert_allclose(project(s, np.array([3.0, 3.0])), [2.0 * np.sqrt(2.0)])


def test_reconstruct_trivials():
    rng = np.random.default_rng(3)
    s = _random_subspace(rng, 5, 2)
    np.testing.assert_array_equal(reconstruct(s, np.zeros(2)), s.mean)

    from latentadapt.subspace import PrincipalSubspace

    axis = PrincipalSubspace(
        mean=np.zeros(2),
        basis=np.array([[1.0], [0.0]]),
        singular_values=np.array([1.0]),
        source_count=2,
    )
    np.testing.assert_array_equal(reconstruct(axis, np.array([5.0])), [5.0, 0.0])


def test_project_reconstruct_round_trip_in_span():
    rng = np.random.default_rng(4)
    for _ in range(25):
        s = _random_subspace(rng, 10, 4)
        z = s.mean + s.basis @ rng.standard_normal(4)
        np.testing.assert_allclose(reconstruct(s, project(s, z)), z, atol=1e-10)


def test_apply_correction_trivials():
    rng = np.random.default_rng(5)
    s = _random_subspace(rng, 7, 3)
    z = rng.standard_normal(7)
    np.testing.assert_array_equal(apply_correction(s, z, np.zeros(3)), z)

    from latentadapt.subspace import PrincipalSubspace

    axis = PrincipalSubspace(
        mean=np.zeros(2),
        basis=np.array([[1.0], [0.0]]),
        singular_values=np.array([1.0]),
        source_count=2,
    )
    np.testing.assert_array_equal(
        apply_correction(axis, np.array([3.0, 4.0]), np.array([-1.0])), [2.0, 4.0]
    )


def test_coordinate_correction_identity_random_instances():
    # shifting coordinates by p must equal projecting then adding p
    rng = np.random.default_rng(6)
    for _ in range(1000):
        s = _random_subspace(rng, 8, 3)
        z = rng.standard_normal(8)
        p = rng.standard_normal(3)
        lhs = project(s, apply_correction(s, z, p))
        rhs = project(s, z) + p
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_orthogonal_complement_untouched():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = _random_subspace(rng, 9, 4)
        z = rng.standard_normal(9)
        p = rng.standard_normal(4)
        delta = apply_correction(s, z, p) - z
        residual = delta - s.basis @ (s.basis.T @ delta)
        assert np.max(np.abs(residual)) < 1e-10


def test_fit_residual_energy_matches_discarded_eigenvalues():
    # rank-k reconstruction error equals the scatter spectrum tail (oracle: LAPACK)
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.standard_normal((50, 16))
        k = 5
        s = fit(z, k)
        centered = z - z.mean(axis=0)
        residual = centered - (centered @ s.basis) @ s.basis.T
        energy = np.sum(residual ** 2)
        spectrum = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        expected = np.sum(spectrum[k:])
        assert abs(energy - expected) / expected < 1e-6


def test_fit_matches_gram_route_oracle():
    # same subspace via the N x N Gram decomposition, checked by principal angles
    from scipy.linalg import subspace_angles

    rng = np.random.default_rng(9)
    z = rng.standard_normal((12, 20))
    k = 4
    s = fit(z, k)
    centered = z - z.mean(axis=0)
    gram = centered @ centered.T
    vals, vecs = np.linalg.eigh(gram)
    order = np.argsort(vals)[::-1][:k]
    alt_basis = centered.T @ vecs[:, order]
    alt_basis /= np.linalg.norm(alt_basis, axis=0)
    angles = subspace_angles(s.basis, alt_basis)
    assert np.max(angles) < 1e-7


def test_truncated_keeps_leading_directions():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((30, 10))
    s_full = fit(z, 6)
    s_cut = s_full.truncated(2)
    np.testing.assert_array_equal(s_cut.basis, s_full.basis[:, :2])
    np.testing.assert_array_equal(s_cut.singular_values, s_full.singular_values[:2])
    with pytest.raises(ContractViolation):
        s_full.truncated(7)


def test_fit_refuses_a_source_that_is_not_2d():
    with pytest.raises(ContractViolation, match="^source features must be a 2-d array$"):
        fit(np.arange(6.0), 1)
