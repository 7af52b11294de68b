import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentadapt import cmaes, linalg
from latentadapt.errors import ContractViolation, ConvergenceFailure
from latentadapt.linalg import sym_eig


def test_sym_eig_diagonal():
    values, vectors = sym_eig(np.diag([3.0, 2.0, 1.0]), 2)
    np.testing.assert_array_equal(values, [3.0, 2.0])
    np.testing.assert_array_equal(vectors, np.eye(3)[:, :2])


def test_sym_eig_2x2_closed_form():
    values, vectors = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
    np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(vectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-12)
    np.testing.assert_allclose(vectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-12)


def test_sym_eig_zero_matrix():
    values, vectors = sym_eig(np.zeros((3, 3)), 1)
    np.testing.assert_array_equal(values, [0.0])
    np.testing.assert_array_equal(vectors[:, 0], [1.0, 0.0, 0.0])


def test_sym_eig_rejects_non_symmetric():
    with pytest.raises(ContractViolation):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)


def test_sym_eig_rejects_bad_k():
    with pytest.raises(ContractViolation):
        sym_eig(np.eye(3), 0)
    with pytest.raises(ContractViolation):
        sym_eig(np.eye(3), 4)


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def test_sym_eig_orthonormality():
    rng = np.random.default_rng(7)
    for n in (3, 8, 17):
        s = _random_symmetric(rng, n)
        _, vectors = sym_eig(s, n)
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-9


def test_sym_eig_full_rank_reconstruction():
    rng = np.random.default_rng(8)
    for n in (4, 9, 16):
        s = _random_symmetric(rng, n)
        values, vectors = sym_eig(s, n)
        recon = vectors @ np.diag(values) @ vectors.T
        rel = np.linalg.norm(recon - s) / np.linalg.norm(s)
        assert rel < 1e-8


def test_sym_eig_matches_lapack_eigenvalues():
    rng = np.random.default_rng(9)
    s = _random_symmetric(rng, 12)
    values, _ = sym_eig(s, 12)
    expected = np.sort(np.linalg.eigvalsh(s))[::-1]
    np.testing.assert_allclose(values, expected, atol=1e-10)


def test_sym_eig_values_sorted_non_increasing():
    rng = np.random.default_rng(10)
    s = _random_symmetric(rng, 10)
    values, _ = sym_eig(s, 10)
    assert np.all(np.diff(values) <= 1e-15)


def test_sym_eig_sign_convention():
    rng = np.random.default_rng(11)
    for _ in range(5):
        s = _random_symmetric(rng, 6)
        _, vectors = sym_eig(s, 6)
        for j in range(6):
            idx = int(np.argmax(np.abs(vectors[:, j])))
            assert vectors[idx, j] > 0.0


def test_sym_eig_deterministic_across_calls():
    rng = np.random.default_rng(12)
    s = _random_symmetric(rng, 9)
    v1, w1 = sym_eig(s, 9)
    v2, w2 = sym_eig(s, 9)
    assert v1.tobytes() == v2.tobytes()
    assert w1.tobytes() == w2.tobytes()


def _reference_sym_eig(s, k):
    """The textbook cyclic-Jacobi loop that ``sym_eig`` must match bit for bit.

    Plain column update, row update and eigenvector update per rotation, with
    numpy scalars throughout.
    """
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0]
    fro = float(np.sqrt(np.sum(s * s)))
    a = (s + s.T) / 2.0
    v = np.eye(n, dtype=np.float64)
    tol = linalg._OFFDIAG_RTOL * fro
    converged = False
    for _ in range(linalg._MAX_SWEEPS):
        off = np.abs(a - np.diag(np.diag(a)))
        if float(off.max()) <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c

                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - sn * col_q
                a[:, q] = sn * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sn * row_q
                a[q, :] = sn * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0

                v_p = v[:, p].copy()
                v_q = v[:, q].copy()
                v[:, p] = c * v_p - sn * v_q
                v[:, q] = sn * v_p + c * v_q

    if not converged:
        off = np.abs(a - np.diag(np.diag(a)))
        if float(off.max()) > tol:
            raise ConvergenceFailure("reference sweep cap reached")

    values = np.diag(a).copy()
    order = np.argsort(-values, kind="stable")[:k]
    vectors = np.empty((n, k), dtype=np.float64)
    for j, col in enumerate(order):
        vec = v[:, col]
        idx = int(np.argmax(np.abs(vec)))
        vectors[:, j] = -vec if vec[idx] < 0.0 else vec
    return values[order], vectors


def _assert_matches_reference(s, k=None):
    k = s.shape[0] if k is None else k
    ref_values, ref_vectors = _reference_sym_eig(s, k)
    values, vectors = sym_eig(s, k)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(vectors, ref_vectors)


def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _cmaes_shaped(rng, n, rank):
    # alpha*I + low rank, as after the first covariance update: the
    # eigenvalue alpha is repeated n - rank times
    y = rng.standard_normal((rank, n))
    weights = np.linspace(1.0, 0.2, rank)
    return 0.75 * np.eye(n) + 0.1 * (y.T * weights) @ y


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_sym_eig_bit_identical_to_reference_on_spd(n):
    rng = np.random.default_rng(100 + n)
    _assert_matches_reference(_random_spd(rng, n))
    if n > 1:
        _assert_matches_reference(_random_spd(rng, n), k=max(1, n // 4))


@pytest.mark.parametrize("n, rank", [(3, 1), (16, 1), (16, 7), (64, 5)])
def test_sym_eig_bit_identical_on_degenerate_cmaes_covariances(n, rank):
    rng = np.random.default_rng(200 + n + rank)
    s = _cmaes_shaped(rng, n, rank)
    _assert_matches_reference(s)


@pytest.mark.parametrize("diagonal", [[3.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0], [0.5, 2.0, 2.0, -1.0, 0.0]])
def test_sym_eig_bit_identical_on_diagonal(diagonal):
    _assert_matches_reference(np.diag(diagonal))


def test_sym_eig_bit_identical_when_mirrored_entries_differ_in_last_bit():
    # the input may be asymmetric within the symmetry tolerance; the
    # rotations themselves keep the iterate exactly symmetric
    rng = np.random.default_rng(300)
    s = _random_spd(rng, 8)
    for p, q in ((0, 1), (2, 7), (5, 6)):
        s[q, p] = np.nextafter(s[p, q], np.inf)
    assert not np.array_equal(s, s.T)
    _assert_matches_reference(s)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        # past the 16-wide covariances of the harness search
        st.integers(1, 20).map(lambda n: (n, n)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
)
def test_sym_eig_bit_identical_property(m):
    _assert_matches_reference((m + m.T) / 2.0)


def test_sym_eig_bit_identical_on_a_float_cmaes_run(monkeypatch):
    # the covariances a k=16 float search on the sphere decomposes in
    # generations 1-7, as in an n=8 harness adaptation
    seen = []

    def recording(s, k):
        seen.append(np.array(s, copy=True))
        return sym_eig(s, k)

    monkeypatch.setattr(linalg, "sym_eig", recording)
    params = cmaes.CmaEsParams.defaults(16)
    cmaes.search(cmaes.CmaEs(params, 14), lambda p: float(p @ p), 8)
    assert len(seen) == 8 and np.array_equal(seen[0], np.eye(16))
    for generation in seen[1:]:
        assert not np.array_equal(generation, np.eye(16))
        _assert_matches_reference(generation)


def _plan_bytes(n):
    linalg._rotation_plan.cache_clear()
    tracemalloc.start()
    try:
        plan = linalg._rotation_plan(n)
        return tracemalloc.get_traced_memory()[0], len(plan)
    finally:
        tracemalloc.stop()
        linalg._rotation_plan.cache_clear()


def test_rotation_plan_memory_grows_with_the_pair_count_only():
    # a per-pair index over whole lanes would grow as n^3: 8x from n=32 to 64
    small, small_pairs = _plan_bytes(32)
    large, large_pairs = _plan_bytes(64)
    assert large < 1_500_000
    assert large / large_pairs < 1.2 * small / small_pairs


def test_sym_eig_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    rng = np.random.default_rng(13)
    with pytest.raises(ConvergenceFailure):
        sym_eig(_random_spd(rng, 8), 8)


def _mixed_stack(rng, n, count):
    # converged before any sweep (diagonal, zero), after one rotation (one
    # off-diagonal pair), and after a few to many sweeps (CMA-ES shaped, SPD)
    one_pair = np.diag(np.arange(n, 0, -1.0))
    if n > 1:
        one_pair[0, 1] = one_pair[1, 0] = 0.5
    kinds = [
        lambda: np.diag(rng.standard_normal(n)),
        lambda: np.zeros((n, n)),
        lambda: one_pair,
        lambda: _cmaes_shaped(rng, n, max(1, n // 3)),
        lambda: _random_spd(rng, n),
        lambda: np.eye(n),
    ]
    return [kinds[i % len(kinds)]() for i in range(count)]


def _assert_each_matches_reference(mats, found, k):
    assert len(found) == len(mats)
    for s, item in zip(mats, found):
        ref_values, ref_vectors = _reference_sym_eig(s, k)
        values, vectors = item
        assert values.tobytes() == ref_values.tobytes()
        assert vectors.tobytes() == ref_vectors.tobytes()
        assert vectors.flags.c_contiguous and vectors.shape == (s.shape[0], k)


@pytest.mark.parametrize("count", [1, linalg._STACK_MIN - 1, linalg._STACK_MIN,
                                   2 * linalg._STACK_MIN + 5])
@pytest.mark.parametrize("n, k", [(5, 5), (16, 16), (16, 4)])
def test_sym_eig_many_matches_the_reference_per_matrix(monkeypatch, count, n, k):
    stacked = []
    real = linalg._sym_eig_stacked
    monkeypatch.setattr(linalg, "_sym_eig_stacked",
                        lambda mats, k: stacked.append(len(mats)) or real(mats, k))
    mats = _mixed_stack(np.random.default_rng(400 + count + n + k), n, count)
    _assert_each_matches_reference(mats, linalg.sym_eig_many(mats, k), k)
    assert stacked == ([count] if count >= linalg._STACK_MIN else [])


@pytest.mark.parametrize("count", [1, 2, 7])
def test_stacked_kernel_matches_the_reference_below_the_threshold(count):
    # the stack size only picks the faster kernel; both give the same bits
    mats = _mixed_stack(np.random.default_rng(500 + count), 16, count)
    _assert_each_matches_reference(mats, linalg._sym_eig_stacked(mats, 16), 16)


def _single_outcome(s, k):
    try:
        return sym_eig(s, k)
    except (ContractViolation, ConvergenceFailure) as exc:
        return exc


def _assert_same_failures(mats, found, k):
    for s, item in zip(mats, found):
        expected = _single_outcome(s, k)
        if isinstance(expected, Exception):
            assert type(item) is type(expected) and str(item) == str(expected)
        else:
            assert expected[0].tobytes() == item[0].tobytes()
            assert expected[1].tobytes() == item[1].tobytes()


@pytest.mark.parametrize("count", [6, 2 * linalg._STACK_MIN])
def test_sweep_cap_fails_only_the_matrices_that_need_more_sweeps(monkeypatch, count):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    mats = _mixed_stack(np.random.default_rng(600 + count), 8, count)
    found = linalg.sym_eig_many(mats, 8)
    failed = [i for i, item in enumerate(found) if isinstance(item, ConvergenceFailure)]
    # the CMA-ES shaped and the SPD matrices need more than one sweep
    assert failed == [i for i in range(count) if i % 6 in (3, 4)]
    assert all("Jacobi sweep cap reached" in str(found[i]) for i in failed)
    _assert_same_failures(mats, found, 8)


@pytest.mark.parametrize("count", [5, 2 * linalg._STACK_MIN + 1])
def test_bad_matrices_in_a_stack_fail_alone(count):
    rng = np.random.default_rng(700 + count)
    mats = _mixed_stack(rng, 6, count)
    mats[1] = np.full((6, 6), np.nan)
    mats[3] = _random_spd(rng, 6)
    mats[3][0, 5] += 1.0
    found = linalg.sym_eig_many(mats, 6)
    assert isinstance(found[1], ContractViolation) and "non-finite" in str(found[1])
    assert isinstance(found[3], ContractViolation) and "not symmetric" in str(found[3])
    _assert_same_failures(mats, found, 6)
    good = [i for i in range(count) if i not in (1, 3)]
    _assert_each_matches_reference([mats[i] for i in good], [found[i] for i in good], 6)
