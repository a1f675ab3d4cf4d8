import numpy as np
import pytest

from eigenbreak.datagen import (
    DGPSpec,
    apply_eigenvalue_break,
    apply_rotation_break,
    default_tau,
    fma1_psi,
    generate,
)
from eigenbreak.eigensys import aligned_distance_sq, eigendecompose
from reference import population_kernels, rotation_matrix


def test_generation_is_deterministic():
    spec = DGPSpec(N=50, seed=123, dependence="fma1", break_kind="rotation", magnitude=0.4)
    a = generate(spec)
    b = generate(spec)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_iid_coefficient_covariance():
    spec = DGPSpec(N=20000, T=9, seed=2024)
    coeffs = generate(spec).coeffs
    tau = default_tau(9)
    cov = coeffs.T @ coeffs / 20000
    variances = np.outer(tau, tau) + 2.0 * np.diag(tau**2)
    bound = 3.0 * np.sqrt(variances / 20000)
    assert np.all(np.abs(cov - np.diag(tau)) <= bound)


def test_ma_coefficient_calibration():
    # E sum |Psi_ij| with Psi_ij ~ N(0, psi) should be one
    t = 21
    psi = fma1_psi(t)
    rng = np.random.default_rng(99)
    draws = [np.abs(rng.normal(0.0, np.sqrt(psi), (t, t))).sum() for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(1.0, abs=3.0 * np.std(draws) / np.sqrt(4000))


def test_ma_filter_conditional_covariance():
    # with the mixing matrix held fixed, the marginal coefficient covariance
    # is (diag(tau) + Psi diag(tau) Psi') / (1 + psi)
    t = 4
    tau = default_tau(t)
    psi = 0.5
    rng = np.random.default_rng(31)
    ma_matrix = rng.normal(0.0, np.sqrt(psi), (t, t))
    n = 60000
    eps = rng.standard_normal((n + 1, t)) * np.sqrt(tau)
    coeffs = (eps[1:] + eps[:-1] @ ma_matrix.T) / np.sqrt(1.0 + psi)
    expected = (np.diag(tau) + ma_matrix @ np.diag(tau) @ ma_matrix.T) / (1.0 + psi)
    cov = coeffs.T @ coeffs / n
    assert np.all(np.abs(cov - expected) <= 4.0 * np.abs(expected).max() / np.sqrt(n) * 3.0 + 3e-3)


def test_ma_lag_structure():
    # an order-one moving average has nonzero lag-1 and zero lag-2 covariance
    t = 4
    tau = default_tau(t)
    psi = 0.5
    rng = np.random.default_rng(47)
    ma_matrix = rng.normal(0.0, np.sqrt(psi), (t, t))
    n = 60000
    eps = rng.standard_normal((n + 1, t)) * np.sqrt(tau)
    coeffs = (eps[1:] + eps[:-1] @ ma_matrix.T) / np.sqrt(1.0 + psi)
    lag1 = coeffs[1:].T @ coeffs[:-1] / (n - 1)
    lag2 = coeffs[2:].T @ coeffs[:-2] / (n - 2)
    expected_lag1 = ma_matrix @ np.diag(tau) / (1.0 + psi)
    # noise scale of a sample cross-moment entry, from the realized variances
    marginal = coeffs.var(axis=0)
    tol = 4.0 * np.sqrt(np.outer(marginal, marginal) / n)
    assert np.all(np.abs(lag1 - expected_lag1) <= tol)
    assert np.all(np.abs(lag2) <= tol)
    assert np.linalg.norm(lag1) > 5 * np.linalg.norm(lag2)


def test_eigenvalue_break_limits():
    coeffs = generate(DGPSpec(N=30, T=5, seed=8)).coeffs
    unchanged = apply_eigenvalue_break(coeffs, 0.0, 0.5)
    np.testing.assert_array_equal(unchanged, coeffs)
    zeroed = apply_eigenvalue_break(coeffs, 1.0, 0.5)
    np.testing.assert_array_equal(zeroed[15:, :4], np.zeros((15, 4)))
    np.testing.assert_array_equal(zeroed[:15], coeffs[:15])


def test_eigenvalue_break_post_variance():
    spec = DGPSpec(N=20000, T=5, seed=77, break_kind="eigenvalue_shift", magnitude=0.1)
    coeffs = generate(spec).coeffs
    post = coeffs[10000:, 0]
    target = (1.0 - np.sqrt(0.1)) * 1.0
    se = np.sqrt(2.0 / 10000) * target
    assert post.var() == pytest.approx(target, abs=3.0 * se)


def test_rotation_break_quarter_turn():
    coeffs = generate(DGPSpec(N=10, T=5, seed=3)).coeffs
    rotated = apply_rotation_break(coeffs, np.pi / 2, 0.5)
    np.testing.assert_allclose(rotated[5:, 0], -coeffs[5:, 1], atol=1e-15)
    np.testing.assert_allclose(rotated[5:, 1], coeffs[5:, 0], atol=1e-15)
    np.testing.assert_array_equal(rotated[:5], coeffs[:5])


def test_rotation_preserves_row_norms():
    coeffs = generate(DGPSpec(N=40, T=7, seed=5)).coeffs
    rotated = apply_rotation_break(coeffs, 1.234, 0.3)
    np.testing.assert_allclose(
        np.linalg.norm(rotated, axis=1),
        np.linalg.norm(coeffs, axis=1),
        rtol=1e-12,
    )


def test_rotation_population_eigenfunctions():
    phi = np.pi / 8
    c1, c2 = population_kernels(DGPSpec(N=10, break_kind="rotation", magnitude=phi))
    _, f1 = eigendecompose(c1, 1.0, 1)
    _, f2 = eigendecompose(c2, 1.0, 1)
    dist_sq = aligned_distance_sq(f1[0], f2[0])
    assert dist_sq == pytest.approx(2.0 - 2.0 * np.cos(phi), abs=1e-9)


def test_rotation_matrix_is_orthogonal():
    rot = rotation_matrix(6, 0.7)
    np.testing.assert_allclose(rot @ rot.T, np.eye(6), atol=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError, match="at least 4"):
        DGPSpec(N=3)
    with pytest.raises(ValueError, match="odd"):
        DGPSpec(N=10, T=4)
    with pytest.raises(ValueError, match="dependence"):
        DGPSpec(N=10, dependence="ar1")
    with pytest.raises(ValueError, match="break kind"):
        DGPSpec(N=10, break_kind="mean_shift")
    with pytest.raises(ValueError, match="magnitude"):
        DGPSpec(N=10, break_kind="eigenvalue_shift", magnitude=1.5)
    with pytest.raises(ValueError, match="non-increasing"):
        DGPSpec(N=10, T=3, tau=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        DGPSpec(N=10, seed=-1)
