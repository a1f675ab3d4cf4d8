from dataclasses import fields

import numpy as np
import pytest

from eigenbreak.covkern import SplitSample, as_matrix, mode_weight, prefix_count, prefix_moments
from eigenbreak.datagen import DGPSpec
from eigenbreak.funcspace import fourier_basis
from reference import kernel_distance_sq, population_kernels

TAU = 1.0 / np.arange(1, 22) ** 2


def brute_force_kernel(values, m):
    """Entrywise averaged outer products, written as plain loops."""
    r = values.shape[1]
    out = np.zeros((r, r))
    for n in range(m):
        for i in range(r):
            for j in range(r):
                out[i, j] += values[n, i] * values[n, j]
    return out / m


def test_single_function_rank_one():
    x = np.array([[1.0, 2.0, -1.0]])
    np.testing.assert_allclose(prefix_moments(x, [1])[0], np.outer(x[0], x[0]))
    assert mode_weight("grid", 3) == pytest.approx(1.0 / 3.0)


def test_small_lambda_gives_zero_kernel():
    rng = np.random.default_rng(0)
    segment = rng.standard_normal((5, 4))
    matrix = prefix_moments(segment, [prefix_count(5, 0.19)])[0]
    np.testing.assert_array_equal(matrix, np.zeros((4, 4)))


def test_empty_segment_rejected():
    with pytest.raises(ValueError, match="must be nonempty"):
        SplitSample(pre=np.empty((0, 3)), post=np.ones((2, 3)))


def test_full_kernel_matches_brute_force_exactly():
    rng = np.random.default_rng(42)
    segment = rng.standard_normal((50, 5)) * np.sqrt(1.0 / np.arange(1, 6) ** 2)
    matrix = prefix_moments(segment, [50])[0]
    np.testing.assert_allclose(matrix, brute_force_kernel(segment, 50), atol=1e-13)


def test_iid_kernel_near_population_within_mc_tolerance():
    tau5 = 1.0 / np.arange(1, 6) ** 2
    rng = np.random.default_rng(3)
    segment = rng.standard_normal((50, 5)) * np.sqrt(tau5)
    matrix = prefix_moments(segment, [50])[0]
    truth = np.diag(tau5)
    # Var(a_k a_l) = tau_k tau_l (+ 2 tau_k^2 on the diagonal)
    variances = np.outer(tau5, tau5) + 2.0 * np.diag(tau5**2)
    bound = 3.0 * np.sqrt(variances / 50)
    assert np.all(np.abs(matrix - truth) <= bound)


def test_prefix_count_floor_guard():
    # l/K with the segment length divisible by K must not lose a sample
    for n, K in ((40, 20), (300, 20), (123, 41)):
        for l in range(1, K):
            assert prefix_count(n, l / K) == (n * l) // K


def test_sequential_path_matches_single_lambda():
    rng = np.random.default_rng(11)
    segment = rng.standard_normal((37, 6))
    lams = [0.05, 0.3, 0.55, 1.0]
    path = prefix_moments(segment, [prefix_count(37, lam) for lam in lams])
    for lam, matrix in zip(lams, path):
        single = prefix_moments(segment, [prefix_count(37, lam)])[0]
        np.testing.assert_allclose(matrix, single, atol=1e-13)


def test_prefix_moments_match_brute_force_with_empty_and_repeated_counts():
    # a 3-row segment on the K=20 grid: 6 empty prefixes, repeats of 1 and 2, then 3
    segment = np.random.default_rng(4).standard_normal((3, 5))
    counts = [prefix_count(3, lam) for lam in np.append(np.arange(1, 20) / 20, 1.0)]
    assert counts[:7] == [0] * 6 + [1] and counts[-1] == 3
    path = prefix_moments(segment, counts)
    assert path.shape == (20, 5, 5)
    for m, matrix in zip(counts, path):
        expected = brute_force_kernel(segment, m) if m else np.zeros((5, 5))
        np.testing.assert_array_equal(matrix, expected)


def test_prefix_moments_reject_decreasing_or_oversized_counts():
    segment = np.ones((4, 2))
    with pytest.raises(ValueError, match="must not decrease"):
        prefix_moments(segment, [2, 1])
    with pytest.raises(ValueError, match="must not decrease"):
        prefix_moments(segment, [1, 5])


def test_distance_of_identical_kernels_is_zero():
    matrix = prefix_moments(np.random.default_rng(1).standard_normal((10, 4)), [10])[0]
    assert kernel_distance_sq(matrix, matrix, 1.0) == 0.0


def test_eigenvalue_shift_distance_closed_form():
    # difference kernel is sqrt(E) * sum_{k<=4} tau_k f_k x f_k, so the
    # squared distance is E * sum_{k<=4} tau_k^2 (printed as 1.07875 E)
    constant = float(np.sum(TAU[:4] ** 2))
    assert constant == pytest.approx(1.07875, abs=5e-6)
    for e in (0.1, 0.5, 1.0):
        c1, c2 = population_kernels(
            DGPSpec(N=10, break_kind="eigenvalue_shift", magnitude=e)
        )
        assert kernel_distance_sq(c1, c2, 1.0) == pytest.approx(constant * e, rel=1e-9)


def test_rotation_distance_closed_form():
    # rotating two eigendirections with eigenvalues tau1, tau2 by phi moves
    # the kernel by 2 (tau1 - tau2)^2 sin(phi)^2
    for phi in (np.pi / 8, np.pi / 4, np.pi / 2):
        c1, c2 = population_kernels(DGPSpec(N=10, break_kind="rotation", magnitude=phi))
        expected = 2.0 * (TAU[0] - TAU[1]) ** 2 * np.sin(phi) ** 2
        assert kernel_distance_sq(c1, c2, 1.0) == pytest.approx(expected, rel=1e-9)


def test_mode_equivalence_of_distances():
    rng = np.random.default_rng(9)
    basis = fourier_basis(11, 64)
    a = rng.standard_normal((20, 11))
    b = rng.standard_normal((20, 11))
    coeff = kernel_distance_sq(prefix_moments(a, [20])[0], prefix_moments(b, [20])[0],
                               mode_weight("coeff", 11))
    grid = kernel_distance_sq(prefix_moments(a @ basis.eval_matrix.T, [20])[0],
                              prefix_moments(b @ basis.eval_matrix.T, [20])[0],
                              mode_weight("grid", 64))
    assert grid == pytest.approx(coeff, abs=1e-8)


def test_split_sample_construction():
    values = np.arange(20.0).reshape(10, 2)
    split = SplitSample.at_index(values, 4)
    assert split.pre.shape == (4, 2)
    assert split.post.shape == (6, 2)
    assert [f.name for f in fields(split)] == ["pre", "post", "mode"]
    with pytest.raises(ValueError, match="split index"):
        SplitSample.at_index(values, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_refused_by_index(bad):
    values = np.arange(40.0).reshape(10, 4)
    values[6, 2] = bad
    values[8, 0] = bad
    for mode in ("coeff", "grid"):
        with pytest.raises(ValueError, match=r"sample row 6 \(counting from 0\) holds a non-finite"):
            as_matrix(values, mode)
        with pytest.raises(ValueError, match="sample row 6 "):
            SplitSample.at_index(values, 3, mode=mode)
    # built directly, the rows are numbered through pre, then post
    with pytest.raises(ValueError, match="sample row 6 "):
        SplitSample(pre=values[:5], post=values[5:])
    with pytest.raises(ValueError, match="sample row 0 "):
        SplitSample(pre=values[6:], post=values[:6])
