import numpy as np
import pytest

from eigenbreak.funcspace import GridFunction, _least_squares, fourier_basis, synthesize


def test_order_one_basis_is_the_constant():
    basis = fourier_basis(1, 8)
    assert basis.eval_matrix.shape == (8, 1)
    np.testing.assert_array_equal(basis.eval_matrix[:, 0], np.ones(8))


def test_second_column_is_scaled_sine():
    basis = fourier_basis(3, 6)
    row = basis.eval_matrix[[1]]  # the node (2 - 1/2) / 6 = 0.25
    assert row[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert row[0, 2] == pytest.approx(0.0, abs=1e-12)  # sqrt(2)*cos(pi/2)


def test_discrete_gram_matrix_is_identity():
    basis = fourier_basis(21, 200)
    # direct quadrature oracle, entry by entry
    for k in range(21):
        for l in range(21):
            f, g = basis.eval_matrix[:, k], basis.eval_matrix[:, l]
            assert abs(float(f @ g) / 200 - (1.0 if k == l else 0.0)) <= 1e-10


def test_basis_is_shared_and_read_only():
    basis = fourier_basis(21, 200)
    assert fourier_basis(21, 200) is basis
    with pytest.raises(ValueError, match="read-only"):
        basis.eval_matrix[0, 0] = 2.0
    assert basis.eval_matrix[0, 0] == 1.0


def test_order_validation():
    with pytest.raises(ValueError, match="odd"):
        fourier_basis(4, 64)
    with pytest.raises(ValueError, match="resolve"):
        fourier_basis(21, 30)
    with pytest.raises(ValueError):
        fourier_basis(1, 1)


def test_synthesize_unit_vectors():
    basis = fourier_basis(7, 32)
    e1 = np.zeros(7)
    e1[0] = 1.0
    np.testing.assert_allclose(synthesize(e1, basis).values, np.ones(32))
    np.testing.assert_array_equal(synthesize(np.zeros(7), basis).values, np.zeros(32))


def test_synthesize_length_mismatch():
    basis = fourier_basis(7, 32)
    with pytest.raises(ValueError, match="length"):
        synthesize(np.ones(6), basis)


def test_least_squares_solves_each_column_of_a_matrix():
    rng = np.random.default_rng(11)
    design = fourier_basis(41, 365).eval_matrix
    samples = rng.standard_normal((365, 30)) * 10.0 + 5.0
    coeffs = _least_squares(design, samples)
    assert coeffs.shape == (41, 30)
    columns = np.column_stack([_least_squares(design, column) for column in samples.T])
    assert np.max(np.abs(coeffs - columns)) <= 1e-13 * np.max(np.abs(columns))


def test_least_squares_counts_rows_of_a_matrix():
    design = fourier_basis(5, 32).eval_matrix[:4]
    # 4 rows of 3 columns hold 12 values, still too few rows for 5 coefficients
    with pytest.raises(ValueError, match="projection needs at least 5 samples, got 4"):
        _least_squares(design, np.ones((4, 3)))


def test_least_squares_refuses_a_rank_deficient_matrix_design():
    design = np.repeat(fourier_basis(5, 32).eval_matrix[:1], 10, axis=0)
    with pytest.raises(ValueError, match=r"rank-deficient \(rank 1 < order 5\)"):
        _least_squares(design, np.ones((10, 3)))


def test_roundtrip_and_parseval():
    rng = np.random.default_rng(7)
    basis = fourier_basis(21, 200)
    for _ in range(5):
        coeffs = rng.standard_normal(21)
        grid = synthesize(coeffs, basis)
        # Parseval: quadrature norm equals the coefficient norm
        assert float(grid.values @ grid.values) / 200 == pytest.approx(coeffs @ coeffs, abs=1e-10)
        back = _least_squares(basis.eval_matrix, grid.values)
        np.testing.assert_allclose(back, coeffs, atol=1e-10)


def test_grid_function_validation():
    with pytest.raises(ValueError, match="finite"):
        GridFunction(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError, match="at least 2"):
        GridFunction(np.array([1.0]))
