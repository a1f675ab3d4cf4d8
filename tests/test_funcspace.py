import numpy as np
import pytest

from eigenbreak.funcspace import (
    GridFunction,
    fourier_basis,
    inner_product,
    midpoint_nodes,
    project,
    synthesize,
)


def test_order_one_basis_is_the_constant():
    basis = fourier_basis(1, 8)
    assert basis.eval_matrix.shape == (8, 1)
    np.testing.assert_array_equal(basis.eval_matrix[:, 0], np.ones(8))


def test_second_column_is_scaled_sine():
    basis = fourier_basis(3, 16)
    row = basis.evaluate([0.25])
    assert row[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert row[0, 2] == pytest.approx(0.0, abs=1e-12)  # sqrt(2)*cos(pi/2)


def test_discrete_gram_matrix_is_identity():
    basis = fourier_basis(21, 200)
    # direct quadrature oracle, entry by entry
    for k in range(21):
        for l in range(21):
            f = GridFunction(basis.eval_matrix[:, k])
            g = GridFunction(basis.eval_matrix[:, l])
            assert abs(inner_product(f, g) - (1.0 if k == l else 0.0)) <= 1e-10


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


def test_inner_product_constants():
    one = GridFunction(np.ones(50))
    assert inner_product(one, one) == pytest.approx(1.0)


def test_inner_product_trig_identities():
    basis = fourier_basis(5, 200)
    f2 = GridFunction(basis.eval_matrix[:, 1])
    f3 = GridFunction(basis.eval_matrix[:, 2])
    assert inner_product(f2, f2) == pytest.approx(1.0, abs=1e-10)
    assert inner_product(f2, f3) == pytest.approx(0.0, abs=1e-10)


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError, match="grid sizes"):
        inner_product(GridFunction(np.ones(8)), GridFunction(np.ones(16)))


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


def test_project_recovers_basis_function():
    basis = fourier_basis(41, 365)
    positions = (np.arange(1, 366) - 0.5) / 365
    samples = basis.evaluate(positions)[:, 2]
    coeffs = project(samples, positions, basis)
    expected = np.zeros(41)
    expected[2] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-8)


def test_project_constant_samples():
    basis = fourier_basis(5, 32)
    positions = np.linspace(0.01, 0.99, 40)
    coeffs = project(np.full(40, 3.5), positions, basis)
    expected = np.zeros(5)
    expected[0] = 3.5
    np.testing.assert_allclose(coeffs, expected, atol=1e-10)


def test_project_underdetermined():
    basis = fourier_basis(5, 32)
    positions = np.linspace(0.1, 0.9, 4)
    with pytest.raises(ValueError, match="at least"):
        project(np.ones(4), positions, basis)


def test_project_positions_outside_unit_interval():
    basis = fourier_basis(3, 16)
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        project(np.ones(5), np.array([0.0, 0.2, 0.4, 0.6, 1.2]), basis)


def test_roundtrip_and_parseval():
    rng = np.random.default_rng(7)
    basis = fourier_basis(21, 200)
    nodes = midpoint_nodes(200)
    for _ in range(5):
        coeffs = rng.standard_normal(21)
        grid = synthesize(coeffs, basis)
        # Parseval: quadrature norm equals the coefficient norm
        assert inner_product(grid, grid) == pytest.approx(coeffs @ coeffs, abs=1e-10)
        back = project(grid.values, nodes, basis)
        np.testing.assert_allclose(back, coeffs, atol=1e-10)


def test_grid_function_validation():
    with pytest.raises(ValueError, match="finite"):
        GridFunction(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError, match="at least 2"):
        GridFunction(np.array([1.0]))
