import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigenbreak
from eigenbreak.covkern import prefix_moments
from eigenbreak.eigensys import aligned_distance_sq, eigendecompose, gap_warning
from eigenbreak.funcspace import fourier_basis
from reference import kernel_distance_sq

TAU = 1.0 / np.arange(1, 22) ** 2


def test_zero_kernel_has_zero_spectrum():
    values, _ = eigendecompose(np.zeros((5, 5)), 1.0, 5)
    np.testing.assert_array_equal(values, np.zeros(5))


def test_diagonal_kernel_is_exact():
    values, functions = eigendecompose(np.diag([1.0, 0.25, 1.0 / 9.0]), 1.0, 3)
    np.testing.assert_allclose(values, [1.0, 0.25, 1.0 / 9.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.abs(functions), np.eye(3), atol=1e-15)


def test_grid_mercer_kernel_recovers_spectrum():
    basis = fourier_basis(21, 200)
    f = basis.eval_matrix
    values, functions = eigendecompose(f @ np.diag(TAU) @ f.T, 1.0 / 200, 21)
    np.testing.assert_allclose(values, TAU, atol=1e-8)
    for k in range(21):
        dist_sq = aligned_distance_sq(functions[k], f[:, k], weight=1.0 / 200)
        assert dist_sq <= 1e-12


def test_p_max_validation():
    with pytest.raises(ValueError, match="p_max"):
        eigendecompose(np.eye(4), 1.0, 5)
    with pytest.raises(ValueError, match="p_max"):
        eigendecompose(np.eye(4), 1.0, 0)


def test_aligned_distance_sign_invariance():
    v = np.zeros(6)
    v[0] = 1.0
    assert aligned_distance_sq(v, v) == 0.0
    assert aligned_distance_sq(v, -v) == 0.0
    u = np.zeros(6)
    u[3] = 1.0
    assert aligned_distance_sq(v, u) == pytest.approx(2.0)
    assert aligned_distance_sq(v, u) == aligned_distance_sq(u, v)


def test_aligned_distance_quarter_rotation():
    v = np.array([1.0, 0.0])
    phi = np.pi / 4
    u = np.array([np.cos(phi), np.sin(phi)])
    assert aligned_distance_sq(v, u) == pytest.approx(2.0 - np.sqrt(2.0))


def test_aligned_distance_sq_handles_zero_functions():
    v = np.zeros(3)
    u = np.array([1.0, 0.0, 0.0])
    assert aligned_distance_sq(v, u) == pytest.approx(1.0)
    assert aligned_distance_sq(v, v) == 0.0


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((8, 8))
    values, _ = eigendecompose(a @ a.T, 1.0, 8)
    assert values.sum() == pytest.approx(np.trace(a @ a.T), abs=1e-8)
    # grid mode: trace carries the quadrature weight
    g = rng.standard_normal((10, 10))
    grid_values, _ = eigendecompose(g @ g.T, 0.1, 10)
    assert grid_values.sum() == pytest.approx(0.1 * np.trace(g @ g.T), abs=1e-8)


def test_eigenvalues_are_lipschitz_in_the_kernel():
    # |tau_j(c1) - tau_j(c2)| <= ||c1 - c2|| for every j
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        c1, c2 = a @ a.T, b @ b.T
        bound = np.sqrt(kernel_distance_sq(c1, c2, 1.0))
        v1, _ = eigendecompose(c1, 1.0, 6)
        v2, _ = eigendecompose(c2, 1.0, 6)
        assert np.all(np.abs(v1 - v2) <= bound + 1e-12)


def test_eigenfunctions_are_quadrature_orthonormal():
    rng = np.random.default_rng(23)
    values = rng.standard_normal((40, 7))
    weight = 1.0 / 7  # grid mode on 7 nodes
    _, functions = eigendecompose(prefix_moments(values, [40])[0], weight, 7)
    gram = weight * functions @ functions.T
    np.testing.assert_allclose(gram, np.eye(7), atol=1e-8)


def test_unidentified_pairs_get_zero_eigenfunctions():
    # three centred rows span two dimensions: eigh returns arbitrary
    # null-space vectors for pairs 3..5, which must not reach the output
    values = np.random.default_rng(31).standard_normal((3, 5))
    _, functions = eigendecompose(prefix_moments(values - values.mean(axis=0), [3])[0], 1.0, 5)
    norms = np.sum(functions**2, axis=1)
    np.testing.assert_allclose(norms, [1.0, 1.0, 0.0, 0.0, 0.0], rtol=1e-12, atol=0.0)


def test_aligned_distance_range_on_random_unit_vectors():
    rng = np.random.default_rng(29)
    for _ in range(25):
        v = rng.standard_normal(9)
        u = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        u /= np.linalg.norm(u)
        dist_sq = aligned_distance_sq(v, u)
        assert 0.0 <= dist_sq <= 2.0 + 1e-12
        assert dist_sq == pytest.approx(aligned_distance_sq(-v, u), abs=1e-12)


def test_gap_warning_on_degenerate_pair():
    assert gap_warning(np.array([1.0, 1.0, 0.5]), 1) is not None
    assert gap_warning(np.array([1.0, 0.5, 0.25]), 2) is None
    with pytest.raises(ValueError, match="outside"):
        gap_warning(np.array([1.0]), 2)


#: run in a fresh interpreter: the modules loaded at start-up (site hooks
#: may load third-party packages) are the baseline, so only what importing
#: eigenbreak and one reduced-form grid path add is counted; modules with no
#: file, such as ``__mp_main__`` and Cython's ``cython_runtime``, are no packages
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import numpy as np
import eigenbreak, eigenbreak.cli
from eigenbreak.funcspace import fourier_basis
svd, calls = np.linalg.svd, []
np.linalg.svd = lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs)
values = np.random.default_rng(5).standard_normal((60, 5)) @ fourier_basis(5, 40).eval_matrix.T
split = eigenbreak.SplitSample.at_index(values, 30, mode="grid")
eigenbreak.diff_path(split, 1, eigenbreak.NuMeasure(20), "eigenfunction")
added = {name.partition(".")[0] for name in set(sys.modules) - before}
loaded = {name for name in added if getattr(sys.modules.get(name), "__file__", None)}
print(len(calls), *sorted(loaded - set(sys.stdlib_module_names)))
"""


def test_eigenbreak_loads_numpy_and_no_other_dependency():
    # a rank-5 grid sample at R=40 takes the SVD of the reduced form
    src = str(Path(eigenbreak.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[0] == "2"
    assert out[1:] == ["eigenbreak", "numpy"]
