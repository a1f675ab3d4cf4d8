import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenbreak import changepoint
from eigenbreak.changepoint import (
    _block_len,
    estimate_changepoint,
    objective_curve,
    search_range,
)
from eigenbreak.covkern import SplitSample
from eigenbreak.datagen import DGPSpec, generate
from eigenbreak.funcspace import fourier_basis
from eigenbreak.selfnorm import NuMeasure, sequential_eigensystem_paths
from reference import cusum_objective, population_kernels

# exact identities of the objective; few derandomized examples keep them cheap
PROPERTY = settings(derandomize=True, max_examples=15, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
FORMS = ("blocked", "gram")


@st.composite
def samples(draw, form):
    """(N, R) sample scanned by the given form, with the scan's block budget.

    Blocked samples (N > R(R+1)/2) are scanned by the blocked recursion in
    blocks of b rows, b = sqrt(SCAN_BLOCK_BYTES / 64); they span at least two
    full blocks and end in a ragged one.  Gram samples use the default budget.
    """
    r = draw(st.integers(1, 5) if form == "blocked" else st.integers(3, 6))
    n_feat = r * (r + 1) // 2
    if form == "blocked":
        rows = draw(st.integers(2, 8))
        full = draw(st.integers(n_feat // rows + 2, n_feat // rows + 4))
        n = full * rows + draw(st.integers(1, rows - 1)) + 1
        block_bytes = 64 * rows * rows
    else:
        n = draw(st.integers(4, n_feat))
        block_bytes = changepoint.SCAN_BLOCK_BYTES
    rng = np.random.default_rng(draw(SEEDS))
    return rng.standard_normal((n, r)), block_bytes


def scan(values, block_bytes):
    """objective_curve with the scan's block budget set to block_bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(changepoint, "SCAN_BLOCK_BYTES", block_bytes)
        return objective_curve(values, mode="coeff")


# the packed-feature scan that the blocked recursion replaced, copied
# verbatim as its oracle
def reference_packed_distances(values: np.ndarray) -> np.ndarray:
    """||S_k/k - (S-S_k)/(N-k)||_F^2 for k = 1..N-1 over packed upper-triangle features.

    Observation n contributes the features values[n,a] * values[n,b], a <= b;
    off-diagonal features count twice in the Frobenius norm.  Features are
    laid out one row per feature so every pass runs along contiguous memory,
    and the prefix sum S_k is carried from one block of observations to the
    next.
    """
    n, r = values.shape
    rows, cols = np.triu_indices(r)
    n_feat = rows.size
    weights = np.where(rows == cols, 1.0, 2.0)
    total = (values.T @ values)[rows, cols][:, None]
    step = _block_len(8 * n_feat)
    head = np.empty((n_feat, min(step, n - 1)))
    tail = np.empty_like(head)
    carry = np.zeros(n_feat)
    dist = np.empty(n - 1)
    for start in range(0, n - 1, step):
        stop = min(start + step, n - 1)
        h, t = head[:, : stop - start], tail[:, : stop - start]
        block = values[start:stop].T
        offset = 0
        for a in range(r):
            np.multiply(block[a], block[a:], out=h[offset : offset + r - a])
            offset += r - a
        h[:, 0] += carry
        np.cumsum(h, axis=1, out=h)
        carry = h[:, -1].copy()
        ks = np.arange(start + 1, stop + 1, dtype=float)
        np.subtract(total, h, out=t)
        t /= n - ks
        h /= ks
        h -= t
        h *= h
        np.matmul(weights, h, out=dist[start:stop])
    return dist


def test_identical_observations_give_zero_objective():
    values = np.tile(np.array([1.0, -2.0, 0.5]), (12, 1))
    curve = objective_curve(values, mode="coeff")
    np.testing.assert_allclose(curve, np.zeros(11), atol=1e-15)
    # four rows of three features are scanned in Gram form, whose expanded
    # squares cancel only to rounding; the clamp keeps the result non-negative
    values = np.tile(np.array([0.3, 0.7, -1.1]), (4, 1))
    curve = objective_curve(values, mode="coeff")
    assert (curve >= 0.0).all()
    np.testing.assert_allclose(curve, np.zeros(3), atol=1e-13)


def test_streaming_matches_brute_force(monkeypatch):
    # N <= 6 is scanned in Gram form, larger N by the blocked recursion; the
    # one-observation blocks exercise the carry between blocks
    for block_bytes in (changepoint.SCAN_BLOCK_BYTES, 1):
        monkeypatch.setattr(changepoint, "SCAN_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(29)
        for n in range(4, 21):
            values = rng.standard_normal((n, 3))
            curve = objective_curve(values, mode="coeff")
            for k in range(1, n):
                assert curve[k - 1] == pytest.approx(cusum_objective(values, k), abs=1e-12)


@pytest.mark.parametrize("n", [600, 2000])
def test_blocked_scan_matches_packed_oracle(n):
    # generated replicates with a break, scanned by the blocked recursion
    # (128-row blocks) and by the packed-feature oracle
    ks = np.arange(1, n)
    for rep in range(8):
        for kind, magnitude in (("eigenvalue_shift", 0.1), ("rotation", np.pi / 4)):
            rng = np.random.default_rng(np.random.SeedSequence((53, n, rep)))
            coeffs = generate(DGPSpec(N=n, break_kind=kind, magnitude=magnitude), rng).coeffs
            oracle = ks * (n - ks) / n**2 * reference_packed_distances(coeffs)
            curve = objective_curve(coeffs)
            np.testing.assert_allclose(curve, oracle, rtol=1e-10, atol=1e-10 * oracle.max())
            for epsilon in (0.05, 0.01):
                lo, hi = search_range(n, epsilon)
                k_oracle = lo + int(np.argmax(oracle[lo - 1 : hi]))
                assert estimate_changepoint(coeffs, epsilon).k_hat == k_oracle


def test_deterministic_population_break_is_located_exactly():
    # noiseless observations: each period of R rows is the scaled eigenvectors
    # sqrt(R tau_i) v_i of c1 (mean outer product exactly c1), then of c2;
    # 2R + 2R rows are scanned by the blocked recursion at R=5 and in Gram form at R=21
    for order in (5, 21):
        spec = DGPSpec(N=40, T=order, break_kind="eigenvalue_shift", magnitude=0.9)
        periods = []
        for kernel in population_kernels(spec):
            tau, vectors = np.linalg.eigh(kernel)
            periods.append((np.sqrt(order * tau) * vectors).T)
        values = np.vstack([periods[0]] * 2 + [periods[1]] * 2)
        curve = objective_curve(values)
        assert int(np.argmax(curve)) + 1 == 2 * order


def test_estimate_respects_search_bounds():
    rng = np.random.default_rng(31)
    values = rng.standard_normal((400, 5))
    est = estimate_changepoint(values, 0.05)
    assert 20 <= est.k_hat <= 380
    assert est.theta_hat == pytest.approx(est.k_hat / 400)
    assert est.ks[0] == 20 and est.ks[-1] == 380


def test_epsilon_zero_searches_all_splits():
    values = np.random.default_rng(3).standard_normal((10, 2))
    est = estimate_changepoint(values, 0.0)
    assert est.ks[0] == 1 and est.ks[-1] == 9


def test_search_range_guard():
    assert search_range(400, 0.05) == (20, 380)
    assert search_range(10, 0.0) == (1, 9)
    with pytest.raises(ValueError, match="trim"):
        search_range(10, 0.5)


def test_search_range_refuses_a_trim_that_leaves_no_split():
    assert search_range(8, 0.49) == (4, 4)
    with pytest.raises(ValueError, match=r"epsilon=0\.49 leaves no split of N=9 observations"):
        search_range(9, 0.49)


def test_estimate_validation():
    with pytest.raises(ValueError, match="at least 4"):
        estimate_changepoint(np.ones((3, 2)), 0.05)


def test_estimate_refuses_a_sample_with_a_nan():
    # the scan would otherwise return a split with a nan objective
    values = np.random.default_rng(3).standard_normal((60, 21))
    values[17, 4] = np.nan
    with pytest.raises(ValueError, match="sample row 17 "):
        estimate_changepoint(values, 0.05)
    with pytest.raises(ValueError, match="sample row 17 "):
        objective_curve(values)


@PROPERTY
@given(data=st.data())
def test_blocked_scan_matches_oracle_across_ragged_blocks(data):
    values, block_bytes = data.draw(samples("blocked"))
    n = values.shape[0]
    ks = np.arange(1, n)
    oracle = ks * (n - ks) / n**2 * reference_packed_distances(values)
    np.testing.assert_allclose(scan(values, block_bytes), oracle,
                               rtol=1e-10, atol=1e-10 * oracle.max())


@PROPERTY
@given(data=st.data())
def test_objective_is_sign_invariant(data):
    for form in FORMS:
        values, block_bytes = data.draw(samples(form))
        flips = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                            min_size=len(values), max_size=len(values))))
        np.testing.assert_array_equal(
            scan(values, block_bytes),
            scan(flips[:, None] * values, block_bytes),
        )


@PROPERTY
@given(data=st.data())
def test_objective_is_invariant_under_orthogonal_basis_change(data):
    for form in FORMS:
        values, block_bytes = data.draw(samples(form))
        rng = np.random.default_rng(data.draw(SEEDS))
        q, _ = np.linalg.qr(rng.standard_normal((values.shape[1],) * 2))
        curve = scan(values, block_bytes)
        np.testing.assert_allclose(scan(values @ q, block_bytes), curve,
                                   rtol=1e-10, atol=1e-10 * curve.max())


@PROPERTY
@given(data=st.data(), scale=st.floats(0.1, 10.0))
def test_objective_scales_with_fourth_power(data, scale):
    for form in FORMS:
        values, block_bytes = data.draw(samples(form))
        curve = scan(values, block_bytes)
        np.testing.assert_allclose(scan(scale * values, block_bytes), scale**4 * curve,
                                   rtol=1e-10, atol=1e-10 * scale**4 * curve.max())


@PROPERTY
@given(n=st.integers(7, 28), grid=st.integers(7, 12), seed=SEEDS)
def test_coeff_and_grid_modes_agree_on_fourier_samples(n, grid, seed):
    # order 3 has 6 packed features, so the coefficients are scanned by the
    # blocked recursion and their grid values (at least 28 packed features)
    # in Gram form
    coeffs = np.random.default_rng(seed).standard_normal((n, 3))
    values = coeffs @ fourier_basis(3, grid).eval_matrix.T
    curve = objective_curve(coeffs, mode="coeff")
    np.testing.assert_allclose(objective_curve(values, mode="grid"), curve,
                               rtol=1e-10, atol=1e-10 * curve.max())


@pytest.mark.parametrize("shape, mode", [
    ((2000, 21), "coeff"),
    ((400, 200), "grid"),
    ((2000, 365), "grid"),
])
def test_objective_memory_is_bounded(shape, mode):
    # an (N, R, R) array of outer products would take N*R^2*8 bytes:
    # 7 MB, 128 MB and 2.1 GB here
    values = np.random.default_rng(43).standard_normal(shape)
    tracemalloc.start()
    try:
        objective_curve(values, mode=mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_eigen_path_memory_is_bounded():
    # a stack of the 20 prefix kernels of one segment takes 20*R^2*8 bytes,
    # 6.4 MB at R=200; its prefixes shorter than R take the Gram form instead
    values = np.random.default_rng(44).standard_normal((400, 200))
    split = SplitSample.at_index(values, 200, mode="grid")
    tracemalloc.start()
    try:
        sequential_eigensystem_paths(split, 1, NuMeasure(20), functions=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_wider_trim_never_attains_more():
    rng = np.random.default_rng(41)
    for _ in range(5):
        values = rng.standard_normal((60, 3))
        wide = estimate_changepoint(values, 0.02)
        narrow = estimate_changepoint(values, 0.2)
        assert narrow.objective.max() <= wide.objective.max() + 1e-15


def test_smallest_argmax_tie_break():
    # two identical blocks around the middle: f is symmetric, argmax ties
    values = np.vstack([np.full((4, 2), 2.0), np.full((4, 2), -1.0)])
    est = estimate_changepoint(values, 0.0)
    curve = objective_curve(values)
    ties = np.nonzero(np.isclose(curve, curve.max()))[0] + 1
    assert est.k_hat == ties[0]


def test_changepoint_accuracy_on_planted_break():
    errors = []
    for rep in range(150):
        rng = np.random.default_rng(np.random.SeedSequence((97, rep)))
        series = generate(
            DGPSpec(N=400, break_kind="eigenvalue_shift", magnitude=0.5), rng
        )
        est = estimate_changepoint(series.coeffs, 0.05)
        errors.append(abs(est.theta_hat - 0.5))
    assert np.median(errors) <= 0.02
