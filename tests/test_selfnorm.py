import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenbreak import selfnorm
from eigenbreak.covkern import SplitSample
from eigenbreak.datagen import DGPSpec, generate, population_kernels
from eigenbreak.eigensys import aligned_distance, eigendecompose
from eigenbreak.funcspace import fourier_basis
from eigenbreak.selfnorm import (
    DiffPath,
    NuMeasure,
    PivotDistribution,
    decide,
    diff_path,
    eigenfunction_diff_path,
    eigenvalue_diff_path,
    cached_pivot,
    default_pivot,
    seed_pivot_cache,
    self_normalizer,
    sequential_eigensystem_paths,
    simulate_pivot,
)

NU = NuMeasure(20)
# exact identities of the method; few derandomized examples keep them cheap
PROPERTY = settings(derandomize=True, max_examples=15, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


def make_path(values, kind="eigenvalue", j=1):
    lambdas = np.append(NU.points, 1.0)
    return DiffPath(lambdas=lambdas, values=np.asarray(values, dtype=float), j=j, kind=kind)


def test_nu_measure_support():
    nu = NuMeasure(20)
    assert nu.points[0] == pytest.approx(0.05)
    assert nu.points[-1] == pytest.approx(0.95)
    assert nu.weights.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="K >= 2"):
        NuMeasure(1)


def test_identical_segments_give_zero_eigenvalue_path():
    row = np.array([1.0, -0.5, 0.25])
    values = np.tile(row, (16, 1))
    split = SplitSample(pre=values[:8], post=values[8:], theta_hat=0.5)
    path = diff_path(split, 1, NU, "eigenvalue")
    np.testing.assert_allclose(path.values, np.zeros(20), atol=1e-15)


def test_population_rotation_kernels_give_constant_path():
    # the noiseless sub-sample kernels coincide with the population kernels
    # at every lambda, so the squared-distance path is flat at 2 - 2 cos(phi)
    phi = np.pi / 8
    c1, c2 = population_kernels(DGPSpec(N=10, break_kind="rotation", magnitude=phi))
    s1 = eigendecompose(c1, 1)
    s2 = eigendecompose(c2, 1)
    dist_sq = aligned_distance(s1.eigenfunctions[0], s2.eigenfunctions[0]) ** 2
    path = make_path(np.full(20, dist_sq), kind="eigenfunction")
    np.testing.assert_allclose(path.values, 2.0 - 2.0 * np.cos(phi), atol=1e-12)
    assert self_normalizer(path, NU) == 0.0


def test_eigenvalue_statistic_is_consistent_by_monte_carlo():
    # true split, planted eigenvalue shift E = 0.1: the statistic estimates
    # E plus the sampling variance of the eigenvalue difference, which for
    # Gaussian coefficients is 2 tau1^2 (1/n1 + (1-sqrt(E))^2 / n2) to
    # leading order
    e_true = 0.1
    n = 600
    reps = 250
    stats = []
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((555, rep)))
        series = generate(DGPSpec(N=n, break_kind="eigenvalue_shift", magnitude=e_true), rng)
        split = SplitSample.at_index(series.coeffs, n // 2)
        path = diff_path(split, 1, NU, "eigenvalue")
        stats.append(path.statistic)
    stats = np.asarray(stats)
    tau2_post = 1.0 - np.sqrt(e_true)
    expected = e_true + 2.0 * (1.0 / (n // 2)) * (1.0 + tau2_post**2)
    se = stats.std(ddof=1) / np.sqrt(reps)
    assert abs(stats.mean() - expected) <= 3.0 * se


def test_self_normalizer_of_constant_path_is_zero():
    assert self_normalizer(make_path(np.full(20, 0.7)), NU) == 0.0


def test_self_normalizer_matches_direct_summation():
    # path(lambda) = lambda, so the sum can be written out directly
    values = np.append(NU.points, 1.0)
    path = make_path(values)
    total = 0.0
    for l in range(1, 20):
        lam = l / 20
        total += (1.0 / 19) * lam**4 * (lam - 1.0) ** 2
    assert self_normalizer(path, NU) == pytest.approx(np.sqrt(total), abs=1e-15)


def test_self_normalizer_grid_mismatch():
    path = DiffPath(lambdas=np.array([0.5, 1.0]), values=np.array([0.1, 0.2]), j=1, kind="eigenvalue")
    with pytest.raises(ValueError, match="support"):
        self_normalizer(path, NU)


def test_normalizer_strictly_positive_on_noisy_data():
    for rep in range(50):
        rng = np.random.default_rng(np.random.SeedSequence((77, rep)))
        series = generate(DGPSpec(N=100, break_kind="eigenvalue_shift", magnitude=0.3), rng)
        split = SplitSample.at_index(series.coeffs, 50)
        path = diff_path(split, 1, NU, "eigenvalue")
        assert self_normalizer(path, NU) > 0.0


@pytest.fixture(scope="module")
def pivot():
    return simulate_pivot(20, 50_000, 8)


def test_decide_at_the_threshold_retains(pivot):
    path = make_path(np.linspace(0.3, 0.2, 20))
    result = decide(path, 0.05, path.statistic, pivot, 0.05)
    assert result.ratio == pytest.approx(0.0)
    assert result.decision == "retain"


def test_decide_rejects_far_ratios(pivot):
    path = make_path(np.full(20, 2.0))
    # statistic 2.0, normalizer 0.05, delta 1.0 -> ratio 20 > q_{0.99}
    result = decide(path, 0.05, 1.0, pivot, 0.01)
    assert result.ratio == pytest.approx(20.0)
    assert result.decision == "reject"
    assert result.p_value > 0.99


def test_equivalence_mode_rejects_small_ratios(pivot):
    path = make_path(np.full(20, 1.0))
    result = decide(path, 0.05, 2.0, pivot, 0.05, mode="equivalence")
    assert result.ratio == pytest.approx(-20.0)
    assert result.decision == "reject"


def test_decide_monotone_in_delta(pivot):
    path = make_path(np.linspace(0.5, 0.4, 20))
    normalizer = self_normalizer(path, NU)
    decisions = [
        decide(path, normalizer, delta, pivot, 0.05).decision
        for delta in np.linspace(0.0, 1.0, 15)
    ]
    if "retain" in decisions:
        first_retain = decisions.index("retain")
        assert all(d == "retain" for d in decisions[first_retain:])


def test_zero_threshold_reduces_to_classical_ratio(pivot):
    path = make_path(np.linspace(0.5, 0.4, 20))
    normalizer = self_normalizer(path, NU)
    result = decide(path, normalizer, 0.0, pivot, 0.05)
    assert result.ratio == pytest.approx(path.statistic / normalizer)


def test_degenerate_normalizer_retains_with_warning(pivot):
    path = make_path(np.full(20, 5.0))
    result = decide(path, 0.0, 0.0, pivot, 0.05)
    assert result.decision == "retain"
    assert any("normalizer" in w for w in result.warnings)
    assert result.ratio is None and result.p_value is None


def test_decide_validation(pivot):
    path = make_path(np.full(20, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        decide(path, 1.0, -0.1, pivot, 0.05)
    with pytest.raises(ValueError, match="level"):
        decide(path, 1.0, 0.1, pivot, 1.5)
    with pytest.raises(ValueError, match="mode"):
        decide(path, 1.0, 0.1, pivot, 0.05, mode="both")


def test_pivot_is_reproducible_and_sorted():
    a = simulate_pivot(20, 30_000, 5)
    b = simulate_pivot(20, 30_000, 5)
    np.testing.assert_array_equal(a.sample, b.sample)
    assert np.all(np.diff(a.sample) >= 0)
    c = simulate_pivot(20, 30_000, 6)
    assert not np.array_equal(a.sample, c.sample)


def test_pivot_median_is_near_zero():
    sample = simulate_pivot(20, 200_000, 12)
    assert abs(np.median(sample.sample)) <= 0.02


def test_pivot_save_load_roundtrip(tmp_path, pivot):
    path = tmp_path / "pivot.csv"
    pivot.save(path)
    loaded = PivotDistribution.load(path)
    assert loaded.K == pivot.K
    assert loaded.R == pivot.R
    assert loaded.seed == pivot.seed
    for p in (0.05, 0.5, 0.9, 0.95, 0.99):
        assert loaded.quantile(p) == pytest.approx(pivot.quantile(p), rel=2e-3)
    x = pivot.quantile(0.9)
    assert loaded.prob_leq(x) == pytest.approx(0.9, abs=2e-3)
    # the cached quantiles, parsed line by line with float()
    lines = path.read_text().splitlines()[3:]
    expected = np.array([float(line.partition(",")[2]) for line in lines])
    assert loaded.sample.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text", [
    "# eigenbreak pivot quantile cache\n# K=20 R=100 seed=1\nprobability,quantile\n",
    "# eigenbreak pivot quantile cache\n# K=20 R=100\n\nprobability,quantile\n0.5,1.0\n",
    "probability,quantile\n0.5,1.0\n",
    "",
])
def test_pivot_load_refuses_a_file_without_metadata_or_values(tmp_path, text):
    path = tmp_path / "pivot.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="is not a pivot quantile cache"):
        PivotDistribution.load(path)


def test_pivot_validation():
    with pytest.raises(ValueError, match="R >= 1"):
        simulate_pivot(20, 0, 1)
    with pytest.raises(ValueError, match="K >= 2"):
        simulate_pivot(1, 10, 1)


def test_scale_equivariance_of_both_ratios(pivot):
    series = generate(DGPSpec(N=200, break_kind="rotation", magnitude=0.6, seed=15))
    split = SplitSample.at_index(series.coeffs, 100)
    scale = 2.5
    scaled = SplitSample.at_index(series.coeffs * scale, 100)

    fun_path = diff_path(split, 1, NU, "eigenfunction")
    fun_scaled = diff_path(scaled, 1, NU, "eigenfunction")
    ratio = decide(fun_path, self_normalizer(fun_path, NU), 0.1, pivot, 0.05).ratio
    ratio_scaled = decide(fun_scaled, self_normalizer(fun_scaled, NU), 0.1, pivot, 0.05).ratio
    assert ratio_scaled == pytest.approx(ratio, rel=1e-9)

    val_path = diff_path(split, 1, NU, "eigenvalue")
    val_scaled = diff_path(scaled, 1, NU, "eigenvalue")
    delta = 0.05
    r1 = decide(val_path, self_normalizer(val_path, NU), delta, pivot, 0.05).ratio
    r2 = decide(val_scaled, self_normalizer(val_scaled, NU), scale**4 * delta, pivot, 0.05).ratio
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_multi_index_paths_share_eigensystems():
    rng = np.random.default_rng(19)
    values = rng.standard_normal((80, 8))
    split = SplitSample.at_index(values, 40)
    paths = sequential_eigensystem_paths(split, 3, NU, with_functions=True)
    for j in (1, 2, 3):
        one = diff_path(split, j, NU, "eigenvalue")
        np.testing.assert_allclose(eigenvalue_diff_path(paths, j).values, one.values, atol=1e-12)
        one_fun = diff_path(split, j, NU, "eigenfunction")
        np.testing.assert_allclose(
            eigenfunction_diff_path(paths, j).values, one_fun.values, atol=1e-12
        )


def test_diff_path_index_validation():
    values = np.random.default_rng(1).standard_normal((20, 4))
    split = SplitSample.at_index(values, 10)
    with pytest.raises(ValueError, match="eigen index"):
        diff_path(split, 5, NU, "eigenvalue")
    with pytest.raises(ValueError, match="kind"):
        diff_path(split, 1, NU, "spectrum")


def test_single_observation_segment_degenerates_gracefully():
    values = np.random.default_rng(2).standard_normal((30, 4))
    split = SplitSample.at_index(values, 1)
    path = diff_path(split, 1, NU, "eigenfunction")
    # prefix counts of the one-point segment vanish for lambda < 1, so the
    # distance compares against the zero function there
    assert np.all(path.values >= 0.0)
    assert np.isfinite(path.statistic)


@pytest.mark.parametrize("mode, weight", [("coeff", 1.0), ("grid", 0.25)])
def test_empty_prefixes_give_zero_eigenpairs(mode, weight):
    values = np.random.default_rng(2).standard_normal((30, 4))
    paths = sequential_eigensystem_paths(SplitSample.at_index(values, 1, mode=mode), 1, NU)
    assert not paths.values1[:-1].any() and not paths.functions1[:-1].any()
    # the distance to a zero function is the squared norm of the other one
    path = eigenfunction_diff_path(paths, 1)
    np.testing.assert_allclose(path.values[:-1], np.ones(19), rtol=1e-12)
    assert paths.weight == weight


def test_gap_warning_propagates_to_result(pivot):
    base = np.random.default_rng(3).standard_normal((40, 2))
    # rank-2 data in 4 dimensions: eigenvalues 3 and 4 are both zero, so the
    # gap around index 3 is degenerate
    values = np.hstack([base, base[:, 1:], base[:, 1:]])
    split = SplitSample.at_index(values, 20)
    path = diff_path(split, 3, NU, "eigenvalue")
    assert any("gap" in w for w in path.warnings)
    result = decide(path, self_normalizer(path, NU), 0.1, pivot, 0.05)
    assert any("gap" in w for w in result.warnings)


def test_quantile_memo_returns_the_computed_quantile(tmp_path, pivot):
    pivot.save(tmp_path / "pivot.csv")
    loaded = PivotDistribution.load(tmp_path / "pivot.csv")
    probs = (0.95, 0.05, 0.95, 0.5, 0.05, 0.99, 0.95)
    for dist in (simulate_pivot(20, 30_000, 5), loaded):
        for p in probs:
            assert dist.quantile(p) == float(np.quantile(dist.sample, p))


def test_pivot_with_filled_memo_survives_pickle(pivot):
    probs = (0.01, 0.5, 0.95)
    before = [pivot.quantile(p) for p in probs]
    copy = pickle.loads(pickle.dumps(pivot))
    assert (copy.K, copy.R, copy.seed) == (pivot.K, pivot.R, pivot.seed)
    np.testing.assert_array_equal(copy.sample, pivot.sample)
    assert [copy.quantile(p) for p in probs] == before
    assert not copy.sample.flags.writeable


def test_pivot_sample_is_read_only(tmp_path, pivot):
    pivot.save(tmp_path / "pivot.csv")
    given_sample = np.sort(np.random.default_rng(4).standard_normal(100))
    direct = PivotDistribution(K=20, sample=given_sample, seed=0, r_total=100)
    for dist in (pivot, PivotDistribution.load(tmp_path / "pivot.csv"), direct):
        with pytest.raises(ValueError, match="read-only"):
            dist.sample[0] = 0.0
    # the pivot keeps its own copy: the caller's array stays writeable and
    # writing to it changes no memoized quantile
    q = direct.quantile(0.5)
    given_sample[:] = 0.0
    assert direct.quantile(0.5) == q == float(np.quantile(direct.sample, 0.5))


def test_one_process_cache_serves_every_pivot(monkeypatch):
    monkeypatch.setattr(selfnorm, "_PIVOTS", {})
    pivot = cached_pivot(3, 2_000, 9)
    assert cached_pivot(3, 2_000, 9) is pivot
    assert cached_pivot(3, 2_000, 10) is not pivot
    assert default_pivot(3) is cached_pivot(3)
    own = simulate_pivot(4, 1_000, 1)
    seed_pivot_cache(own)
    assert cached_pivot(4, 1_000, 1) is own


def test_pivot_cache_refuses_a_quantile_summary(tmp_path, pivot):
    pivot.save(tmp_path / "pivot.csv")
    with pytest.raises(ValueError, match="full simulated pivot"):
        seed_pivot_cache(PivotDistribution.load(tmp_path / "pivot.csv"))


@st.composite
def split_samples(draw, dims=st.integers(2, 4)):
    """(N, R) sample, its split index and an eigen index.

    Each segment's smallest sub-sample (lambda = 1/20) holds more than R
    observations, so its eigenfunctions are determined up to sign.
    """
    r = draw(dims)
    n1, n2 = (draw(st.integers(20 * (r + 1), 20 * (r + 1) + 60)) for _ in range(2))
    j = draw(st.integers(1, r - 1))
    values = np.random.default_rng(draw(SEEDS)).standard_normal((n1 + n2, r))
    return values, n1, j


def eigen_statistics(values, k, j, mode="coeff"):
    """Sequential eigenvalues and both difference paths with their normalizers."""
    split = SplitSample.at_index(values, k, mode=mode)
    paths = sequential_eigensystem_paths(split, j, NU)
    val = eigenvalue_diff_path(paths, j)
    fun = eigenfunction_diff_path(paths, j)
    return {
        "values1": paths.values1,
        "values2": paths.values2,
        "eigenvalue_path": val.values,
        "eigenvalue_path_without_functions": diff_path(split, j, NU, "eigenvalue").values,
        "eigenvalue_normalizer": self_normalizer(val, NU),
        "eigenfunction_path": fun.values,
        "eigenfunction_normalizer": self_normalizer(fun, NU),
    }


def assert_statistics_close(actual, expected, scales):
    for name, scale in scales.items():
        ref = np.asarray(expected[name]) * scale
        np.testing.assert_allclose(actual[name], ref, rtol=1e-10,
                                   atol=1e-10 * np.abs(ref).max(), err_msg=name)


UNCHANGED = dict.fromkeys(("values1", "values2", "eigenvalue_path",
                           "eigenvalue_path_without_functions", "eigenvalue_normalizer",
                           "eigenfunction_path", "eigenfunction_normalizer"), 1.0)


@PROPERTY
@given(sample=split_samples(), seed=SEEDS)
def test_eigen_statistics_are_invariant_under_orthogonal_basis_change(sample, seed):
    values, k, j = sample
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((values.shape[1],) * 2))
    assert_statistics_close(eigen_statistics(values @ q, k, j), eigen_statistics(values, k, j),
                            UNCHANGED)


@PROPERTY
@given(sample=split_samples(), data=st.data())
def test_eigen_statistics_are_invariant_under_sign_flips(sample, data):
    values, k, j = sample
    flips = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=len(values), max_size=len(values))))
    assert_statistics_close(eigen_statistics(flips[:, None] * values, k, j),
                            eigen_statistics(values, k, j), UNCHANGED)


@PROPERTY
@given(sample=split_samples(), c=st.floats(0.1, 10.0))
def test_eigen_statistics_scale_with_the_data(sample, c):
    values, k, j = sample
    assert_statistics_close(eigen_statistics(c * values, k, j), eigen_statistics(values, k, j), {
        "values1": c**2,
        "values2": c**2,
        "eigenvalue_path": c**4,
        "eigenvalue_path_without_functions": c**4,
        "eigenvalue_normalizer": c**4,
        "eigenfunction_path": 1.0,
        "eigenfunction_normalizer": 1.0,
    })


@PROPERTY
@given(sample=split_samples(dims=st.sampled_from([3, 5])), extra_nodes=st.integers(0, 8))
def test_eigen_statistics_agree_in_coeff_and_grid_mode(sample, extra_nodes):
    # midpoint quadrature is exact for products of the basis functions, so
    # the grid values of Fourier coefficients carry the same operator
    coeffs, k, j = sample
    order = coeffs.shape[1]
    basis = fourier_basis(order, 2 * (order - 1) + extra_nodes)
    assert_statistics_close(eigen_statistics(coeffs @ basis.eval_matrix.T, k, j, mode="grid"),
                            eigen_statistics(coeffs, k, j), UNCHANGED)
