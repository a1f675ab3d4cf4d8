import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenbreak import eigensys, selfnorm
from eigenbreak.covkern import SplitSample, mode_weight, prefix_count, prefix_moments
from eigenbreak.datagen import DGPSpec, generate
from eigenbreak.eigensys import (
    aligned_distance_sq,
    eigendecompose,
    gap_warning,
    operator_eigh,
    prefix_eigenpairs,
)
from eigenbreak.funcspace import fourier_basis
from eigenbreak.selfnorm import (
    DEFAULT_PIVOT_REPLICATES,
    DEFAULT_PIVOT_SEED,
    DiffPath,
    NuMeasure,
    PivotDistribution,
    decide,
    diff_path,
    cached_pivot,
    seed_pivot_cache,
    self_normalizer,
    sequential_eigensystem_paths,
    simulate_pivot,
)
from reference import population_kernels

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


@pytest.mark.parametrize("r, mode, bad", [(21, "coeff", np.nan), (40, "grid", np.inf)])
def test_non_finite_rows_stop_before_the_eigen_paths(r, mode, bad):
    # the eigen steps would fail with "Eigenvalues did not converge"
    values = np.random.default_rng(r).standard_normal((60, r))
    values[41, 3] = bad
    with pytest.raises(ValueError, match="sample row 41 "):
        diff_path(SplitSample.at_index(values, 30, mode=mode), 1, NU, "eigenfunction")


def test_identical_segments_give_zero_eigenvalue_path():
    row = np.array([1.0, -0.5, 0.25])
    values = np.tile(row, (16, 1))
    split = SplitSample(pre=values[:8], post=values[8:])
    path = diff_path(split, 1, NU, "eigenvalue")
    np.testing.assert_allclose(path.values, np.zeros(20), atol=1e-15)


def test_population_rotation_kernels_give_constant_path():
    # the noiseless sub-sample kernels coincide with the population kernels
    # at every lambda, so the squared-distance path is flat at 2 - 2 cos(phi)
    phi = np.pi / 8
    c1, c2 = population_kernels(DGPSpec(N=10, break_kind="rotation", magnitude=phi))
    _, f1 = eigendecompose(c1, 1.0, 1)
    _, f2 = eigendecompose(c2, 1.0, 1)
    dist_sq = aligned_distance_sq(f1[0], f2[0])
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
    for delta in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            decide(path, 1.0, delta, pivot, 0.05)
    with pytest.raises(ValueError, match="level"):
        decide(path, 1.0, 0.1, pivot, 1.5)


def test_decide_refuses_a_pivot_of_another_grid():
    # a K=20 path decided by the K=30 law took its quantile from the wrong pivot
    values = generate(DGPSpec(N=60, break_kind="rotation", magnitude=0.5, seed=3)).coeffs
    path = diff_path(SplitSample.at_index(values, 30), 1, NU, "eigenvalue")
    with pytest.raises(ValueError, match="K=30, but the path's grid has K=20"):
        decide(path, self_normalizer(path, NU), 0.1, simulate_pivot(30, 2000), 0.05)


def test_pivot_is_reproducible_and_sorted():
    a = simulate_pivot(20, 30_000, 5)
    b = simulate_pivot(20, 30_000, 5)
    np.testing.assert_array_equal(a.sample, b.sample)
    assert np.all(np.diff(a.sample) >= 0)
    c = simulate_pivot(20, 30_000, 6)
    assert not np.array_equal(a.sample, c.sample)


def test_pivot_simulation_memory_is_bounded():
    # each 100k-draw chunk is drawn in (n, K) row blocks of at most 16 MiB,
    # one block at K=20 and ten at K=200, each unbound before the next one
    for K, R in ((20, DEFAULT_PIVOT_REPLICATES), (200, 150_000)):
        tracemalloc.start()
        try:
            simulate_pivot(K, R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2**20, K


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
    # summary() is the pivot that save writes and load reads back
    summary = pivot.summary()
    assert (summary.K, summary.R, summary.seed) == (loaded.K, loaded.R, loaded.seed)
    assert summary.sample.tobytes() == loaded.sample.tobytes()


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
    with pytest.raises(ValueError, match="pivot seed must be nonnegative"):
        simulate_pivot(20, 10, -1)


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
    paths = sequential_eigensystem_paths(split, 3, NU, functions=3)
    for j in (1, 2, 3):
        one = diff_path(split, j, NU, "eigenvalue")
        np.testing.assert_allclose(paths.diff(j, "eigenvalue").values, one.values, atol=1e-12)
        one_fun = diff_path(split, j, NU, "eigenfunction")
        np.testing.assert_allclose(
            paths.diff(j, "eigenfunction").values, one_fun.values, atol=1e-12
        )


def test_diff_path_index_validation():
    values = np.random.default_rng(1).standard_normal((20, 4))
    split = SplitSample.at_index(values, 10)
    with pytest.raises(ValueError, match="eigen index"):
        diff_path(split, 5, NU, "eigenvalue")
    with pytest.raises(ValueError, match="kind"):
        diff_path(split, 1, NU, "spectrum")


def test_eigen_paths_diff_refuses_bad_requests():
    values = np.random.default_rng(1).standard_normal((20, 4))
    split = SplitSample.at_index(values, 10)
    paths = sequential_eigensystem_paths(split, 2, NU, functions=2)
    with pytest.raises(ValueError, match="unknown path kind 'spectrum'"):
        paths.diff(1, "spectrum")
    for j in (0, 3):
        with pytest.raises(ValueError, match=rf"eigen index {j} exceeds the decomposed "
                                             r"eigenvalue range 1\.\.2"):
            paths.diff(j, "eigenvalue")
    values_only = sequential_eigensystem_paths(split, 2, NU, functions=0)
    assert values_only.diff(2, "eigenvalue").kind == "eigenvalue"
    with pytest.raises(ValueError, match=r"eigen index 1 exceeds the decomposed "
                                         r"eigenfunction range 1\.\.0"):
        values_only.diff(1, "eigenfunction")


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
    paths = sequential_eigensystem_paths(SplitSample.at_index(values, 1, mode=mode), 1, NU,
                                         functions=1)
    assert not paths.values1[:-1].any() and not paths.functions1[:-1].any()
    # the distance to a zero function is the squared norm of the other one
    path = paths.diff(1, "eigenfunction")
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
    direct = PivotDistribution(K=20, sample=given_sample, seed=0, R=100)
    for dist in (pivot, PivotDistribution.load(tmp_path / "pivot.csv"), direct):
        with pytest.raises(ValueError, match="read-only"):
            dist.sample[0] = 0.0
    # the pivot keeps its own copy: the caller's array stays writeable and
    # writing to it changes no memoized quantile
    q = direct.quantile(0.5)
    given_sample[:] = 0.0
    assert direct.quantile(0.5) == q == float(np.quantile(direct.sample, 0.5))


def test_one_process_cache_serves_every_pivot(monkeypatch):
    monkeypatch.setattr(selfnorm, "_PIVOT", None)
    pivot = cached_pivot(3)
    assert (pivot.K, pivot.R, pivot.seed) == (3, DEFAULT_PIVOT_REPLICATES, DEFAULT_PIVOT_SEED)
    assert cached_pivot(3) is pivot
    own = simulate_pivot(4)
    seed_pivot_cache(own)
    assert cached_pivot(4) is own
    assert cached_pivot(3) is not pivot
    with pytest.raises(ValueError, match="full default pivot"):
        seed_pivot_cache(simulate_pivot(4, 1_000, DEFAULT_PIVOT_SEED))
    with pytest.raises(ValueError, match="full default pivot"):
        seed_pivot_cache(simulate_pivot(4, DEFAULT_PIVOT_REPLICATES, 1))


def test_pivot_cache_refuses_a_quantile_summary(tmp_path, pivot):
    pivot.save(tmp_path / "pivot.csv")
    with pytest.raises(ValueError, match="full default pivot"):
        seed_pivot_cache(PivotDistribution.load(tmp_path / "pivot.csv"))


_SORTED = [-1.0, 0.0, 1.0]


@pytest.mark.parametrize("K, sample, R, message", [
    (20, [-1.0, np.nan, 1.0], 3, "finite"),
    (20, [-1.0, 0.0, np.inf], 3, "finite"),
    (20, [-np.inf, 0.0, 1.0], 3, "finite"),
    (20, [1.0, 0.0, -1.0], 3, "non-decreasing"),
    (20, [0.0, 1.0, 0.5], 3, "non-decreasing"),
    (20, [], 3, "1 to R=3 values"),
    (20, [_SORTED, _SORTED], 6, "in a vector"),
    (20, _SORTED, 2, "1 to R=2 values"),
    (1, _SORTED, 3, "K >= 2"),
], ids=["nan", "inf", "-inf", "reversed", "unsorted", "empty", "2-d", "more-than-R", "K=1"])
def test_pivot_refuses_a_sample_it_cannot_decide_from(K, sample, R, message):
    with pytest.raises(ValueError, match=message):
        PivotDistribution(K=K, sample=np.array(sample), seed=0, R=R)


@st.composite
def split_samples(draw, dims=st.one_of(st.integers(2, 4), st.integers(32, 34))):
    """(N, R) sample, its split index and an eigen index.

    Each segment's smallest sub-sample (lambda = 1/20) holds more than j
    observations, so its leading j + 1 eigenpairs are determined up to sign.
    Where R >= 32, segments shorter than 20 R have sub-samples of fewer
    than R rows, which take the Gram form.
    """
    r = draw(dims)
    j = draw(st.integers(1, min(r - 1, 3)))
    n1, n2 = (draw(st.integers(20 * (j + 1), 20 * (r + 1) + 60)) for _ in range(2))
    values = np.random.default_rng(draw(SEEDS)).standard_normal((n1 + n2, r))
    return values, n1, j


def eigen_statistics(values, k, j, mode="coeff"):
    """Sequential eigenvalues and both difference paths with their normalizers."""
    split = SplitSample.at_index(values, k, mode=mode)
    paths = sequential_eigensystem_paths(split, j, NU, functions=j)
    val = paths.diff(j, "eigenvalue")
    fun = paths.diff(j, "eigenfunction")
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
@given(sample=split_samples(dims=st.sampled_from([3, 5, 17])), extra_nodes=st.integers(0, 8))
def test_eigen_statistics_agree_in_coeff_and_grid_mode(sample, extra_nodes):
    # midpoint quadrature is exact for products of the basis functions, so
    # the grid values of Fourier coefficients carry the same operator; at
    # order 17 the grid has at least 32 nodes and takes the Gram form
    coeffs, k, j = sample
    order = coeffs.shape[1]
    basis = fourier_basis(order, 2 * (order - 1) + extra_nodes)
    assert_statistics_close(eigen_statistics(coeffs @ basis.eval_matrix.T, k, j, mode="grid"),
                            eigen_statistics(coeffs, k, j), UNCHANGED)


def centred(split):
    """The split with each segment minus its full-segment mean, as ``analyze`` builds it."""
    return SplitSample(split.pre - split.pre.mean(axis=0), split.post - split.post.mean(axis=0),
                       mode=split.mode)


def stack_paths(segment, lambdas, p, weight, q):
    """Reference eigen paths: every prefix kernel through the R x R stack."""
    counts = [prefix_count(len(segment), lam) for lam in lambdas]
    vals, funcs = operator_eigh(prefix_moments(segment, counts), weight, p, q)
    empty = np.asarray(counts) == 0
    vals[empty] = 0.0
    funcs[empty] = 0.0
    return vals, funcs


def assert_paths_match_stack(split, p_max, nu, q):
    """Eigen paths agree with the stack: eigenvalues to 1e-10 of the leading
    one, the q tested eigenfunctions by sign-free distance wherever the gap is clear."""
    paths = sequential_eigensystem_paths(split, p_max, nu, functions=q)
    r = split.pre.shape[1]
    weight = mode_weight(split.mode, r)
    p = min(r, p_max + 1)
    for segment, vals, funcs in ((split.pre, paths.values1, paths.functions1),
                                 (split.post, paths.values2, paths.functions2)):
        ref_vals, ref_funcs = stack_paths(segment, paths.lambdas, p, weight, q)
        scale = np.abs(ref_vals[:, :1])
        assert np.all(np.abs(vals - ref_vals) <= 1e-10 * scale)
        assert funcs.shape == ref_funcs.shape == (paths.lambdas.size, q, r)
        for i, row in enumerate(ref_vals):
            for j in range(1, q + 1):
                if gap_warning(row, j) is None:
                    dist_sq = aligned_distance_sq(funcs[i, j - 1], ref_funcs[i, j - 1],
                                                  weight=weight)
                    assert dist_sq <= 1e-14, (i, j, dist_sq)


@st.composite
def short_segments(draw):
    """A split sample whose sub-samples run from below p to at least R rows."""
    # both regimes: shifted solves below _GRAM_MIN_DIM, eigh and Gram form from it on
    r = draw(st.one_of(st.integers(3, eigensys._GRAM_MIN_DIM - 1),
                       st.integers(eigensys._GRAM_MIN_DIM, eigensys._GRAM_MIN_DIM + 8)))
    p_max = draw(st.integers(1, r - 2))
    n1, n2 = (draw(st.integers(1, 3 * r)) for _ in range(2))
    mode = draw(st.sampled_from(["coeff", "grid"]))
    values = np.random.default_rng(draw(SEEDS)).standard_normal((n1 + n2, r))
    return SplitSample.at_index(values, n1, mode=mode), p_max


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sample=short_segments(), center=st.booleans(), data=st.data())
def test_gram_form_agrees_with_the_kernel_stack(sample, center, data):
    split, p_max = sample
    # centred segments have rank at most n - 1
    assert_paths_match_stack(centred(split) if center else split, p_max, NU,
                             data.draw(st.integers(0, p_max)))


@pytest.mark.parametrize("mode, r, axes", [
    ("coeff", 36, False), ("grid", 36, False), ("coeff", 21, False), ("grid", 21, False),
    ("coeff", 21, True), ("grid", 21, True),
], ids=["coeff", "grid", "coeff-R21", "grid-R21", "coeff-axes-R21", "grid-axes-R21"])
@pytest.mark.parametrize("center", [False, True])
def test_gram_form_of_repeated_rows(mode, r, axes, center):
    # each row twice: a prefix of m rows has rank ceil(m/2), so its Gram is
    # rank-deficient and the trailing kept pairs are null-space vectors.
    # Integer rows on distinct coordinate axes give diagonal kernels, whose
    # eigenvalues eigvalsh returns exactly: an unshifted solve is singular.
    rows = (np.eye(20, r) * np.arange(1.0, 21.0)[:, None] if axes
            else np.random.default_rng(23).standard_normal((20, r)))
    values = np.repeat(rows, 2, axis=0)
    split = SplitSample.at_index(values, 24, mode=mode)
    if center:
        split = centred(split)
    for p_max in (1, 3, 6):
        assert_paths_match_stack(split, p_max, NU, p_max)
        paths = sequential_eigensystem_paths(split, p_max, NU, functions=p_max)
        assert np.all(np.isfinite(paths.functions1)) and np.all(np.isfinite(paths.functions2))


@pytest.mark.parametrize("r", [21, 41])
def test_pairs_past_a_prefix_rank_get_zero_functions(r):
    # a prefix of m rows has rank m, and eigh returns an arbitrary null-space
    # vector for each pair past it; in both regimes such a pair has a zero
    # function; the j = 5 path then compares two zero functions at lambda =
    # 0.05, where the segments' prefixes hold 4 and 1 rows, and a unit
    # function with a zero one at 0.10 and 0.15
    values = np.random.default_rng(5).standard_normal((123, r))
    paths = sequential_eigensystem_paths(centred(SplitSample.at_index(values, 92)), 5, NU,
                                         functions=5)
    for n, funcs in ((92, paths.functions1), (31, paths.functions2)):
        counts = np.array([prefix_count(n, lam) for lam in paths.lambdas])
        norms = np.sum(funcs**2, axis=2)
        np.testing.assert_allclose(norms, np.arange(5) < counts[:, None], rtol=1e-12, atol=0.0)
    path = paths.diff(5, "eigenfunction")
    np.testing.assert_allclose(path.values[:3], [0.0, 1.0, 1.0], rtol=1e-12, atol=0.0)


@st.composite
def low_rank_wide_segments(draw):
    """A split sample of grid values of Fourier coefficients, of rank <= order < M = R."""
    m = draw(st.integers(eigensys._GRAM_MIN_DIM, 60))
    order = draw(st.sampled_from(range(1, m // 2 + 2, 2)))
    p_max = draw(st.integers(1, min(order + 2, m - 2)))
    # each segment holds from a few rows to twice R
    n1, n2 = (draw(st.integers(1, 2 * m)) for _ in range(2))
    mode = draw(st.sampled_from(["coeff", "grid"]))
    coeffs = np.random.default_rng(draw(SEEDS)).standard_normal((n1 + n2, order))
    values = coeffs @ fourier_basis(order, m).eval_matrix.T
    return SplitSample.at_index(values, n1, mode=mode), p_max


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sample=low_rank_wide_segments(), center=st.booleans(), data=st.data())
def test_reduced_form_agrees_with_the_kernel_stack(sample, center, data):
    split, p_max = sample
    assert_paths_match_stack(centred(split) if center else split, p_max, NU,
                             data.draw(st.integers(0, p_max)))


@pytest.mark.parametrize("mode", ["coeff", "grid"])
@pytest.mark.parametrize("center", [False, True])
def test_reduced_form_of_a_row_space_of_32_or_more_dimensions(monkeypatch, mode, center):
    # order 37 on 76 nodes: the 10 Gram-form prefixes of 7 to 75 rows become one stack
    coeffs = np.random.default_rng(37).standard_normal((300, 37))
    split = SplitSample.at_index(coeffs @ fourier_basis(37, 76).eval_matrix.T, 150, mode=mode)
    if center:
        split = centred(split)
    seen = record_linalg(monkeypatch)
    sequential_eigensystem_paths(split, 4, NU, functions=2)
    assert seen.count(("svd", (150, 76))) == seen.count(("eigh", (10, 37, 37))) == 2
    monkeypatch.undo()
    assert_paths_match_stack(split, 4, NU, 2)


@pytest.mark.parametrize("factor, rank", [(2.0, 6), (0.5, 5)], ids=["above", "below"])
def test_reduced_rank_follows_numpys_rank_rule(monkeypatch, factor, rank):
    # five clear singular values and a sixth at twice or half the rank
    # tolerance s_1 * max(n, R) * eps: the row space has 6 or 5 dimensions
    rng = np.random.default_rng(29)
    n, r = 64, 40
    u = np.linalg.qr(rng.standard_normal((n, 6)))[0]
    v = np.linalg.qr(rng.standard_normal((r, 6)))[0]
    s = np.array([1.0, 0.8, 0.6, 0.4, 0.2, factor * max(n, r) * np.finfo(float).eps])
    values = (u * s) @ v.T
    assert np.linalg.matrix_rank(values) == rank
    split = SplitSample.at_index(np.vstack([values, values[::-1]]), n)
    seen = record_linalg(monkeypatch)
    sequential_eigensystem_paths(split, 2, NU, functions=2)
    # per segment, the 12 prefixes of 3 to 38 rows are solved in the row space
    assert seen.count(("eigh", (12, rank, rank))) == 2
    monkeypatch.undo()
    assert_paths_match_stack(split, 2, NU, 2)


def record_linalg(monkeypatch):
    """List of (name, shape of the first argument) of the LAPACK-backed calls made from now on."""
    seen = []
    for name in ("eigh", "eigvalsh", "solve", "svd"):
        def record(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    return seen


@pytest.mark.parametrize("r, m, shapes", [
    (32, 2, [("eigh", (2, 32, 32))]),                        # m = p - 1: the stack
    (32, 3, [("eigh", (1, 32, 32)), ("eigh", (3, 3))]),      # m = p: the Gram form
    (32, 31, [("eigh", (1, 32, 32)), ("eigh", (31, 31))]),   # m = R - 1
    (32, 32, [("eigh", (2, 32, 32))]),                       # m = R: the stack
    # R below _GRAM_MIN_DIM: eigvalsh on the stack, then two shifted solves
    # for the q = 2 tested pairs of both prefixes
    (31, 3, [("eigvalsh", (2, 31, 31)), ("solve", (4, 31, 31)), ("solve", (4, 31, 31))]),
])
# the ids name whether eigenfunctions are asked for: none, or the two tested
@pytest.mark.parametrize("q", [0, 2], ids=["False", "True"])
def test_gram_form_boundaries(monkeypatch, r, m, shapes, q):
    # p = 3 pairs; the prefixes hold m and all 64 rows of the segment; full
    # rank, so no SVD runs
    vals, ref_vals = assert_calls_match(
        monkeypatch, np.random.default_rng(m).standard_normal((64, r)), m, shapes, q)
    np.testing.assert_allclose(vals, ref_vals, rtol=1e-10, atol=0.0)


def assert_calls_match(monkeypatch, values, m, shapes, q):
    """Prefixes of m and all rows, p = 3: the calls made are ``shapes``, the functions the stack's.

    Returns the eigenvalues and the stack's, for the caller to compare.
    """
    seen = record_linalg(monkeypatch)
    lambdas = np.array([m / len(values), 1.0])
    vals, funcs = prefix_eigenpairs(values, [m, len(values)], 1.0, 3, q)
    # without functions eigvalsh stands in for eigh and nothing is solved
    assert seen == [("eigvalsh" if name == "eigh" and not q else name, shape)
                    for name, shape in shapes if q or name != "solve"]
    monkeypatch.undo()
    ref_vals, ref_funcs = stack_paths(values, lambdas, 3, 1.0, q)
    assert funcs.shape == ref_funcs.shape == (2, q, values.shape[1])
    np.testing.assert_allclose(aligned_distance_sq(funcs, ref_funcs), 0.0, atol=1e-14)
    return vals, ref_vals


@pytest.mark.parametrize("rank, shapes", [
    # full rank: the stack of the 64-row prefix and the Gram block of 20 rows
    (40, [("eigh", (1, 40, 40)), ("eigh", (20, 20))]),
    # rank 5: the stack shows round-off eigenvalues, an SVD gives d = 5, and
    # the 20-row prefix is solved in 5 dimensions
    (5, [("eigh", (1, 40, 40)), ("svd", (64, 40)), ("eigh", (1, 5, 5))]),
    # rank 2 < p = 3: no SVD, today's Gram block
    (2, [("eigh", (1, 40, 40)), ("eigh", (20, 20))]),
], ids=["full-rank", "rank-5", "rank-below-p"])
@pytest.mark.parametrize("q", [0, 2], ids=["False", "True"])
def test_reduced_form_boundaries(monkeypatch, rank, shapes, q):
    rng = np.random.default_rng(rank)
    values = rng.standard_normal((64, rank)) @ rng.standard_normal((rank, 40))
    vals, ref_vals = assert_calls_match(monkeypatch, values, 20, shapes, q)
    # eigenvalues to 1e-10 relative, but those at round-off, which rank 2
    # and 5 give, to 1e-10 of the leading one
    identified = ref_vals > 1e-10 * ref_vals[:, :1]
    assert np.all(np.abs(vals - ref_vals)
                  <= 1e-10 * np.where(identified, ref_vals, ref_vals[:, :1]))
