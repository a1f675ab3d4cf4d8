"""Self-normalized statistics for relevant-change decisions on eigensystems.

The test statistic for eigen-index j is the squared difference of the two
segment estimates at full sample size (eigenvalues) or the squared sign-free
distance of the estimated eigenfunctions.  Its sampling variability is
normalized away by the weighted dispersion of the same statistic along a
path of sequential sub-sample estimates, indexed by a discrete measure on
(0,1).  The normalized statistic converges to a parameter-free ratio of
Brownian-motion functionals whose distribution is tabulated by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covkern import SplitSample, mode_weight, prefix_count, prefix_moments
from .eigensys import aligned_distance_sq, gap_warning, operator_eigh

__all__ = [
    "NuMeasure",
    "DiffPath",
    "EigenPaths",
    "TestResult",
    "PivotDistribution",
    "simulate_pivot",
    "cached_pivot",
    "seed_pivot_cache",
    "default_pivot",
    "sequential_eigensystem_paths",
    "eigenvalue_diff_path",
    "eigenfunction_diff_path",
    "diff_path",
    "self_normalizer",
    "decide",
]

DEFAULT_K = 20
DEFAULT_PIVOT_REPLICATES = 500_000
DEFAULT_PIVOT_SEED = 271828

#: normalizers below this are treated as degenerate: retain with a warning
#: instead of dividing by a numerical zero
DEGENERATE_NORMALIZER = 1e-12

_PIVOT_CHUNK = 100_000
_CACHE_GRID = 10_000
_PIVOT_CACHE_SIZE = 8


@dataclass(frozen=True)
class NuMeasure:
    """Uniform probability measure on the points l/K, l = 1..K-1."""

    K: int

    def __post_init__(self):
        if self.K < 2:
            raise ValueError(f"the measure needs K >= 2, got {self.K}")

    @property
    def points(self) -> np.ndarray:
        return np.arange(1, self.K) / self.K

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.K - 1, 1.0 / (self.K - 1))


@dataclass(frozen=True)
class DiffPath:
    """Squared eigen-difference statistic along the sequential lambda grid."""

    lambdas: np.ndarray
    values: np.ndarray
    j: int
    kind: str
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        lambdas = np.asarray(self.lambdas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if lambdas.shape != values.shape or lambdas.ndim != 1:
            raise ValueError("lambda grid and values must be matching 1-d vectors")
        if np.any(np.diff(lambdas) <= 0.0) or lambdas[-1] != 1.0:
            raise ValueError("lambda grid must increase strictly and end at 1")
        if np.any(values < 0.0):
            raise ValueError("path values must be nonnegative")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "values", values)

    @property
    def statistic(self) -> float:
        """Path value at lambda = 1, the full-sample test statistic."""
        return float(self.values[-1])


@dataclass(frozen=True)
class TestResult:
    """Decision record of one relevant-change or equivalence test."""

    statistic: float
    normalizer: float
    delta: float
    ratio: float | None
    quantile: float
    alpha: float
    mode: str
    decision: str
    p_value: float | None
    kind: str
    j: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class PivotDistribution:
    """Sorted Monte-Carlo sample of the limiting pivot statistic.

    The sample is a read-only copy of the one given, so the quantiles
    memoized per probability cannot go stale.
    """

    K: int
    sample: np.ndarray
    seed: int
    r_total: int
    _quantiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        sample = np.array(self.sample)
        sample.flags.writeable = False
        object.__setattr__(self, "sample", sample)

    def __reduce__(self):
        # rebuild through __init__, so an unpickled sample is read-only too
        return (type(self), (self.K, self.sample, self.seed, self.r_total))

    @property
    def R(self) -> int:
        return self.r_total

    def quantile(self, p: float) -> float:
        value = self._quantiles.get(p)
        if value is None:
            value = self._quantiles[p] = float(np.quantile(self.sample, p))
        return value

    def prob_leq(self, x: float) -> float:
        """Empirical probability that the pivot is <= x."""
        return float(np.searchsorted(self.sample, x, side="right")) / self.sample.size

    def save(self, path) -> None:
        """Write a plain-text quantile summary keyed by (K, R, seed)."""
        grid = min(self.sample.size, _CACHE_GRID)
        probs = (np.arange(grid) + 0.5) / grid
        values = np.quantile(self.sample, probs)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# eigenbreak pivot quantile cache\n")
            fh.write(f"# K={self.K} R={self.r_total} seed={self.seed}\n")
            fh.write("probability,quantile\n")
            for p, v in zip(probs, values):
                fh.write(f"{float(p)!r},{float(v)!r}\n")

    @classmethod
    def load(cls, path) -> "PivotDistribution":
        meta: dict[str, int] = {}
        with open(path, "r", encoding="utf-8") as fh:
            # metadata, blank lines and the column header precede the rows
            start, line = fh.tell(), fh.readline()
            while line and (not line.strip() or line.lstrip().startswith(("#", "probability"))):
                if line.lstrip().startswith("#"):
                    for token in line.strip().lstrip("# ").split():
                        if "=" in token:
                            key, _, val = token.partition("=")
                            if key in ("K", "R", "seed"):
                                meta[key] = int(val)
                start, line = fh.tell(), fh.readline()
            fh.seek(start)
            values = np.loadtxt(fh, delimiter=",", usecols=1, ndmin=1) if line else np.empty(0)
        if not {"K", "R", "seed"} <= meta.keys() or not values.size:
            raise ValueError(f"{path} is not a pivot quantile cache")
        return cls(K=meta["K"], sample=values, seed=meta["seed"], r_total=meta["R"])


def simulate_pivot(K: int, R: int = DEFAULT_PIVOT_REPLICATES,
                   seed: int = DEFAULT_PIVOT_SEED) -> PivotDistribution:
    """Monte-Carlo sample of the pivot by exact Brownian increments.

    The weighting measure is discrete, so the pivot depends on the Brownian
    motion only at the K points l/K, l = 1..K; those are drawn exactly as
    cumulative sums of independent N(0, 1/K) increments and there is no
    path-discretization error.  Replicates are generated in fixed-size
    chunks with seeds derived from (seed, chunk index), so the result is
    independent of any parallel scheduling.

    Parameters
    ----------
    K : int
        Number of grid points of the weighting measure, K >= 2.
    R : int
        Number of replicates, R >= 1.
    seed : int
        Stream seed; identical (K, R, seed) give identical samples.

    Returns
    -------
    PivotDistribution
    """
    if K < 2:
        raise ValueError(f"the pivot needs K >= 2, got {K}")
    if R < 1:
        raise ValueError(f"the pivot sample needs R >= 1 replicates, got {R}")
    lams = np.arange(1, K) / K
    out = np.empty(R)
    pos = 0
    chunk_idx = 0
    while pos < R:
        n = min(_PIVOT_CHUNK, R - pos)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_idx)))
        increments = rng.standard_normal((n, K)) * np.sqrt(1.0 / K)
        motion = np.cumsum(increments, axis=1)
        end = motion[:, -1]
        bridge = motion[:, :-1] - lams * end[:, None]
        denom = np.sqrt(np.mean(lams**2 * bridge**2, axis=1))
        out[pos : pos + n] = end / denom
        pos += n
        chunk_idx += 1
    out.sort()
    return PivotDistribution(K=K, sample=out, seed=seed, r_total=R)


#: process-local pivots keyed by (K, R, seed), oldest evicted first
_PIVOTS: dict[tuple[int, int, int], PivotDistribution] = {}


def seed_pivot_cache(pivot: PivotDistribution) -> None:
    """Serve a simulated pivot from this process's cache under its (K, R, seed).

    Pool workers run this as their initializer with the parent's pivot, so
    no worker simulates one.  Only a full simulated sample is accepted: a
    quantile summary loaded from a cache file must not stand in for it.
    """
    if pivot.sample.size != pivot.R:
        raise ValueError(
            f"only a full simulated pivot can be cached; this one holds "
            f"{pivot.sample.size} of R={pivot.R} draws"
        )
    key = (pivot.K, pivot.R, pivot.seed)
    _PIVOTS.pop(key, None)
    if len(_PIVOTS) >= _PIVOT_CACHE_SIZE:
        del _PIVOTS[next(iter(_PIVOTS))]
    _PIVOTS[key] = pivot


def cached_pivot(K: int, R: int = DEFAULT_PIVOT_REPLICATES,
                 seed: int = DEFAULT_PIVOT_SEED) -> PivotDistribution:
    """Process-local pivot sample, simulated on the first request for (K, R, seed)."""
    pivot = _PIVOTS.get((K, R, seed))
    if pivot is None:
        pivot = simulate_pivot(K, R, seed)
        seed_pivot_cache(pivot)
    return pivot


def default_pivot(K: int = DEFAULT_K) -> PivotDistribution:
    """Process-local cached pivot sample at the shipped defaults."""
    return cached_pivot(K)


@dataclass(frozen=True)
class EigenPaths:
    """Sequential eigensystems of both split segments along the lambda grid.

    Rows of ``values*`` hold the leading eigenvalues per lambda; rows of
    ``functions*`` hold the matching eigenfunctions (zero rows where the
    lambda-prefix of a segment is empty and the kernel degenerates).
    """

    lambdas: np.ndarray
    values1: np.ndarray
    values2: np.ndarray
    functions1: np.ndarray | None
    functions2: np.ndarray | None
    weight: float
    mode: str
    p_max: int


def _segment_paths(values: np.ndarray, lambdas: np.ndarray, p: int, weight: float,
                   center: bool, with_functions: bool):
    n = values.shape[0]
    if center:
        values = values - values.mean(axis=0)
    counts = [prefix_count(n, lam) for lam in lambdas]
    vals, funcs = operator_eigh(prefix_moments(values, counts), weight, p, with_functions)
    empty = np.asarray(counts) == 0
    vals[empty] = 0.0
    if funcs is not None:
        funcs[empty] = 0.0
    return vals, funcs


def sequential_eigensystem_paths(split: SplitSample, p_max: int, nu: NuMeasure,
                                 *, center: bool = False,
                                 with_functions: bool = True) -> EigenPaths:
    """Eigen-decompose both segments' sequential kernels on the nu grid plus 1.

    One extra eigenvalue beyond ``p_max`` is kept when available so that
    eigen-gap degeneracy around the tested index can be diagnosed.

    Segments of a single observation are allowed (they occur for extreme
    splits, e.g. with no boundary trim): their sub-sample kernels at
    lambda < 1 degenerate to zero kernels with zero eigenfunctions.
    """
    r = split.pre.shape[1]
    if not 1 <= p_max <= r:
        raise ValueError(f"eigen index range must lie in [1, {r}], got {p_max}")
    weight = mode_weight(split.mode, r)
    lambdas = np.append(nu.points, 1.0)
    p = min(r, p_max + 1)
    vals1, funcs1 = _segment_paths(split.pre, lambdas, p, weight, center, with_functions)
    vals2, funcs2 = _segment_paths(split.post, lambdas, p, weight, center, with_functions)
    return EigenPaths(
        lambdas=lambdas,
        values1=vals1,
        values2=vals2,
        functions1=funcs1,
        functions2=funcs2,
        weight=weight,
        mode=split.mode,
        p_max=p_max,
    )


def _path_warnings(paths: EigenPaths, j: int) -> tuple[str, ...]:
    notes = []
    for label, vals in (("first segment", paths.values1), ("second segment", paths.values2)):
        note = gap_warning(vals[-1], j)
        if note is not None:
            notes.append(f"{label}: {note}")
    return tuple(notes)


def eigenvalue_diff_path(paths: EigenPaths, j: int) -> DiffPath:
    """Squared difference of the two segments' j-th eigenvalues per lambda."""
    if not 1 <= j <= paths.p_max:
        raise ValueError(f"eigen index {j} exceeds the decomposed range 1..{paths.p_max}")
    diff = paths.values1[:, j - 1] - paths.values2[:, j - 1]
    return DiffPath(
        lambdas=paths.lambdas,
        values=diff**2,
        j=j,
        kind="eigenvalue",
        warnings=_path_warnings(paths, j),
    )


def eigenfunction_diff_path(paths: EigenPaths, j: int) -> DiffPath:
    """Squared sign-free distance of the segments' j-th eigenfunctions per lambda.

    Eigenfunctions of a degenerate (zero) kernel enter as zero functions, so
    the min-form distance is evaluated on the raw vectors rather than
    requiring unit norms.
    """
    if paths.functions1 is None or paths.functions2 is None:
        raise ValueError("paths were computed without eigenfunctions")
    if not 1 <= j <= paths.p_max:
        raise ValueError(f"eigen index {j} exceeds the decomposed range 1..{paths.p_max}")
    return DiffPath(
        lambdas=paths.lambdas,
        values=aligned_distance_sq(paths.functions1[:, j - 1, :], paths.functions2[:, j - 1, :],
                                   weight=paths.weight),
        j=j,
        kind="eigenfunction",
        warnings=_path_warnings(paths, j),
    )


def diff_path(split: SplitSample, j: int, nu: NuMeasure, kind: str,
              *, center: bool = False) -> DiffPath:
    """Sequential squared-difference path of the j-th eigenpair of a split sample.

    Parameters
    ----------
    split : SplitSample
        Sample partitioned at the estimated change point; each segment
        needs at least 2 observations.
    j : int
        Eigen index, 1-based.
    nu : NuMeasure
        Weighting measure; the path is evaluated on its support plus 1.
    kind : {'eigenvalue', 'eigenfunction'}
        Which eigen-difference to track.
    center : bool
        Center each segment by its full-segment mean before estimating
        kernels (for data with nonzero expectation).

    Returns
    -------
    DiffPath
    """
    if kind not in ("eigenvalue", "eigenfunction"):
        raise ValueError(f"unknown path kind {kind!r}; expected 'eigenvalue' or 'eigenfunction'")
    paths = sequential_eigensystem_paths(
        split, j, nu, center=center, with_functions=kind == "eigenfunction"
    )
    if kind == "eigenvalue":
        return eigenvalue_diff_path(paths, j)
    return eigenfunction_diff_path(paths, j)


def self_normalizer(path: DiffPath, nu: NuMeasure) -> float:
    """Weighted root dispersion of a path around its value at lambda = 1.

    Returns [sum_l weight_l * lambda_l^4 * (path(lambda_l) - path(1))^2]^(1/2)
    over the support of the measure.
    """
    at_one = path.statistic
    points = nu.points
    idx = np.searchsorted(path.lambdas, points)
    if np.any(idx >= path.lambdas.size) or not np.allclose(
        path.lambdas[idx], points, rtol=0.0, atol=1e-12
    ):
        raise ValueError("path grid does not cover the support of the measure")
    deviations = path.values[idx] - at_one
    return float(np.sqrt(np.sum(nu.weights * points**4 * deviations**2)))


def decide(path: DiffPath, normalizer: float, delta: float,
           pivot: PivotDistribution, alpha: float,
           mode: str = "relevant") -> TestResult:
    """Decision rule for a relevant-change or equivalence test.

    Parameters
    ----------
    path : DiffPath
        Sequential statistic path; its value at lambda = 1 is the statistic.
    normalizer : float
        Self-normalizer belonging to the path.
    delta : float
        Relevance threshold, >= 0.
    pivot : PivotDistribution
        Monte-Carlo pivot sample supplying quantiles and p-values.
    alpha : float
        Test level in (0, 1).
    mode : {'relevant', 'equivalence'}
        'relevant' rejects no-relevant-change when the normalized statistic
        exceeds the upper quantile; 'equivalence' rejects relevant-difference
        when it falls below the lower quantile.

    Returns
    -------
    TestResult
        With Monte-Carlo p-value P(pivot <= ratio); a numerically zero
        normalizer yields a conservative retain with a warning.
    """
    if delta < 0.0:
        raise ValueError(f"relevance threshold must be nonnegative, got {delta}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"test level must lie in (0,1), got {alpha}")
    if mode not in ("relevant", "equivalence"):
        raise ValueError(f"unknown test mode {mode!r}; expected 'relevant' or 'equivalence'")
    if pivot.sample.size == 0:
        raise ValueError("pivot sample is empty")
    statistic = path.statistic
    warnings = list(path.warnings)
    quantile = pivot.quantile(1.0 - alpha) if mode == "relevant" else pivot.quantile(alpha)
    if normalizer < DEGENERATE_NORMALIZER:
        warnings.append(
            "self-normalizer is numerically zero; retaining the null by convention"
        )
        ratio = None
        p_value = None
        decision = "retain"
    else:
        ratio = (statistic - delta) / normalizer
        p_value = pivot.prob_leq(ratio)
        if mode == "relevant":
            decision = "reject" if ratio > quantile else "retain"
        else:
            decision = "reject" if ratio < quantile else "retain"
    return TestResult(
        statistic=statistic,
        normalizer=normalizer,
        delta=delta,
        ratio=ratio,
        quantile=quantile,
        alpha=alpha,
        mode=mode,
        decision=decision,
        p_value=p_value,
        kind=path.kind,
        j=path.j,
        warnings=tuple(warnings),
    )
