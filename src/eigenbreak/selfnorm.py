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

from .covkern import SplitSample, mode_weight, prefix_count
from .eigensys import aligned_distance_sq, gap_warning, prefix_eigenpairs

__all__ = [
    "NuMeasure",
    "DiffPath",
    "EigenPaths",
    "TestResult",
    "PivotDistribution",
    "simulate_pivot",
    "cached_pivot",
    "seed_pivot_cache",
    "sequential_eigensystem_paths",
    "diff_path",
    "self_normalizer",
    "decide",
]

DEFAULT_K = 20
DEFAULT_PIVOT_REPLICATES = 500_000
DEFAULT_PIVOT_SEED = 271828
PATH_KINDS = ("eigenvalue", "eigenfunction")

#: normalizers below this are treated as degenerate: retain with a warning
#: instead of dividing by a numerical zero
DEGENERATE_NORMALIZER = 1e-12

_PIVOT_CHUNK = 100_000
_PIVOT_BLOCK_BYTES = 16 * 2**20
_CACHE_GRID = 10_000


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
    """Decision record of one relevant-change test."""

    statistic: float
    normalizer: float
    delta: float
    ratio: float | None
    quantile: float
    alpha: float
    decision: str
    p_value: float | None
    kind: str
    j: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class PivotDistribution:
    """Sorted Monte-Carlo sample of the limiting pivot statistic.

    The sample holds 1 to R finite, non-decreasing values: the R draws on
    the grid of ``NuMeasure(K)`` or quantiles of them.  It is a read-only
    copy of the one given, so the quantiles memoized per probability
    cannot go stale.
    """

    K: int
    sample: np.ndarray
    seed: int
    R: int
    _quantiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        NuMeasure(self.K)
        sample = np.array(self.sample)
        if sample.ndim != 1 or not 1 <= sample.size <= self.R:
            raise ValueError(f"a pivot sample holds 1 to R={self.R} values in a vector, "
                             f"got shape {sample.shape}")
        if not np.isfinite(sample).all() or (sample[1:] < sample[:-1]).any():
            raise ValueError("pivot sample values must be finite and non-decreasing")
        sample.flags.writeable = False
        object.__setattr__(self, "sample", sample)

    def __reduce__(self):
        # rebuild through __init__, so an unpickled sample is read-only too
        return (type(self), (self.K, self.sample, self.seed, self.R))

    def quantile(self, p: float) -> float:
        value = self._quantiles.get(p)
        if value is None:
            value = self._quantiles[p] = float(np.quantile(self.sample, p))
        return value

    def prob_leq(self, x: float) -> float:
        """Empirical probability that the pivot is <= x."""
        return float(np.searchsorted(self.sample, x, side="right")) / self.sample.size

    def summary(self) -> "PivotDistribution":
        """The quantiles at the midpoints of a grid of at most 10k probabilities.

        This is the pivot that ``save`` writes and ``load`` reads back.
        """
        grid = min(self.sample.size, _CACHE_GRID)
        values = np.quantile(self.sample, (np.arange(grid) + 0.5) / grid)
        return PivotDistribution(K=self.K, sample=values, seed=self.seed, R=self.R)

    def save(self, path) -> None:
        """Write a plain-text quantile summary keyed by (K, R, seed)."""
        values = self.summary().sample
        probs = (np.arange(values.size) + 0.5) / values.size
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# eigenbreak pivot quantile cache\n")
            fh.write(f"# K={self.K} R={self.R} seed={self.seed}\n")
            fh.write("probability,quantile\n")
            for p, v in zip(probs, values):
                fh.write(f"{float(p)!r},{float(v)!r}\n")

    @classmethod
    def load(cls, path) -> "PivotDistribution":
        """Read back a file that ``save`` wrote; refuse any other content, naming the file."""
        with open(path, "r", encoding="utf-8") as fh:
            title, meta, columns = (fh.readline().rstrip("\n") for _ in range(3))
            rows = fh.readlines()
        try:
            keys = [token.partition("=") for token in meta.removeprefix("# ").split()]
            if [title, columns, *(key for key, _, _ in keys)] != [
                    "# eigenbreak pivot quantile cache", "probability,quantile", "K", "R", "seed"]:
                raise ValueError("its first three lines are not the header that save writes")
            K, R, seed = (int(value) for _, _, value in keys)
            values = _quantile_column(rows) if rows else np.empty(0)
            return cls(K=K, sample=values, seed=seed, R=R)
        except ValueError as exc:
            raise ValueError(f"{path} is not a pivot quantile cache: {exc}") from None


def _quantile_column(rows: list[str]) -> np.ndarray:
    """Quantiles of the cache rows from file line 4 on; a failure names its file line."""
    try:
        return np.loadtxt(rows, delimiter=",", usecols=1, ndmin=1)
    except ValueError:  # loadtxt numbers the rows its own way
        for line, row in enumerate(rows, start=4):
            if row.partition("#")[0].strip():  # loadtxt skips blank and comment lines
                try:
                    np.loadtxt([row], delimiter=",", usecols=1)
                except ValueError as exc:
                    raise ValueError(f"line {line}: {str(exc).partition(' at row ')[0]}") from None
        raise


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
    lams = NuMeasure(K).points
    if R < 1:
        raise ValueError(f"the pivot sample needs R >= 1 replicates, got {R}")
    if seed < 0:
        raise ValueError(f"pivot seed must be nonnegative, got {seed}")
    # a chunk's draws come in row blocks of at most _PIVOT_BLOCK_BYTES from
    # its one generator, which fills rows in order: the same draws as one block
    rows = max(1, _PIVOT_BLOCK_BYTES // (8 * K))
    out = np.empty(R)
    for chunk_idx, start in enumerate(range(0, R, _PIVOT_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_idx)))
        stop = min(start + _PIVOT_CHUNK, R)
        for pos in range(start, stop, rows):
            n = min(rows, stop - pos)
            # one (n, K) buffer holds the increments, the motion and the bridge
            motion = rng.standard_normal((n, K))
            motion *= np.sqrt(1.0 / K)
            np.cumsum(motion, axis=1, out=motion)
            end = motion[:, -1].copy()
            bridge = motion[:, :-1]
            for col, lam in enumerate(lams):  # no (n, K - 1) temporary beside the buffer
                bridge[:, col] -= lam * end
            np.square(bridge, out=bridge)
            bridge *= lams**2
            out[pos : pos + n] = end / np.sqrt(np.mean(bridge, axis=1))
            del motion, bridge  # unbound before the next block's buffer is drawn
    out.sort()
    return PivotDistribution(K=K, sample=out, seed=seed, R=R)


#: the default pivot of the grid K this process last asked for
_PIVOT: PivotDistribution | None = None


def seed_pivot_cache(pivot: PivotDistribution) -> None:
    """Hold ``pivot`` as this process's default pivot of its grid K.

    Pool workers run this as their initializer with the parent's pivot, so
    no worker simulates one.  Only the full default sample is accepted:
    neither a quantile summary nor a sample of another R or seed may stand
    in for it.
    """
    global _PIVOT
    if (pivot.sample.size, pivot.R, pivot.seed) != (
            DEFAULT_PIVOT_REPLICATES, DEFAULT_PIVOT_REPLICATES, DEFAULT_PIVOT_SEED):
        raise ValueError(
            f"only the full default pivot can be cached; this one holds "
            f"{pivot.sample.size} of R={pivot.R} draws with seed {pivot.seed}"
        )
    _PIVOT = pivot


def cached_pivot(K: int) -> PivotDistribution:
    """The default pivot of grid K, simulated unless this process holds it."""
    if _PIVOT is None or _PIVOT.K != K:
        seed_pivot_cache(simulate_pivot(K))
    return _PIVOT


@dataclass(frozen=True)
class EigenPaths:
    """Sequential eigensystems of both split segments along the lambda grid.

    Rows of ``values*`` hold the leading p_max + 1 (at most R) eigenvalues
    per lambda; rows of ``functions*`` hold the leading matching
    eigenfunctions asked for, at most p_max: the ones a test reads (zero
    rows where the lambda-prefix of a segment is empty and the kernel
    degenerates, or where the eigenvalue is at round-off, as
    ``eigensys.prefix_eigenpairs`` leaves them).
    """

    lambdas: np.ndarray
    values1: np.ndarray
    values2: np.ndarray
    functions1: np.ndarray
    functions2: np.ndarray
    weight: float
    p_max: int

    def diff(self, j: int, kind: str) -> DiffPath:
        """Test path of the j-th eigenpair, with gap warnings at lambda = 1.

        'eigenvalue' squares the segments' eigenvalue difference per lambda;
        'eigenfunction' takes the squared sign-free distance of their
        eigenfunctions on the raw vectors, since a zero kernel's are zero.
        """
        if kind not in PATH_KINDS:
            raise ValueError(f"unknown path kind {kind!r}; "
                             "expected 'eigenvalue' or 'eigenfunction'")
        n = self.p_max if kind == "eigenvalue" else self.functions1.shape[1]
        if not 1 <= j <= n:
            raise ValueError(f"eigen index {j} exceeds the decomposed {kind} range 1..{n}")
        if kind == "eigenvalue":
            values = (self.values1[:, j - 1] - self.values2[:, j - 1]) ** 2
        else:
            values = aligned_distance_sq(self.functions1[:, j - 1], self.functions2[:, j - 1],
                                         weight=self.weight)
        notes = []
        for label, vals in (("first segment", self.values1), ("second segment", self.values2)):
            note = gap_warning(vals[-1], j)
            if note is not None:
                notes.append(f"{label}: {note}")
        return DiffPath(lambdas=self.lambdas, values=values, j=j, kind=kind,
                        warnings=tuple(notes))


def sequential_eigensystem_paths(split: SplitSample, p_max: int, nu: NuMeasure,
                                 *, functions: int) -> EigenPaths:
    """Eigen-decompose both segments' uncentred sequential kernels on the nu grid plus 1.

    One extra eigenvalue beyond ``p_max`` is kept when available so that
    eigen-gap degeneracy around the tested index can be diagnosed.  Only
    the leading ``functions`` <= p_max eigenfunctions are computed: an
    eigenfunction test of index j reads the j-th, an eigenvalue test none.

    Segments of a single observation are allowed (they occur for extreme
    splits, e.g. with no boundary trim): their sub-sample kernels at
    lambda < 1 degenerate to zero kernels with zero eigenfunctions.
    """
    r = split.pre.shape[1]
    if not 1 <= p_max <= r:
        raise ValueError(f"eigen index range must lie in [1, {r}], got {p_max}")
    if not 0 <= functions <= p_max:
        raise ValueError(f"eigenfunction count must lie in [0, {p_max}], got {functions}")
    weight = mode_weight(split.mode, r)
    lambdas = np.append(nu.points, 1.0)
    p = min(r, p_max + 1)
    (vals1, funcs1), (vals2, funcs2) = (
        prefix_eigenpairs(rows, [prefix_count(len(rows), lam) for lam in lambdas],
                          weight, p, functions)
        for rows in (split.pre, split.post))
    return EigenPaths(
        lambdas=lambdas,
        values1=vals1,
        values2=vals2,
        functions1=funcs1,
        functions2=funcs2,
        weight=weight,
        p_max=p_max,
    )


def diff_path(split: SplitSample, j: int, nu: NuMeasure, kind: str) -> DiffPath:
    """Sequential squared-difference path of the j-th eigenpair of a split sample.

    Parameters
    ----------
    split : SplitSample
        The two segments, whose rows the kernels average as given.
    j : int
        Eigen index, 1-based.
    nu : NuMeasure
        Weighting measure; the path is evaluated on its support plus 1.
    kind : {'eigenvalue', 'eigenfunction'}
        Which eigen-difference to track.

    Returns
    -------
    DiffPath
    """
    return sequential_eigensystem_paths(
        split, j, nu, functions=j if kind == "eigenfunction" else 0).diff(j, kind)


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
           pivot: PivotDistribution, alpha: float) -> TestResult:
    """Decision rule for a relevant-change test.

    Parameters
    ----------
    path : DiffPath
        Sequential statistic path; its value at lambda = 1 is the statistic.
    normalizer : float
        Self-normalizer belonging to the path.
    delta : float
        Relevance threshold, >= 0.
    pivot : PivotDistribution
        Monte-Carlo pivot sample supplying quantiles and p-values, on the
        path's grid: its K is the number of lambdas on the path.
    alpha : float
        Test level in (0, 1); the no-relevant-change null is rejected when
        the normalized statistic exceeds the pivot's (1 - alpha)-quantile.

    Returns
    -------
    TestResult
        With Monte-Carlo p-value P(pivot <= ratio); a numerically zero
        normalizer yields a conservative retain with a warning.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"relevance threshold must be finite and nonnegative, got {delta}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"test level must lie in (0,1), got {alpha}")
    # the path holds the K - 1 points of NuMeasure(K) plus lambda = 1
    if pivot.K != path.lambdas.size:
        raise ValueError(f"pivot was built for K={pivot.K}, but the path's grid "
                         f"has K={path.lambdas.size}")
    statistic = path.statistic
    warnings = list(path.warnings)
    quantile = pivot.quantile(1.0 - alpha)
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
        decision = "reject" if ratio > quantile else "retain"
    return TestResult(
        statistic=statistic,
        normalizer=normalizer,
        delta=delta,
        ratio=ratio,
        quantile=quantile,
        alpha=alpha,
        decision=decision,
        p_value=p_value,
        kind=path.kind,
        j=path.j,
        warnings=tuple(warnings),
    )
