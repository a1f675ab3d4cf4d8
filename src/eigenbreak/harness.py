"""Monte-Carlo driver tabulating rejection rates of the eigensystem tests.

Each (sample size, break magnitude) cell runs independent replicates of the
complete pipeline: generate a sample, estimate the change point, build the
sequential eigen-difference path, self-normalize, decide.  Replicate r of a
cell draws from a substream seeded by (master seed, N, magnitude bits, r),
so results are reproducible and identical for any worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .changepoint import estimate_changepoint, search_range
from .covkern import SplitSample
from .datagen import DGPSpec, generate
from .selfnorm import (
    DEFAULT_K,
    PATH_KINDS,
    NuMeasure,
    cached_pivot,
    decide,
    diff_path,
    seed_pivot_cache,
    self_normalizer,
)

__all__ = [
    "ExperimentConfig",
    "RejectionRow",
    "RejectionTable",
    "HistogramData",
    "EpsilonSweep",
    "run_experiment",
    "cell_outcomes",
    "epsilon_sweep",
]

_CHUNK = 250
#: equal-width bins on [0, 1] of each cell's theta_hat histogram in an epsilon sweep
_HIST_BINS = 20


@dataclass(frozen=True)
class ExperimentConfig:
    """Full recipe of one rejection-probability experiment.

    Every cell decides from the default pivot of the grid ``K``.
    """

    test_kind: str
    j: int
    delta: float
    break_kind: str
    magnitudes: tuple[float, ...]
    n_list: tuple[int, ...]
    replicates: int = 4000
    alpha: float = 0.05
    epsilon: float = 0.05
    K: int = DEFAULT_K
    seed: int = 0
    T: int = 21
    theta0: float = 0.5
    dependence: str = "iid"
    tau: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.test_kind not in PATH_KINDS:
            raise ValueError(f"unknown test kind {self.test_kind!r}; expected one of {PATH_KINDS}")
        if not 0.0 <= self.delta < np.inf:
            raise ValueError(
                f"relevance threshold must be finite and nonnegative, got {self.delta}")
        if len(self.magnitudes) == 0:
            raise ValueError("magnitude grid must not be empty")
        if len(self.n_list) == 0:
            raise ValueError("sample size list must not be empty")
        if self.replicates < 1:
            raise ValueError(f"need at least one replicate, got {self.replicates}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"test level must lie in (0,1), got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "magnitudes", tuple(float(m) for m in self.magnitudes))
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if self.tau is not None:
            object.__setattr__(self, "tau", tuple(float(t) for t in self.tau))
        # the rules of the data model, the measure and the trim live with them
        NuMeasure(self.K)
        for n_obs in self.n_list:
            for magnitude in self.magnitudes:
                self.spec(n_obs, magnitude)
            search_range(n_obs, self.epsilon)
        if not 1 <= self.j <= self.T:
            raise ValueError(f"eigen index j must lie in 1..T={self.T}, got {self.j}")

    def spec(self, n_obs: int, magnitude: float) -> DGPSpec:
        """Data model of the cell (n_obs, magnitude)."""
        return DGPSpec(N=n_obs, T=self.T, theta0=self.theta0, tau=self.tau,
                       dependence=self.dependence, break_kind=self.break_kind,
                       magnitude=magnitude)

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RejectionRow:
    """One tabulated cell with its reproduction recipe."""

    n_obs: int
    magnitude: float
    rate: float
    se: float
    mean_theta_hat: float
    replicates: int
    master_seed: int
    config_hash: str


@dataclass(frozen=True)
class RejectionTable:
    """Rejection rates over the (N, magnitude) grid of an experiment."""

    rows: tuple[RejectionRow, ...]
    config: ExperimentConfig

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("N,magnitude,rate,se,mean_theta_hat,replicates\n")
            for row in self.rows:
                fh.write(
                    f"{row.n_obs},{row.magnitude!r},{row.rate!r},{row.se!r},"
                    f"{row.mean_theta_hat!r},{row.replicates}\n"
                )

    def to_json(self, path) -> None:
        payload = {
            "config": asdict(self.config),
            "config_hash": self.config.config_hash(),
            "rows": [asdict(row) for row in self.rows],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")


@dataclass(frozen=True)
class HistogramData:
    """Change-point estimate histogram of one experiment cell."""

    epsilon: float
    n_obs: int
    magnitude: float
    counts: np.ndarray
    edges: np.ndarray


@dataclass(frozen=True)
class EpsilonSweep:
    """Per-epsilon rejection tables plus change-point histograms."""

    tables: tuple[tuple[float, RejectionTable], ...]
    histograms: tuple[HistogramData, ...]

    def histograms_to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("epsilon,N,magnitude,bin_left,bin_right,count\n")
            for hist in self.histograms:
                for left, right, count in zip(hist.edges[:-1], hist.edges[1:], hist.counts):
                    fh.write(
                        f"{hist.epsilon!r},{hist.n_obs},{hist.magnitude!r},"
                        f"{float(left)!r},{float(right)!r},{int(count)}\n"
                    )


def _magnitude_bits(magnitude: float) -> int:
    return int.from_bytes(struct.pack("<d", float(magnitude)), "little")


def run_replicate(config: ExperimentConfig, n_obs: int, magnitude: float,
                  rep: int) -> tuple[bool, float]:
    """One complete pipeline pass; returns (rejected, theta_hat)."""
    entropy = (config.seed, n_obs, _magnitude_bits(magnitude), rep)
    try:
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        series = generate(config.spec(n_obs, magnitude), rng)
        estimate = estimate_changepoint(series.coeffs, config.epsilon)
        split = SplitSample.at_index(series.coeffs, estimate.k_hat)
        nu = NuMeasure(config.K)
        path = diff_path(split, config.j, nu, config.test_kind)
        normalizer = self_normalizer(path, nu)
        pivot = cached_pivot(config.K)
        result = decide(path, normalizer, config.delta, pivot, config.alpha)
        return result.decision == "reject", estimate.theta_hat
    except Exception as exc:
        raise RuntimeError(
            f"replicate {rep} failed (N={n_obs}, magnitude={magnitude}, "
            f"seed entropy {entropy}): {exc}"
        ) from exc


def _run_chunk(args) -> list[tuple[bool, float]]:
    config, n_obs, magnitude, start, stop = args
    return [run_replicate(config, n_obs, magnitude, rep) for rep in range(start, stop)]


def _resolve_workers(workers: int | None) -> int:
    if workers is None:  # the CPUs this process may run on; a CPU mask can make them fewer
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"worker count must be nonnegative, got {workers}")
    return max(1, workers)


def cell_outcomes(config: ExperimentConfig, n_obs: int, magnitude: float,
                  workers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rejections and change-point estimates of every replicate of one cell.

    The replicate order of the output is fixed by replicate index, so the
    result does not depend on the worker count.  A pool holds at most one
    worker per chunk, and its workers receive this process's cached pivot
    through the pool initializer instead of simulating their own.
    """
    reps = config.replicates
    chunks = [
        (config, n_obs, magnitude, start, min(start + _CHUNK, reps))
        for start in range(0, reps, _CHUNK)
    ]
    # the fork start method forks every max_workers process at the first submit
    n_workers = min(_resolve_workers(workers), len(chunks))
    if n_workers == 1:
        results = [_run_chunk(chunk) for chunk in chunks]
    else:
        pivot = cached_pivot(config.K)
        with ProcessPoolExecutor(max_workers=n_workers, initializer=seed_pivot_cache,
                                 initargs=(pivot,)) as pool:
            results = list(pool.map(_run_chunk, chunks))
    flat = [item for chunk in results for item in chunk]
    rejects = np.array([r for r, _ in flat], dtype=bool)
    thetas = np.array([t for _, t in flat])
    return rejects, thetas


def _tabulate(config: ExperimentConfig,
              workers: int | None) -> tuple[RejectionTable, list[np.ndarray]]:
    """Rejection table of every (N, magnitude) cell, plus each cell's theta_hat."""
    rows = []
    cell_thetas = []
    chash = config.config_hash()
    for n_obs in config.n_list:
        for magnitude in config.magnitudes:
            rejects, thetas = cell_outcomes(config, n_obs, magnitude, workers)
            rate = float(rejects.mean())
            rows.append(
                RejectionRow(
                    n_obs=n_obs,
                    magnitude=float(magnitude),
                    rate=rate,
                    se=float(np.sqrt(rate * (1.0 - rate) / config.replicates)),
                    mean_theta_hat=float(thetas.mean()),
                    replicates=config.replicates,
                    master_seed=config.seed,
                    config_hash=chash,
                )
            )
            cell_thetas.append(thetas)
    return RejectionTable(rows=tuple(rows), config=config), cell_thetas


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> RejectionTable:
    """Tabulate rejection rates over the full (N, magnitude) grid.

    Parameters
    ----------
    config : ExperimentConfig
        Experiment recipe; its seed fixes every replicate.
    workers : int, optional
        Process count; None uses the machine's CPU count, 0 or 1 runs
        serially.  The table is identical for every choice.

    Returns
    -------
    RejectionTable
    """
    return _tabulate(config, workers)[0]


def _sweep_configs(config: ExperimentConfig, epsilons) -> list[ExperimentConfig]:
    """One config per boundary trim; an empty sweep or a repeated trim is refused."""
    sweep = [replace(config, epsilon=float(eps)) for eps in epsilons]
    if not sweep:
        raise ValueError("'epsilons' must hold at least one boundary trim")
    trims = [eps_config.epsilon for eps_config in sweep]
    for eps in trims:
        if trims.count(eps) > 1:
            raise ValueError(f"boundary trim {eps!r} is repeated in the sweep")
    return sweep


def epsilon_sweep(config: ExperimentConfig, epsilons, workers: int | None = None) -> EpsilonSweep:
    """Repeat an experiment for several boundary trims and bin the estimates.

    Parameters
    ----------
    config : ExperimentConfig
        Template; its epsilon field is replaced by each sweep value.
    epsilons : iterable of float
        Boundary trims to compare, at least one and none twice; every trim
        is checked before the first replicate runs.

    Returns
    -------
    EpsilonSweep
    """
    tables = []
    histograms = []
    for eps_config in _sweep_configs(config, epsilons):
        table, cell_thetas = _tabulate(eps_config, workers)
        tables.append((eps_config.epsilon, table))
        for row, thetas in zip(table.rows, cell_thetas):
            counts, edges = np.histogram(thetas, bins=_HIST_BINS, range=(0.0, 1.0))
            histograms.append(
                HistogramData(
                    epsilon=eps_config.epsilon,
                    n_obs=row.n_obs,
                    magnitude=row.magnitude,
                    counts=counts,
                    edges=edges,
                )
            )
    return EpsilonSweep(tables=tuple(tables), histograms=tuple(histograms))
