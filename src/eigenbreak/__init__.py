"""Self-normalized relevant-change tests for eigensystems of functional time series.

The package detects and sizes structural breaks in the eigenvalues and
eigenfunctions of the covariance operator of an L2[0,1]-valued time series:
a CUSUM scan locates the split, sequential sub-sample eigensystems supply a
self-normalizer, and Monte-Carlo quantiles of a Brownian-motion pivot turn
the normalized statistic into level-alpha decisions for hypotheses of the
form "squared change <= threshold".
"""

from .changepoint import ChangePointEstimate, estimate_changepoint, objective_curve
from .covkern import SplitSample
from .datagen import DGPSpec, apply_eigenvalue_break, apply_rotation_break, generate
from .funcspace import (
    CoeffSeries,
    FourierBasis,
    GridFunction,
    fourier_basis,
    synthesize,
)
from .harness import ExperimentConfig, RejectionTable, epsilon_sweep, run_experiment
from .selfnorm import (
    DiffPath,
    NuMeasure,
    PivotDistribution,
    TestResult,
    decide,
    diff_path,
    self_normalizer,
    simulate_pivot,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GridFunction",
    "FourierBasis",
    "CoeffSeries",
    "fourier_basis",
    "synthesize",
    "SplitSample",
    "ChangePointEstimate",
    "objective_curve",
    "estimate_changepoint",
    "NuMeasure",
    "DiffPath",
    "TestResult",
    "PivotDistribution",
    "simulate_pivot",
    "diff_path",
    "self_normalizer",
    "decide",
    "DGPSpec",
    "generate",
    "apply_eigenvalue_break",
    "apply_rotation_break",
    "ExperimentConfig",
    "RejectionTable",
    "run_experiment",
    "epsilon_sweep",
]
