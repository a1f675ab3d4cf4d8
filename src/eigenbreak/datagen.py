"""Synthetic functional time series with planted second-order breaks.

Observations are Fourier coefficient rows a_n drawn from centered Gaussian
innovations with variances tau_1 >= tau_2 >= ..., optionally filtered by a
first-order moving average, and optionally transformed after a break
fraction theta0: either the first four coordinates are downscaled (an
eigenvalue shift of the covariance kernel) or the first two coordinates are
rotated (an eigenfunction rotation at fixed eigenvalues).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covkern import FLOOR_GUARD
from .funcspace import CoeffSeries, fourier_basis

__all__ = [
    "DGPSpec",
    "fma1_psi",
    "generate",
    "apply_eigenvalue_break",
    "apply_rotation_break",
]

DEPENDENCES = ("iid", "fma1")
BREAK_KINDS = ("none", "eigenvalue_shift", "rotation")

DEFAULT_ORDER = 21
DEFAULT_GRID = 200

#: number of leading coordinates affected by the eigenvalue-shift break
SHIFT_COORDS = 4


def default_tau(order: int) -> np.ndarray:
    """Default eigenvalue sequence 1/k^2, k = 1..T."""
    return 1.0 / np.arange(1, order + 1) ** 2


def fma1_psi(order: int) -> float:
    """MA coefficient variance solving E||Psi||_1 = 1 for the entrywise norm.

    A T x T matrix of N(0, psi) entries has expected entrywise absolute sum
    T^2 * sqrt(2 psi / pi); equal to one at psi = pi / (2 T^4).
    """
    return np.pi / (2.0 * order**4)


@dataclass(frozen=True)
class DGPSpec:
    """Parameters of one synthetic sample."""

    N: int
    T: int = DEFAULT_ORDER
    theta0: float = 0.5
    tau: np.ndarray | None = None
    dependence: str = "iid"
    break_kind: str = "none"
    magnitude: float = 0.0
    seed: int | None = None
    grid_size: int = DEFAULT_GRID

    def __post_init__(self):
        if self.N < 4:
            raise ValueError(f"sample size must be at least 4, got {self.N}")
        if self.T < 1 or self.T % 2 == 0:
            raise ValueError(f"basis order must be odd and positive, got {self.T}")
        if not 0.0 < self.theta0 < 1.0:
            raise ValueError(f"break fraction must lie in (0,1), got {self.theta0}")
        tau = default_tau(self.T) if self.tau is None else np.asarray(self.tau, dtype=float)
        if tau.shape != (self.T,):
            raise ValueError(f"tau must have length {self.T}")
        if not (np.isfinite(tau).all() and (tau > 0.0).all() and (np.diff(tau) <= 0.0).all()):
            raise ValueError("tau must be finite, strictly positive and non-increasing")
        if self.dependence not in DEPENDENCES:
            raise ValueError(f"unknown dependence {self.dependence!r}; expected one of {DEPENDENCES}")
        if self.break_kind not in BREAK_KINDS:
            raise ValueError(f"unknown break kind {self.break_kind!r}; expected one of {BREAK_KINDS}")
        if not np.isfinite(self.magnitude):
            raise ValueError(f"break magnitude must be finite, got {self.magnitude}")
        if self.break_kind == "eigenvalue_shift" and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError(f"eigenvalue-shift magnitude must lie in [0,1], got {self.magnitude}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "tau", tau)


def break_index(n: int, theta0: float) -> int:
    """Last pre-break observation index floor(N * theta0), 1-based."""
    return int(np.floor(n * theta0 + FLOOR_GUARD))


def apply_eigenvalue_break(coeffs: np.ndarray, magnitude: float,
                           theta0: float) -> np.ndarray:
    """Downscale the first four coordinates of post-break rows by sqrt(1 - sqrt(E)).

    Works on a copy of the (N, T) coefficient rows.  The resulting
    second-segment kernel has its leading four eigenvalues multiplied by
    (1 - sqrt(E)), giving squared eigenvalue differences E / j^4 for j <= 4
    and zero beyond.
    """
    if not 0.0 <= magnitude <= 1.0:
        raise ValueError(f"eigenvalue-shift magnitude must lie in [0,1], got {magnitude}")
    out = np.array(coeffs, dtype=float, ndmin=2)
    k0 = break_index(out.shape[0], theta0)
    cols = min(SHIFT_COORDS, out.shape[1])
    out[k0:, :cols] *= np.sqrt(1.0 - np.sqrt(magnitude))
    return out


def apply_rotation_break(coeffs: np.ndarray, phi: float, theta0: float) -> np.ndarray:
    """Rotate the first two coordinates of post-break rows by the angle phi, on a copy."""
    out = np.array(coeffs, dtype=float, ndmin=2)
    k0 = break_index(out.shape[0], theta0)
    a1 = out[k0:, 0].copy()
    a2 = out[k0:, 1].copy()
    c, s = np.cos(phi), np.sin(phi)
    out[k0:, 0] = c * a1 - s * a2
    out[k0:, 1] = s * a1 + c * a2
    return out


def generate(spec: DGPSpec, rng: np.random.Generator | None = None) -> CoeffSeries:
    """Draw one sample of N coefficient rows according to a specification.

    Parameters
    ----------
    spec : DGPSpec
        Sample size, basis order, eigenvalues, dependence, and break.
    rng : numpy.random.Generator, optional
        Source of randomness; overrides ``spec.seed`` (used by experiment
        drivers that manage replicate substreams themselves).

    Returns
    -------
    CoeffSeries
        N rows of coefficients; deterministic given (spec, seed).
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    eps = rng.standard_normal((spec.N + 1, spec.T)) * np.sqrt(spec.tau)
    if spec.dependence == "fma1":
        psi = fma1_psi(spec.T)
        ma_matrix = rng.normal(0.0, np.sqrt(psi), (spec.T, spec.T))
        coeffs = (eps[1:] + eps[:-1] @ ma_matrix.T) / np.sqrt(1.0 + psi)
    else:
        coeffs = eps[1:]
    if spec.break_kind == "eigenvalue_shift":
        coeffs = apply_eigenvalue_break(coeffs, spec.magnitude, spec.theta0)
    elif spec.break_kind == "rotation":
        coeffs = apply_rotation_break(coeffs, spec.magnitude, spec.theta0)
    return CoeffSeries(coeffs, fourier_basis(spec.T, spec.grid_size))
