"""Discretized L2[0,1]: grid functions, quadrature, and the real Fourier basis.

Functions on [0,1] are represented by their values at the M midpoint nodes
t_m = (m - 1/2) / M, and integrals by the midpoint rule.  The midpoint rule
integrates every product of two order-T Fourier basis functions exactly once
M >= 2(T - 1), so the discrete basis is orthonormal to machine precision and
coefficient space is an exact finite-dimensional copy of the sample space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridFunction",
    "FourierBasis",
    "CoeffSeries",
    "fourier_basis",
    "midpoint_nodes",
    "synthesize",
]


def midpoint_nodes(m: int) -> np.ndarray:
    """Midpoint quadrature nodes (m - 1/2) / M on [0,1]."""
    if m < 2:
        raise ValueError(f"grid size must be at least 2, got {m}")
    return (np.arange(1, m + 1) - 0.5) / m


@dataclass(frozen=True)
class GridFunction:
    """A function on [0,1] sampled at M midpoint nodes."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("a grid function needs a 1-d vector of at least 2 values")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FourierBasis:
    """Real Fourier basis of odd order T evaluated at M midpoint nodes.

    Column ordering: the constant 1, then sqrt(2)*sin(2*pi*k*x) for
    k = 1 .. (T-1)/2, then sqrt(2)*cos(2*pi*k*x) for the same k.
    """

    order: int
    grid_size: int
    eval_matrix: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return midpoint_nodes(self.grid_size)


@dataclass(frozen=True)
class CoeffSeries:
    """N observed functions stored as rows of basis coefficients."""

    coeffs: np.ndarray
    basis: FourierBasis

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if coeffs.shape[0] < 1:
            raise ValueError("a coefficient series needs at least one row")
        if coeffs.shape[1] != self.basis.order:
            raise ValueError(
                f"coefficient rows have length {coeffs.shape[1]}, "
                f"basis order is {self.basis.order}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n_obs(self) -> int:
        return self.coeffs.shape[0]


def _evaluate_fourier(order: int, x: np.ndarray) -> np.ndarray:
    half = (order - 1) // 2
    out = np.ones(x.shape + (order,))
    for k in range(1, half + 1):
        out[..., k] = np.sqrt(2.0) * np.sin(2.0 * np.pi * k * x)
        out[..., half + k] = np.sqrt(2.0) * np.cos(2.0 * np.pi * k * x)
    return out


@lru_cache(maxsize=32)
def fourier_basis(order: int, grid_size: int) -> FourierBasis:
    """The real Fourier basis of odd order T on M midpoint nodes.

    Bases are memoized per (order, grid_size) and shared, so their
    ``eval_matrix`` is read-only.

    Parameters
    ----------
    order : int
        Odd number of basis functions T.
    grid_size : int
        Number of midpoint nodes M; must satisfy M >= 2 and M >= 2(T-1)
        so midpoint quadrature resolves every product frequency.

    Returns
    -------
    FourierBasis
    """
    if order < 1 or order % 2 == 0:
        raise ValueError(f"basis order must be an odd positive integer, got {order}")
    if grid_size < 2 or grid_size < 2 * (order - 1):
        raise ValueError(
            f"grid size {grid_size} cannot resolve a basis of order {order}; "
            f"need at least {max(2, 2 * (order - 1))} nodes"
        )
    eval_matrix = _evaluate_fourier(order, midpoint_nodes(grid_size))
    eval_matrix.flags.writeable = False
    return FourierBasis(order=order, grid_size=grid_size, eval_matrix=eval_matrix)


def synthesize(coeffs, basis: FourierBasis) -> GridFunction:
    """Evaluate the function with the given coefficient row on the basis grid."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.order,):
        raise ValueError(
            f"coefficient row has length {coeffs.size}, basis order is {basis.order}"
        )
    return GridFunction(basis.eval_matrix @ coeffs)


def _least_squares(design: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Coefficients minimizing |design @ c - samples|; the design needs full column rank.

    ``samples`` is one vector of D values or a (D, n) matrix of n of them;
    the coefficients are a length-T vector or a (T, n) matrix to match.
    """
    order, count = design.shape[1], samples.shape[0]
    if count < order:
        raise ValueError(f"projection needs at least {order} samples, got {count}")
    coeffs, _, rank, _ = np.linalg.lstsq(design, samples, rcond=None)
    if rank < order:
        raise ValueError(f"projection design is rank-deficient (rank {rank} < order {order})")
    return coeffs
