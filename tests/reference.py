"""Closed-form and brute-force oracles that the tests compare the library against,
and the helpers that build and read the acceptance fixtures.

Kernels here are plain R x R matrices; a coefficient-mode kernel has the
quadrature weight 1 and a grid-mode kernel on M nodes the weight 1/M.
"""

import os

import numpy as np

from eigenbreak.datagen import SHIFT_COORDS, DGPSpec
from eigenbreak.funcspace import _least_squares


def rotation_matrix(order: int, phi: float) -> np.ndarray:
    """Identity with a cos/sin rotation block on the first two coordinates."""
    rot = np.eye(order)
    c, s = np.cos(phi), np.sin(phi)
    rot[0, 0] = c
    rot[0, 1] = -s
    rot[1, 0] = s
    rot[1, 1] = c
    return rot


def population_kernels(spec: DGPSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact pre- and post-break covariance matrices in coefficient mode.

    These are the kernels targeted by the empirical estimators when the
    innovations are independent; useful for closed-form checks of kernel
    distances and eigensystems.
    """
    pre = np.diag(spec.tau)
    if spec.break_kind == "eigenvalue_shift":
        factors = np.ones(spec.T)
        factors[: min(SHIFT_COORDS, spec.T)] = 1.0 - np.sqrt(spec.magnitude)
        post = np.diag(spec.tau * factors)
    elif spec.break_kind == "rotation":
        rot = rotation_matrix(spec.T, spec.magnitude)
        post = rot @ np.diag(spec.tau) @ rot.T
    else:
        post = pre.copy()
    return pre, post


def kernel_distance_sq(c1: np.ndarray, c2: np.ndarray, weight: float) -> float:
    """Quadrature value of the squared L2 distance between two kernel matrices."""
    diff = c1 - c2
    return float(weight**2 * np.sum(diff * diff))


def cusum_objective(values, k: int) -> float:
    """The CUSUM objective of the split after the first k of N coefficient rows,
    written as its definition: one outer product per row, then the squared
    distance of the two parts' mean kernels, weighted by k (N - k) / N^2."""
    n, r = values.shape
    head = np.zeros((r, r))
    tail = np.zeros((r, r))
    for i in range(k):
        head += np.outer(values[i], values[i])
    for i in range(k, n):
        tail += np.outer(values[i], values[i])
    diff = head / k - tail / (n - k)
    return k * (n - k) / n**2 * float(np.sum(diff * diff))


def fourier_design(order: int, positions) -> np.ndarray:
    """The real Fourier basis of odd order T at arbitrary positions in [0,1], as a
    (D, T) design: the constant 1, then sqrt(2) sin(2 pi k x), then sqrt(2) cos(2 pi k x)."""
    x = np.asarray(positions, dtype=float)
    half = (order - 1) // 2
    design = np.ones(x.shape + (order,))
    for k in range(1, half + 1):
        design[..., k] = np.sqrt(2.0) * np.sin(2.0 * np.pi * k * x)
        design[..., half + k] = np.sqrt(2.0) * np.cos(2.0 * np.pi * k * x)
    return design


def project(samples: np.ndarray, positions, basis) -> np.ndarray:
    """Least-squares coefficients on ``basis`` of D values sampled at the given positions."""
    return _least_squares(fourier_design(basis.order, positions), samples)


def angle_for_distance_sq(dist_sq: float) -> float:
    """Rotation angle whose eigenfunction distance squared 2 - 2 cos(phi) is ``dist_sq``."""
    return float(np.arccos(1.0 - dist_sq / 2.0))


def rate_at(table, n_obs: int, magnitude: float) -> float:
    """Rejection rate of a table's (N, magnitude) cell."""
    for row in table.rows:
        if row.n_obs == n_obs and np.isclose(row.magnitude, magnitude):
            return row.rate
    raise KeyError(f"no cell (N={n_obs}, magnitude={magnitude}) in the table")


def write_eigenfunctions(out_dir, basis, pre, post) -> None:
    """Line-by-line writer of ``eigenfunctions.csv``: each segment's first five
    eigenfunctions of its ``(values, functions)`` pair on the basis nodes."""
    nodes = basis.nodes
    with open(os.path.join(out_dir, "eigenfunctions.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("segment,j,t,value\n")
        for name, (_, functions) in (("pre", pre), ("post", post)):
            for j, row in enumerate(functions[:5], start=1):
                for t, value in zip(nodes, basis.eval_matrix @ row):
                    fh.write(f"{name},{j},{float(t)!r},{float(value)!r}\n")
