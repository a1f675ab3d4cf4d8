"""Closed-form and brute-force oracles that the tests compare the library against.

Kernels here are plain R x R matrices; a coefficient-mode kernel has the
quadrature weight 1 and a grid-mode kernel on M nodes the weight 1/M.
"""

import os

import numpy as np

from eigenbreak.covkern import as_matrix, mode_weight
from eigenbreak.datagen import SHIFT_COORDS, DGPSpec


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


def cusum_objective(sample, k: int, *, mode: str = "coeff") -> float:
    """Weighted squared kernel distance between the first k and last N-k observations."""
    values = as_matrix(sample, mode)
    n = values.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"split index must lie in [1, {n - 1}], got {k}")
    weight = mode_weight(mode, values.shape[1])
    head, tail = values[:k], values[k:]
    diff = head.T @ head / k - tail.T @ tail / (n - k)
    return float(k * (n - k) / n**2 * weight**2 * np.sum(diff * diff))


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
