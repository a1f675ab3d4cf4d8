"""CUSUM objective on second-moment kernels and the restricted argmax estimator."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .covkern import FLOOR_GUARD, as_matrix, mode_weight

__all__ = [
    "ChangePointEstimate",
    "cusum_objective",
    "objective_curve",
    "estimate_changepoint",
]


@dataclass(frozen=True)
class ChangePointEstimate:
    """Restricted argmax of the CUSUM objective over candidate split indices."""

    k_hat: int
    theta_hat: float
    ks: np.ndarray
    objective: np.ndarray
    epsilon: float
    n_obs: int


#: bytes of scratch an objective scan may hold per work array; the scan
#: visits the observations in blocks of this size, so its memory is
#: bounded in N
SCAN_BLOCK_BYTES = 1 << 20


def _block_len(item_bytes: int) -> int:
    return max(1, SCAN_BLOCK_BYTES // item_bytes)


def _deviation_norms(values: np.ndarray) -> np.ndarray:
    """||D_k||_F^2 for k = 1..N-1, with D_k = S_k - (k/N) S, by a blocked recursion.

    With Y_i = x_i x_i^T - S/N, a block of rows that follows the first s
    observations gives ||D_{s+t}||^2 = ||D_s||^2 + 2 sum_{i<=t} <D_s, Y_i>
    + sum_{i,j<=t} <Y_i, Y_j>, where <D_s, Y_i> = x_i^T D_s x_i - <D_s, S/N>
    and the pair sum is the leading t x t sum of the squared Gram block P,
    minus 2t Q_t, plus t^2 ||S/N||^2; Q_t sums q_i = x_i^T (S/N) x_i.  Each
    term is a matrix product on R x R or b x b blocks.  D_s is formed afresh
    from the carried S_s at every block, so rounding does not build up from
    one block to the next, and every Y_i of identical observations is zero.
    """
    n, r = values.shape
    total = values.T @ values
    mean = total / n
    mean_sq = np.sum(mean * mean)
    # b x b Gram blocks of a 64th of the budget, 128 x 128 by default, stay
    # in cache: at N=2000, R=21, blocks of 256 rows were ~1.4x slower
    step = min(max(1, isqrt(SCAN_BLOCK_BYTES // 64)), n - 1)
    # weight 2 below the diagonal and 1 on it: the cumulative weighted row
    # sums of P are its leading t x t sums
    pair_weights = np.tril(np.full((step, step), 2.0), -1) + np.eye(step)
    head = np.zeros((r, r))
    norms = np.empty(n - 1)
    for start in range(0, n - 1, step):
        stop = min(start + step, n - 1)
        block = values[start:stop]
        t = np.arange(1, stop - start + 1, dtype=float)
        dev = (n * head - start * total) / n
        gram = block @ block.T
        gram *= gram
        rows = np.einsum("ij,ij->i", gram, pair_weights[: stop - start, : stop - start])
        rows += 2.0 * np.einsum("ij,ij->i", block @ dev, block)
        quad = np.einsum("ij,ij->i", block @ mean, block)
        norms[start:stop] = (np.sum(dev * dev) + np.cumsum(rows)
                             - t * (2.0 * np.sum(dev * mean) + 2.0 * np.cumsum(quad) - t * mean_sq))
        head += block.T @ block
    # the expansion can cancel to a tiny negative where the norm is ~0
    return np.maximum(norms, 0.0, out=norms)


def _gram_distances(values: np.ndarray) -> np.ndarray:
    """||S_k/k - (S-S_k)/(N-k)||_F^2 for k = 1..N-1 from H = (X X^T) squared elementwise.

    ||S_k||^2 sums H over its leading k x k block and <S_k, S> sums its
    first k rows.  H is symmetric, so only its lower triangle is built, one
    block of rows at a time; the part of a row right of the diagonal is
    collected from the column sums of the blocks below.
    """
    n = values.shape[0]
    lower = np.empty(n)
    upper = np.zeros(n)
    diag = np.empty(n)
    step = _block_len(8 * n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        h = values[start:stop] @ values[:stop].T
        h *= h
        diag[start:stop] = np.diagonal(h, offset=start)
        h[:, start:] = np.tril(h[:, start:], -1)
        lower[start:stop] = h.sum(axis=1)
        upper[:stop] += h.sum(axis=0)
    head_sq = np.cumsum(2.0 * lower + diag)[:-1]
    head_dot = np.cumsum(lower + diag + upper)
    total_sq = head_dot[-1]
    ks = np.arange(1, n, dtype=float)
    tail_n = n - ks
    scale = 1.0 / ks + 1.0 / tail_n
    dist = scale * scale * head_sq - 2.0 * scale / tail_n * head_dot[:-1] + total_sq / tail_n**2
    # the expansion can cancel to a tiny negative where the distance is ~0
    return np.maximum(dist, 0.0, out=dist)


def objective_curve(sample, *, mode: str = "coeff") -> np.ndarray:
    """CUSUM objective f(k) at every split index k = 1..N-1.

    f(k) = k(N-k)/N^2 * w^2 * ||S_k/k - (S-S_k)/(N-k)||_F^2 = w^2 ||D_k||_F^2 / (k(N-k)),
    with S_k the sum of the first k outer products and D_k = S_k - (k/N) S.
    When N > R(R+1)/2 the scan runs a blocked recursion for ||D_k||^2 on R x R
    and b x b matrix products; otherwise it works in the N x N Gram form.
    Either way it holds O(R^2 + N) floats plus blocks of at most
    SCAN_BLOCK_BYTES, never an (N, R, R) array.
    """
    values, mode = as_matrix(sample, mode)
    n, r = values.shape
    if n < 2:
        raise ValueError("the objective needs at least two observations")
    weight = mode_weight(mode, r)
    ks = np.arange(1, n)
    if n > r * (r + 1) // 2:
        return weight**2 * _deviation_norms(values) / (ks * (n - ks))
    dist_sq = weight**2 * _gram_distances(values)
    return ks * (n - ks) / n**2 * dist_sq


def cusum_objective(sample, k: int, *, mode: str = "coeff") -> float:
    """Weighted squared kernel distance between the first k and last N-k observations."""
    values, mode = as_matrix(sample, mode)
    n = values.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"split index must lie in [1, {n - 1}], got {k}")
    weight = mode_weight(mode, values.shape[1])
    head, tail = values[:k], values[k:]
    diff = head.T @ head / k - tail.T @ tail / (n - k)
    return float(k * (n - k) / n**2 * weight**2 * np.sum(diff * diff))


def search_range(n: int, epsilon: float) -> tuple[int, int]:
    """Inclusive candidate range [ceil(N*eps), floor(N*(1-eps))] clipped to [1, N-1]."""
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(f"boundary trim must lie in [0, 0.5), got {epsilon}")
    lo = max(1, int(np.ceil(n * epsilon - FLOOR_GUARD)))
    hi = min(n - 1, int(np.floor(n * (1.0 - epsilon) + FLOOR_GUARD)))
    return lo, hi


def estimate_changepoint(sample, epsilon: float = 0.05, *,
                         mode: str = "coeff") -> ChangePointEstimate:
    """Estimate the change fraction as the restricted argmax of the CUSUM objective.

    Parameters
    ----------
    sample : sample of functions
        At least 4 observations.
    epsilon : float
        Boundary trim in [0, 0.5); candidate splits are restricted to
        [N*epsilon, N*(1-epsilon)].  With epsilon = 0 every split
        1 <= k <= N-1 is searched.

    Returns
    -------
    ChangePointEstimate
        Smallest maximizing index (deterministic tie-break) with the
        objective values over the searched range.
    """
    values, mode = as_matrix(sample, mode)
    n = values.shape[0]
    if n < 4:
        raise ValueError(f"change point estimation needs at least 4 observations, got {n}")
    lo, hi = search_range(n, epsilon)
    curve = objective_curve(values, mode=mode)
    ks = np.arange(lo, hi + 1)
    restricted = curve[lo - 1 : hi]
    k_hat = int(ks[int(np.argmax(restricted))])
    return ChangePointEstimate(
        k_hat=k_hat,
        theta_hat=k_hat / n,
        ks=ks,
        objective=restricted,
        epsilon=epsilon,
        n_obs=n,
    )
