"""Rows of function samples and the moment matrices of their prefixes.

A sample is an (n, R) array of rows, and a kernel is the symmetric R x R
moment matrix of some of them, in one of two representations:

* ``grid`` mode: entry (m, l) is the kernel value at midpoint nodes
  (t_m, t_l); double integrals carry the quadrature weight w = 1/M per axis.
* ``coeff`` mode: entry (k, l) is the coefficient of f_k(s) f_l(t) in an
  orthonormal basis expansion; integrals reduce to plain sums (w = 1).

Both modes run through identical code paths, differing only in w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SplitSample",
    "as_matrix",
    "prefix_count",
    "prefix_moments",
]

#: guard added before flooring n*lambda so that exactly representable
#: products (e.g. lambda = l/K with K | n) never lose a sample to rounding
FLOOR_GUARD = 1e-9


def mode_weight(mode: str, dim: int) -> float:
    if mode == "grid":
        return 1.0 / dim
    if mode == "coeff":
        return 1.0
    raise ValueError(f"unknown kernel mode {mode!r}; expected 'grid' or 'coeff'")


def as_matrix(sample, mode: str = "coeff") -> np.ndarray:
    """The (n, R) float matrix of a sample's rows, after checking the mode name and the values.

    The rows are coefficient vectors or grid values according to ``mode``.
    A row holding a ``nan`` or an infinity is refused by its index.
    """
    values = np.atleast_2d(np.asarray(sample, dtype=float))
    mode_weight(mode, values.shape[1])
    _refuse_non_finite(values)
    return values


def _refuse_non_finite(values: np.ndarray, first: int = 0) -> None:
    """Refuse a row holding a ``nan`` or an infinity, named by ``first`` plus its index."""
    # one flat pass; the row-wise reduction, 6x slower on (2000, 21), only on failure
    if not np.isfinite(values).all():
        row = first + int(np.argmin(np.isfinite(values).all(axis=1)))
        raise ValueError(f"sample row {row} (counting from 0) holds a non-finite value")


def prefix_count(n_seg: int, lam: float) -> int:
    """Number of leading observations entering the lambda-sequential kernel."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0,1], got {lam}")
    return int(np.floor(n_seg * lam + FLOOR_GUARD))


def prefix_moments(values: np.ndarray, counts) -> np.ndarray:
    """Stack of ``values[:m].T @ values[:m] / m`` for each m in ``counts``.

    The counts must not decrease and must lie in [0, n] for an (n, R) array
    of rows; a zero count gives the zero matrix.  One pass over the rows
    fills the (len(counts), R, R) result.
    """
    n, r = values.shape
    out = np.zeros((len(counts), r, r))
    acc = np.zeros((r, r))
    done = 0
    for i, m in enumerate(counts):
        if not done <= m <= n:
            raise ValueError(f"prefix counts must not decrease and lie in [0, {n}]")
        if m > done:
            block = values[done:m]
            acc += block.T @ block
            done = m
        if m:
            np.divide(acc, m, out=out[i])
    return out


@dataclass(frozen=True)
class SplitSample:
    """The two segments of a sample, before and after a change point.

    A row holding a ``nan`` or an infinity is refused by its index in the
    whole sample, ``pre`` followed by ``post``.
    """

    pre: np.ndarray
    post: np.ndarray
    mode: str = "coeff"

    def __post_init__(self):
        pre, post = (np.atleast_2d(np.asarray(part, dtype=float))
                     for part in (self.pre, self.post))
        if pre.shape[0] < 1 or post.shape[0] < 1:
            raise ValueError("both parts of a split sample must be nonempty")
        if pre.shape[1] != post.shape[1]:
            raise ValueError("split parts must share their dimension")
        mode_weight(self.mode, pre.shape[1])
        _refuse_non_finite(pre)
        _refuse_non_finite(post, len(pre))
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)

    @classmethod
    def at_index(cls, sample, k: int, *, mode: str = "coeff") -> "SplitSample":
        """Split a sample after its k-th observation (1-based)."""
        values = np.atleast_2d(np.asarray(sample, dtype=float))
        n = values.shape[0]
        if not 1 <= k <= n - 1:
            raise ValueError(f"split index must lie in [1, {n - 1}], got {k}")
        return cls(pre=values[:k], post=values[k:], mode=mode)
