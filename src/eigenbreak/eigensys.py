"""Eigen-decomposition of covariance kernels and sign-free function distances.

Eigenvalues are reported on the integral-operator scale (matrix eigenvalues
times the quadrature weight) and eigenfunctions are rescaled to unit
quadrature norm, so both modes of :class:`~eigenbreak.covkern.CovKernel`
yield directly comparable spectral data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covkern import CovKernel, prefix_moments

__all__ = [
    "EigenSystem",
    "eigendecompose",
    "operator_eigh",
    "prefix_eigenpairs",
    "aligned_distance_sq",
    "gap_warning",
]

#: relative eigenvalue gap below which neighbouring eigenpairs are treated
#: as numerically degenerate and downstream tests attach a warning; an
#: eigenvalue this close to zero leaves its eigenfunction unidentified
DEGENERACY_RTOL = 1e-10

#: machine epsilons of the leading eigenvalue added to each shift, so that
#: M - sigma I is not exactly singular when eigvalsh returns sigma exactly
SHIFT_EPS = 1024

#: kernels of fewer dimensions keep every prefix in the R x R stack: there
#: one more stacked matrix costs 45-60 us, no more than a separate m x m
#: Gram eigh with numpy's ~25 us fixed cost per call (1 BLAS thread, R=21),
#: while from R=31 on the Gram form of m <= 3R/4 rows takes half or less.
#: The stack of a smaller kernel takes eigvalsh plus shifted solves (20
#: prefixes of R=21: 0.4 + 2 x 0.1 ms against 1.1 ms for eigh); from this
#: R on eigh stays, as the solves lost on Gram blocks of rank <= 21
_GRAM_MIN_DIM = 32


def gap_warning(eigenvalues, j: int) -> str | None:
    """Degeneracy warning if the gaps around the j-th eigenvalue vanish."""
    vals = np.asarray(eigenvalues, dtype=float)
    if j < 1 or j > vals.size:
        raise ValueError(f"eigen index {j} outside the decomposed range 1..{vals.size}")
    top = abs(vals[0]) if vals.size else 0.0
    gaps = []
    if j >= 2:
        gaps.append(vals[j - 2] - vals[j - 1])
    if j < vals.size:
        gaps.append(vals[j - 1] - vals[j])
    if gaps and min(gaps) < DEGENERACY_RTOL * max(top, 1e-300):
        return (
            f"eigenvalue gap around index {j} is below {DEGENERACY_RTOL:g} "
            "of the leading eigenvalue; the eigenpair is not identifiable"
        )
    return None


@dataclass(frozen=True)
class EigenSystem:
    """Leading eigenpairs of a covariance kernel, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    weight: float


def _canonical_signs(functions: np.ndarray) -> np.ndarray:
    """Flip each row so its first significantly nonzero entry is positive."""
    out = functions.copy()
    for row in out:
        scale = np.abs(row).max()
        if scale == 0.0:
            continue
        nz = np.nonzero(np.abs(row) > 1e-12 * scale)[0]
        if nz.size and row[nz[0]] < 0.0:
            row *= -1.0
    return out


def operator_eigh(matrices: np.ndarray, weight: float, p: int, q: int):
    """Leading p eigenvalues and q <= p eigenfunctions of one kernel matrix or a stack.

    Returns ``(values, functions)`` on the operator scale: eigenvalues
    descending times ``weight``, shape (..., p), and the first q matching
    eigenfunctions as rows of unit quadrature norm, shape (..., q, R), with
    their signs as ``eigh`` leaves them.  With q = 0 only ``eigvalsh`` runs.
    """
    if q:
        vals, vecs = np.linalg.eigh(matrices)
    else:
        vals, vecs = np.linalg.eigvalsh(matrices), np.empty(matrices.shape[:-1] + (0,))
    # eigh returns unit Euclidean columns; unit quadrature norm needs 1/sqrt(w)
    functions = np.swapaxes(vecs[..., ::-1][..., :q], -1, -2) / np.sqrt(weight)
    return vals[..., ::-1][..., :p] * weight, functions


def _gram_eigh(rows: np.ndarray, gram: np.ndarray, weight: float, p: int, q: int):
    """Leading p eigenvalues and q <= p eigenfunctions of ``rows.T @ rows / m`` by its dual.

    ``rows`` holds m observations (m, R) and ``gram`` their Gram matrix
    ``rows @ rows.T``.  The nonzero eigenvalues of the R x R kernel equal
    those of ``gram / m``, and a Gram eigenvector u gives the kernel
    eigenvector ``rows.T @ u``, renormalised here to unit length.  For
    p <= m < R this decomposes an m x m matrix in place of an R x R one.
    Returns what :func:`operator_eigh` returns for one matrix, except that a
    pair whose Gram eigenvector lies in the null space of ``rows.T`` keeps a
    zero function.
    """
    vals, functions = operator_eigh(gram / rows.shape[0], 1.0, p, q)
    functions = functions @ rows
    # unit Euclidean rows first, then 1/sqrt(w) for unit quadrature norm
    norms = np.sqrt(weight) * np.linalg.norm(functions, axis=1, keepdims=True)
    np.divide(functions, norms, out=functions, where=norms > 0.0)
    return vals * weight, functions


def _unidentified(values: np.ndarray) -> np.ndarray:
    """Mask of the pairs whose eigenvalue is at round-off.

    ``values`` descend along the last axis.  An eigenvalue at most
    DEGENERACY_RTOL of the leading one (or any of a zero spectrum) cannot
    be told from zero: a kernel of m rows has rank at most m, and past it
    the eigenvector is an arbitrary null-space vector.
    """
    return values <= DEGENERACY_RTOL * values[..., :1]


def _shifted_eigh(matrices: np.ndarray, weight: float, p: int, q: int):
    """Leading p eigenvalues of a stack by ``eigvalsh``, leading q <= p eigenfunctions by solves.

    ``matrices`` is a (c, R, R) stack.  Each eigenfunction comes from two
    steps of inverse iteration, batched over the stack and the q indices:
    ``solve`` with M - sigma I, sigma the ``eigvalsh`` value plus SHIFT_EPS
    machine epsilons of the leading eigenvalue.  Two steps shrink every
    other eigenvector's share by (shift error / gap)^2.  Pairs that are
    _unidentified are not solved for and keep a zero function.
    Returns ``(values, functions)`` of shapes (c, p) and (c, q, R), on the
    scales of :func:`operator_eigh`, with arbitrary signs.
    """
    vals = np.linalg.eigvalsh(matrices)[..., ::-1][..., :p]
    c, r, _ = matrices.shape
    functions = np.zeros((c, q, r))
    at, j = np.nonzero(~_unidentified(vals[:, :q]))
    if at.size:
        shift = vals[at, j] + SHIFT_EPS * np.finfo(float).eps * vals[at, 0]
        system = matrices[at]
        diagonal = np.arange(r)
        system[:, diagonal, diagonal] -= shift[:, None]
        # a fixed irregular start: a constant vector has no share in
        # contrasts such as (1, -1, 0, ...), which eigenvectors can be
        start = np.cos(np.arange(1, r + 1) * (1.0 + np.sqrt(5.0)))
        x = np.broadcast_to(start[:, None], (at.size, r, 1))
        for _ in range(2):
            x = np.linalg.solve(system, x)
            x /= np.linalg.norm(x, axis=1, keepdims=True)
        # unit Euclidean vectors; unit quadrature norm needs 1/sqrt(w)
        functions[at, j] = x[..., 0] / np.sqrt(weight)
    return vals * weight, functions


def prefix_eigenpairs(rows: np.ndarray, counts, weight: float, p: int, q: int):
    """Leading eigenpairs of the kernel ``rows[:m].T @ rows[:m] / m`` for each m in ``counts``.

    ``rows`` is (n, R) and the counts do not decrease and lie in [0, n].
    Returns p <= R eigenvalues and q <= p eigenfunctions per prefix, of
    shapes (c, p) and (c, q, R), on the scales of :func:`operator_eigh`
    with arbitrary signs.  A kernel of fewer than _GRAM_MIN_DIM dimensions
    keeps every prefix in one R x R stack and takes :func:`_shifted_eigh`.
    From that R on, :func:`operator_eigh` runs: a prefix of m rows with
    p <= m < R goes through the leading m x m block of one Gram matrix of
    the rows, and the other prefixes through the stack.  Empty prefixes
    and unidentified pairs (eigenvalue at round-off) get zero functions.
    """
    counts = np.asarray(counts, dtype=int)
    r = rows.shape[1]
    vals = np.zeros((counts.size, p))
    funcs = np.zeros((counts.size, q, r))
    # the counts do not decrease, so the Gram-form prefixes are one run
    dual = (counts >= p) & (counts < r) & (r >= _GRAM_MIN_DIM)
    stacked = np.flatnonzero((counts > 0) & ~dual)
    stack_eigh = _shifted_eigh if r < _GRAM_MIN_DIM else operator_eigh
    pairs = [(stacked, stack_eigh(prefix_moments(rows, counts[stacked]), weight, p, q))]
    if dual.any():
        head = rows[: counts[dual][-1]]
        gram = head @ head.T
        pairs += [(i, _gram_eigh(head[:m], gram[:m, :m], weight, p, q))
                  for i, m in zip(np.flatnonzero(dual), counts[dual])]
    for at, (v, f) in pairs:
        vals[at] = v
        funcs[at] = f
    funcs[_unidentified(vals)[:, :q]] = 0.0
    return vals, funcs


def eigendecompose(kernel: CovKernel, p_max: int) -> EigenSystem:
    """Leading eigenpairs of the integral operator induced by a kernel.

    Parameters
    ----------
    kernel : CovKernel
        Symmetric kernel in either representation.
    p_max : int
        Number of leading eigenpairs to return, 1 <= p_max <= dimension.

    Returns
    -------
    EigenSystem
        Eigenvalues sorted descending on the operator scale; eigenfunctions of
        unit quadrature norm with a canonical sign, zero where unidentified.
    """
    if not 1 <= p_max <= kernel.dim:
        raise ValueError(f"p_max must lie in [1, {kernel.dim}], got {p_max}")
    vals, functions = operator_eigh(kernel.matrix, kernel.weight, p_max, p_max)
    functions[_unidentified(vals)] = 0.0
    return EigenSystem(
        eigenvalues=vals,
        eigenfunctions=_canonical_signs(functions),
        weight=kernel.weight,
    )


def aligned_distance_sq(v, u, *, weight: float = 1.0):
    """min(||v-u||^2, ||v+u||^2) under the given quadrature weight.

    Works row by row on the last axis: two functions give a float, two
    stacks of functions an array.  Defined for arbitrary vectors; used
    where zero functions stand in for eigenfunctions of degenerate kernels.
    """
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    nv = weight * np.sum(v * v, axis=-1)
    nu = weight * np.sum(u * u, axis=-1)
    ip = weight * np.sum(v * u, axis=-1)
    dist = np.maximum(nv + nu - 2.0 * np.abs(ip), 0.0)
    return float(dist) if dist.ndim == 0 else dist

