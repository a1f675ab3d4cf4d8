"""Eigen-decomposition of covariance kernels and sign-free function distances.

Eigenvalues are reported on the integral-operator scale (matrix eigenvalues
times the quadrature weight) and eigenfunctions are rescaled to unit
quadrature norm, so both kernel modes of :mod:`~eigenbreak.covkern` yield
directly comparable spectral data.
"""

from __future__ import annotations

import numpy as np

from .covkern import prefix_moments

__all__ = [
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
#: R on eigh stays, as the solves lost on Gram blocks of rank <= 21.  There
#: a segment of numerical rank d < R takes its Gram-form prefixes to one
#: d x d eigh stack in its row space: on 200-node rows of rank 21, 19 Gram
#: blocks of up to 190 x 190 become 19 matrices of 21 x 21.  The stack uses
#: eigh, not the shifted solves, whatever d: for 7 and 10 prefixes at d = 21
#: and q = 5, the solves took 0.46 and 0.67 ms, eigh 0.27 and 0.40 ms
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
    the rows, and the other prefixes through the stack.  The longest
    prefix is decomposed first, and its spectrum shows whether the rows
    are rank-deficient.  If so, and an SVD of its rows finds a numerical
    rank p <= d < R (numpy's ``matrix_rank`` rule) while a Gram-form
    prefix holds more than d rows, the other Gram-form prefixes go instead
    through one d x d stack of their kernels in the rows' coordinates on
    the row space, and their eigenfunctions are mapped back.  Every prefix
    kernel's range lies in that row space but for singular values of at
    most s_1 max(n, R) eps, so this is exact up to rounding.  Empty
    prefixes and unidentified pairs (eigenvalue at round-off) get zero
    functions.
    """
    counts = np.asarray(counts, dtype=int)
    vals = np.zeros((counts.size, p))
    funcs = np.zeros((counts.size, q, rows.shape[1]))
    for at, (v, f) in _prefix_forms(rows, counts, weight, p, q):
        vals[at] = v
        funcs[at] = f
    funcs[_unidentified(vals)[:, :q]] = 0.0
    return vals, funcs


def _prefix_forms(rows: np.ndarray, counts: np.ndarray, weight: float, p: int, q: int):
    """Yield ``(at, (values, functions))`` parts that together cover every nonempty prefix.

    ``at`` indexes ``counts``: an index array for a stack, an int for one
    Gram-form prefix.  See :func:`prefix_eigenpairs` for the forms.
    """
    r = rows.shape[1]
    if r < _GRAM_MIN_DIM:
        at = np.flatnonzero(counts > 0)
        yield at, _shifted_eigh(prefix_moments(rows, counts[at]), weight, p, q)
        return
    # the counts do not decrease, so the Gram-form prefixes are one run
    dual = (counts >= p) & (counts < r)
    at = np.flatnonzero((counts > 0) & ~dual)
    values, functions = operator_eigh(prefix_moments(rows, counts[at]), weight, r, q)
    yield at, (values[:, :p], functions)
    dual = np.flatnonzero(dual)
    if not dual.size:
        return
    head = rows[: counts[dual[-1]]]
    gram = None
    if dual[-1] < counts.size - 1:
        spectrum = values[-1]  # of the longest prefix, the last in the stack
    else:
        # the longest prefix takes the Gram form: it goes first, for its spectrum
        gram = head @ head.T
        spectrum, functions = _gram_eigh(head, gram, weight, len(head), q)
        yield dual[-1], (spectrum[:p], functions)
        dual = dual[:-1]
        if not dual.size:
            return
    basis = _row_space(rows[: counts[-1]], spectrum, counts[dual[-1]], p)
    if basis is not None:
        values, functions = operator_eigh(prefix_moments(head @ basis.T, counts[dual]),
                                          weight, p, q)
        yield dual, (values, functions @ basis)
        return
    if gram is None:
        gram = head @ head.T
    for i in dual:
        m = counts[i]
        yield i, _gram_eigh(head[:m], gram[:m, :m], weight, p, q)


def _row_space(rows: np.ndarray, spectrum: np.ndarray, longest: int, p: int):
    """Orthonormal rows (d, R) spanning the numerical row space of ``rows``, where that pays.

    ``spectrum`` holds the descending eigenvalues of the rows' kernel, and
    ``longest`` is the longest prefix still to solve.  Without an SVD,
    returns None unless p to ``longest`` - 1 eigenvalues are clear of
    round-off; then None unless the singular values s of the rows give
    p <= d < ``longest``, d counting s > s_1 * max(n, R) * eps as numpy's
    ``matrix_rank`` does.
    """
    probe = np.count_nonzero(~_unidentified(spectrum))
    if not p <= probe < longest:
        return None
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    d = np.count_nonzero(s > s[0] * max(rows.shape) * np.finfo(float).eps)
    if not p <= d < longest:
        return None
    return vt[:d]


def eigendecompose(matrix: np.ndarray, weight: float, p_max: int):
    """Leading eigenpairs of the integral operator of one kernel matrix.

    Parameters
    ----------
    matrix : numpy.ndarray
        Symmetric R x R kernel matrix, taken as given.
    weight : float
        Quadrature weight of the matrix's mode.
    p_max : int
        Number of leading eigenpairs to return, 1 <= p_max <= R.

    Returns
    -------
    (values, functions)
        As :func:`operator_eigh` returns them for q = p = ``p_max``, except
        that each eigenfunction has a canonical sign and an unidentified
        pair (eigenvalue at round-off) a zero function.
    """
    if not 1 <= p_max <= matrix.shape[0]:
        raise ValueError(f"p_max must lie in [1, {matrix.shape[0]}], got {p_max}")
    vals, functions = operator_eigh(matrix, weight, p_max, p_max)
    functions[_unidentified(vals)] = 0.0
    return vals, _canonical_signs(functions)


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

