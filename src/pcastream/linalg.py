"""Dense linear algebra for small matrices, backed by LAPACK.

Every kernel is a thin wrapper over ``numpy.linalg`` that adds the
package's contracts: input checks, descending eigenvalue and singular
value order, a nonnegative diagonal of R, a singularity test to working
precision, and the package's error types in place of ``LinAlgError``.
Repeated calls on identical input produce identical output bit for bit.
"""

import math

import numpy as np

from .errors import (
    NoConvergenceError,
    NotSymmetricError,
    RankDeficientError,
    ShapeMismatchError,
    SingularMatrixError,
)

_PIVOT_RTOL = 1e-14
_NORMAL = 2.0 ** -1022  # the smallest normal float


def check_finite(a, name="array"):
    """Raise ValueError if ``a`` contains NaN or Inf."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def is_symmetric(a):
    """Whether ``||a - a.T|| <= 1e-10 ||a||`` (Frobenius) for a finite ``a``."""
    return np.linalg.norm(a - a.T) <= 1e-10 * max(np.linalg.norm(a), 1e-300)


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix (LAPACK ``syevd``).

    Parameters:
    ====================
    a -- square matrix, symmetric within :func:`is_symmetric`

    Output:
    ====================
    w -- eigenvalues, sorted descending
    v -- matrix whose columns are the corresponding orthonormal
         eigenvectors, so that ``a = v @ diag(w) @ v.T``
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected square matrix, got {a.shape}")
    check_finite(a, "matrix")
    if not is_symmetric(a):
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    try:
        # eigh reads one triangle; symmetrize so both contribute.
        w, v = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return w[::-1], v[:, ::-1]


def qr(a):
    """Householder QR (LAPACK ``geqrf``) with nonnegative diagonal of R.

    The sign convention makes the factorization unique for full-rank
    input, which makes QR-based orthogonal sampling uniform.

    Returns (q, r) with q of shape (rows, cols), r upper triangular
    (cols, cols) and ``a = q @ r``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatchError("expected a 2-d array")
    if a.shape[0] < a.shape[1]:
        raise ShapeMismatchError("qr requires rows >= cols")
    check_finite(a, "matrix")
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    if np.any(np.abs(diag) < _PIVOT_RTOL * max(np.linalg.norm(a), 1e-300)):
        raise RankDeficientError("R has a negligible diagonal entry")
    flip = np.sign(diag)
    return q * flip[None, :], r * flip[:, None]


def svd_small(a):
    """SVD of a small dense matrix (LAPACK ``gesdd``).

    Limited to matrices with at most 64 rows and columns (the Procrustes
    and K-by-K use cases). Returns (u, s, v) with singular values sorted
    descending and ``a = u @ diag(s) @ v.T``; u and v have min(rows, cols)
    orthonormal columns.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatchError("expected a 2-d array")
    if max(a.shape) > 64:
        raise ShapeMismatchError("svd_small is limited to 64 rows/cols")
    check_finite(a, "matrix")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T


def _squared_frobenius(a, size):
    """Squared Frobenius norm of each of the ``size``-entry matrices in
    ``a``, as a list; the same dot product as ``np.linalg.norm`` takes."""
    flat = a.reshape(-1, size)
    return np.vecdot(flat, flat).tolist()


def lu_factor(a):
    """Factor a square matrix, or each matrix of a stack, for :func:`lu_solve`.

    LAPACK's partially pivoted LU (``gesv`` against the identity) is
    carried through to the explicit inverse, so that each later solve is
    one matrix product. Raises SingularMatrixError when a matrix is
    singular to working precision: exactly singular, or with Frobenius
    condition number ``||a|| ||a^-1||`` above ``1 / _PIVOT_RTOL``, at
    any scale of a.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatchError("expected square matrix")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is singular: {exc}") from exc
    # Python floats per matrix: a stack is small, and NumPy calls on tiny
    # arrays cost more than the arithmetic
    size = a.shape[-1] ** 2
    squares = zip(_squared_frobenius(a, size), _squared_frobenius(inv, size))
    for i, (a2, inv2) in enumerate(squares):
        cond = math.sqrt(a2) * math.sqrt(inv2)
        # a square that overflowed, or underflowed far, makes cond infinite
        # or NaN; then hypot, which scales the entries, decides
        if not cond * _PIVOT_RTOL <= 1.0 and not (_NORMAL <= a2 < math.inf
                                                 and _NORMAL <= inv2 < math.inf):
            cond = (math.hypot(*a.reshape(-1, size)[i].tolist())
                    * math.hypot(*inv.reshape(-1, size)[i].tolist()))
        if not cond * _PIVOT_RTOL <= 1.0:  # also catches a NaN or Inf inverse
            raise SingularMatrixError(f"condition number {cond:.3e} above threshold")
    return inv


def lu_solve(factors, b):
    """Solve with factors from :func:`lu_factor`; ``b`` is a vector or a
    matrix per factored matrix."""
    if b.ndim == factors.ndim - 1:
        return np.matvec(factors, b)
    return factors @ b


def solve_symmetric(m, b):
    """Solve ``m @ x = b`` for symmetric well-conditioned ``m``.

    Parameters:
    ====================
    m -- matrix, symmetric within :func:`is_symmetric`
    b -- right-hand side vector
    """
    m = np.asarray(m, dtype=float)
    b = np.asarray(b, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"expected square matrix, got {m.shape}")
    if b.shape != (m.shape[0],):
        raise ShapeMismatchError("right-hand side length does not match matrix")
    check_finite(m, "matrix")
    check_finite(b, "right-hand side")
    if not is_symmetric(m):
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    return lu_solve(lu_factor(m), b)
