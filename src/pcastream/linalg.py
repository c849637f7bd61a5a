"""Dense linear algebra for small matrices, backed by LAPACK.

Every kernel is a thin wrapper over ``numpy.linalg`` (``sym_eig`` and
``lu_factor`` over its LAPACK gufuncs) that adds the package's contracts: input
checks, descending eigenvalue and singular value order, a nonnegative
diagonal of R, a singularity test to working precision, and the
package's error types in place of ``LinAlgError``.
Repeated calls on identical input produce identical output bit for bit.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    NoConvergenceError,
    NotSymmetricError,
    RankDeficientError,
    ShapeMismatchError,
    SingularMatrixError,
)

_PIVOT_RTOL = 1e-14
_NORMAL = 2.0 ** -1022  # the smallest normal float


def all_finite(a):
    """Whether every entry of a is finite. A NaN or an infinity makes the
    sum of squares (``np.vdot``) NaN or infinite, so a finite sum settles
    it at once; only otherwise does the entrywise test run, so finite
    entries whose squares overflow pass."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def check_finite(a, name="array"):
    """Raise ValueError if ``a`` contains NaN or Inf."""
    if not all_finite(a):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def is_positive_finite(x):
    """Whether the number x is positive and finite: a time-constant ratio,
    a learning rate or a schedule's offset. NaN fails."""
    return 0 < x < math.inf


def is_positive_decreasing(v):
    """Whether the entries of the vector v are finite and positive and each
    is below the one before: a gain, or root-eigenvalues. NaN fails."""
    v = v.tolist()
    return all(map(is_positive_finite, v)) and all(b < a for a, b in zip(v, v[1:]))


def is_positive_nonincreasing(v):
    """Whether the entries of the vector v are finite and positive and none
    is above the one before: a spectrum. NaN fails."""
    v = v.tolist()
    return all(map(is_positive_finite, v)) and all(b <= a for a, b in zip(v, v[1:]))


def is_orthonormal(q):
    """Whether q is finite and ``||q' q - I|| <= 1e-10`` (:func:`frobenius`):
    its columns are orthonormal."""
    return all_finite(q) and frobenius(q.T @ q - np.eye(q.shape[1])) <= 1e-10


def frobenius(a):
    """Frobenius norm of one matrix or vector, without overflow or underflow.

    One ``np.vdot`` square over the entries in memory order, as
    ``np.linalg.norm`` sums them, settles it when it is a normal float
    or a is all zeros; unlike the ufuncs, ``np.vdot`` gives an overflowed
    square as inf without a RuntimeWarning. Otherwise ``math.hypot``,
    which scales the entries, does. A NaN entry gives NaN and an
    infinite entry inf; no case warns.
    """
    a = a.ravel(order="K")
    square = float(np.vdot(a, a))
    if _NORMAL <= square < math.inf or not a.any():
        return math.sqrt(square)
    return math.hypot(*a.tolist())


def is_symmetric(a):
    """Whether ``||a - a.T|| <= 1e-10 ||a||`` (:func:`frobenius`) for a
    finite ``a``; the answer is the same at any scale of a."""
    a = np.asarray(a, dtype=float)
    return frobenius(a - a.T) <= 1e-10 * frobenius(a)


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
        w, v = _lapack(_umath_linalg.eigh_lo, 0.5 * a + 0.5 * a.T, "d->dd")
    except FloatingPointError as exc:
        raise NoConvergenceError(
            "eigensolver did not converge: Eigenvalues did not converge") from exc
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
    if np.any(np.abs(diag) < _PIVOT_RTOL * max(frobenius(a), 1e-300)):
        raise RankDeficientError("R has a negligible diagonal entry")
    flip = np.sign(diag)
    return q * flip[None, :], r * flip[:, None]


def svd_small(a):
    """SVD of a dense matrix of any size (LAPACK ``gesdd``); the
    package's own use is the small K x K Procrustes product.

    Returns (u, s, v) with singular values sorted descending and
    ``a = u @ diag(s) @ v.T``; u and v have min(rows, cols) orthonormal
    columns.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatchError("expected a 2-d array")
    check_finite(a, "matrix")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _lapack(gufunc, a, signature):
    """NumPy's LAPACK gufunc itself, the one call ``np.linalg.inv`` (``inv``)
    or ``np.linalg.eigh`` (``eigh_lo``) makes; for K <= 10 their wrappers
    cost more than LAPACK. A zero pivot or an eigensolver that did not
    converge is flagged as an invalid operation, which this errstate raises
    as FloatingPointError; as a decorator it costs less than a ``with``."""
    return gufunc(a, signature=signature)


def lu_factor(a):
    """Factor a square matrix, or each matrix of a stack, for :func:`lu_solve`.

    LAPACK's partially pivoted LU (``gesv`` against the identity) is
    carried through to the explicit inverse, so that each later solve is
    one matrix product. Raises SingularMatrixError when a matrix is
    singular to working precision: exactly singular, or with Frobenius
    condition number ``||a|| ||a^-1||`` above ``1 / _PIVOT_RTOL``. A stack
    that :func:`well_conditioned` passes needs no more; otherwise each
    matrix takes its two norms from :func:`frobenius`, so the decision
    holds at any scale of a, and the first matrix over the threshold is
    named by its condition number. The exact learner's steps call the
    gufunc alone and call this only on the M of a window that
    :func:`well_conditioned` rejects, to name the failure.
    """
    # a view of M is copied once: the gufunc and the test read it faster
    a = np.ascontiguousarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatchError("expected square matrix")
    try:
        inv = _lapack(_umath_linalg.inv, a, "d->d")
    except FloatingPointError as exc:
        raise SingularMatrixError("matrix is singular: Singular matrix") from exc
    if well_conditioned(a, inv):
        return inv
    n = a.shape[-1]
    for m, m_inv in zip(a.reshape(-1, n, n), inv.reshape(-1, n, n)):
        cond = frobenius(m) * frobenius(m_inv)
        if not cond * _PIVOT_RTOL <= 1.0:  # also catches a NaN or Inf inverse
            raise SingularMatrixError(f"condition number {cond:.3e} above threshold")
    return inv


@np.errstate(over="ignore", invalid="ignore")
def well_conditioned(a, inv):
    """Whether each matrix of the stack a, with ``inv`` the inverse that
    NumPy's inverse gufunc wrote for it (NaN where a is singular), is one
    that :func:`lu_factor` passes: one vectorized test, with a margin for
    the rounding of its sums of squares, that their product (at least 1)
    is at most ``((1 - 1e-9) / _PIVOT_RTOL) ** 2``. A NaN or an infinity,
    or a squared norm that overflows (as the other does when one falls far
    below the normal range), makes the product NaN or infinite and fails,
    without a warning."""
    shape = a.shape[:-2] + (-1,)
    a, inv = a.reshape(shape), inv.reshape(shape)
    return bool((np.vecdot(a, a) * np.vecdot(inv, inv) <= ((1 - 1e-9) / _PIVOT_RTOL) ** 2).all())


def lu_solve(factors, b):
    """Solve with factors from :func:`lu_factor`; ``b`` is a vector or a
    matrix per factored matrix."""
    if b.ndim == factors.ndim - 1:
        return np.matvec(factors, b)
    return factors @ b
