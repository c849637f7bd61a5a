"""Subspace quality metrics and closed-form optimum oracles.

The headline metric is the Procrustes alignment error: the squared
Frobenius distance between an estimated and a true orthonormal basis,
minimized over orthogonal alignment and normalized by the number of
components. Estimated bases are read out of a learner state by one of
four formulas, depending on the task and on whether the lateral matrix
is inverted exactly or through its near-diagonal approximation.
"""

import math

import numpy as np

from . import linalg
from .errors import DegenerateSpectrumError, ShapeMismatchError
from .model import DIAGONAL_FLOOR, Task, neural_filter

GAP_FLOOR = 1e-10


def leading_separated(values, k):
    """Whether the leading k+1 of the descending ``values`` (or all of
    them, if fewer) are each more than GAP_FLOOR apart."""
    v = values[: k + 1].tolist()
    return all(a - b > GAP_FLOOR for a, b in zip(v, v[1:]))


class GroundTruth:
    """Leading eigenvectors (columns of u_k) and root-eigenvalues of G."""

    __slots__ = ("u_k", "sigma_k")

    def __init__(self, u_k, sigma_k):
        self.u_k = u_k
        self.sigma_k = sigma_k
        k = u_k.shape[1]
        if sigma_k.shape != (k,):
            raise ShapeMismatchError("sigma_k length does not match u_k")
        if not linalg.is_orthonormal(u_k):
            raise ValueError("u_k columns are not orthonormal within 1e-10")
        if not linalg.is_positive_decreasing(sigma_k):
            raise ValueError("sigma_k must be strictly decreasing and positive")


def ground_truth(g, k):
    """Top-k eigenvectors of a covariance matrix and their root-eigenvalues.

    They are the rows of the projection optimum at unit gain, so the
    same separation and rank rules as :func:`optimal_filter` apply.
    """
    if not 1 <= k <= len(g) - 1:
        raise ValueError("k must lie in [1, n-1]")
    w, f = optimal_filter(g, np.ones(k), Task.PSP)
    return GroundTruth(u_k=f.T.copy(), sigma_k=np.sqrt(w))


def estimate_subspace(state, task, variant, sigma_k=None):
    """Estimated principal directions (N x K) read out of a learner state.

    The readout undoes the diagonal gain, and for whitening tasks also
    restores the component scales via the true root-eigenvalues.
    """
    filt = neural_filter(state, variant)
    scale = 1.0 / state.lam
    if task is Task.PSW:
        if sigma_k is None:
            raise ValueError("sigma_k is required for whitening estimates")
        scale = scale * np.asarray(sigma_k, dtype=float)
    return (scale[:, None] * filt).T


def lateral_diagnostics(m):
    """(off-diagonal ratio, floor margin) of a lateral matrix M.

    The ratio ``||M_o|| / ||diag M||`` (:func:`linalg.frobenius`, so
    finite even where squares of M's entries overflow) measures how far
    M is from the diagonal form that justifies the two-step pass; the
    margin ``min diag(M) - DIAGONAL_FLOOR`` how far it is from the floor
    at which a run counts as diverged.
    """
    d = np.diagonal(m)
    off, diag = linalg.frobenius(m - np.diag(d)), linalg.frobenius(d)
    if diag:
        ratio = off / diag
    else:  # what IEEE division gives: inf, or NaN for 0 / 0
        ratio = math.inf if off > 0 else math.nan
    return ratio, float(d.min() - DIAGONAL_FLOOR)


def procrustes_error(u_hat, u_true):
    """Alignment error min_Q ||u_hat Q - u_true||^2 / ||u_true||^2.

    Q ranges over K x K orthogonal matrices; the minimizer comes from the
    SVD of ``u_hat.T @ u_true``. The error is evaluated as the explicit
    residual at the optimal Q (not via the trace identity), which stays
    accurate all the way down to the rounding floor. Finite inputs whose
    product overflows give an error that overflows too: infinity.
    """
    u_hat = np.asarray(u_hat, dtype=float)
    u_true = np.asarray(u_true, dtype=float)
    if u_hat.shape != u_true.shape or u_hat.ndim != 2:
        raise ShapeMismatchError(
            f"shape mismatch: {u_hat.shape} vs {u_true.shape}")
    k = u_true.shape[1]
    cross = u_hat.T @ u_true
    if not linalg.all_finite(cross) and all(map(linalg.all_finite, (u_hat, u_true))):
        return math.inf
    a, _, b = linalg.svd_small(cross)
    q = a @ b.T
    resid = u_hat @ q - u_true
    return float(np.sum(resid * resid) / k)


def objective_psp(y, x, lam):
    """Similarity-matching value of an embedding, with diagonal gain.

    Evaluates ``-2 tr(X'X Y'Y) + tr(Y' L^-1 Y Y' L^-1 Y)`` for the gain
    matrix L = diag(lam).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if y.shape[1] != x.shape[1]:
        raise ShapeMismatchError("y and x must have the same number of columns")
    # Gram-matrix form of the two traces: K x N / K x K work instead of T x T.
    cross = y @ x.T
    scaled = (y @ y.T) / lam[:, None]
    return float(-2.0 * np.sum(cross * cross) + np.sum(scaled * scaled.T))


def objective_psw(y, x, lam):
    """Whitening objective value and constraint violation.

    Returns (||X'X - Y'Y||^2, ||Y Y' - diag(lam)^2||).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if y.shape[1] != x.shape[1]:
        raise ShapeMismatchError("y and x must have the same number of columns")
    diff = x.T @ x - y.T @ y
    gram = y @ y.T
    gram.flat[:: y.shape[0] + 1] -= lam * lam
    return float(np.sum(diff * diff)), float(np.linalg.norm(gram))


def optimal_filter(c, lam, task, signs=None, order=None):
    """(eigvals, F): top-K eigenvalues of c and the optimal K x N filter.

    K is the length of the gain. Row i of F is the unit eigenvector of
    ``eigvals[i]`` times ``lam[i] s[i]``, over ``sqrt(eigvals[i])`` for
    whitening. ``signs`` s (default +1) flips rows; ``order`` permutes
    which top-K eigenpair feeds which row. The leading K+1 eigenvalues
    must be separated and the K-th positive.
    """
    lam = np.asarray(lam, dtype=float)
    k = lam.shape[0]
    w, v = linalg.sym_eig(c)
    if k > len(w):
        raise ShapeMismatchError("gain is longer than the covariance side")
    if not leading_separated(w, k) or w[k - 1] <= GAP_FLOOR:
        raise DegenerateSpectrumError(
            f"top-{k} eigenvalues must be more than {GAP_FLOOR:g} apart and above 0")
    eigvals, v = w[:k], v[:, :k]  # the default order; F is C-ordered either way
    if order is not None:
        order = np.asarray(order, dtype=int)
        if sorted(order.tolist()) != list(range(k)):
            raise ValueError("order must be a permutation of range(k)")
        eigvals, v = eigvals[order], v[:, order]
    s = 1.0 if signs is None else np.asarray(signs, dtype=float)
    if signs is not None and not np.all(np.abs(s) == 1.0):
        raise ValueError("signs must be +/-1")
    coef = lam * s
    if task is Task.PSW:
        coef = coef / np.sqrt(eigvals)
    return eigvals, np.multiply(coef[:, None], v.T, order="C")


def closed_form_optimum(x, lam, task, signs=None):
    """Optimal K x T embedding of x: the optimal filter of ``x x'`` applied
    to x. ``signs`` flips individual components."""
    x = np.asarray(x, dtype=float)
    return optimal_filter(x @ x.T, lam, task, signs)[1] @ x
