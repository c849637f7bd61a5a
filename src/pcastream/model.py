"""Online principal-subspace learners with Hebbian/anti-Hebbian plasticity.

The learner keeps a feed-forward weight matrix W (K x N), a symmetric
lateral weight matrix M (K x K) and a fixed diagonal gain vector with
strictly decreasing positive entries. The gain breaks the rotational
degeneracy of similarity matching, which drives M toward diagonal form;
because M stays near-diagonal, each output can be produced with a fixed
two-step feed-forward/lateral pass instead of running recurrent dynamics
to a fixed point. An exact-inverse variant (solving M y = W x per input)
is kept as the reference learner.

The online kernels (``forward``, ``plasticity``, ``online_step`` and the
helpers they call) also take a stack of B independent learners that
share the gain and time constant: W of shape B x K x N, M of B x K x K
and one input per learner, B x N. Every operation acts on each slice
alone, with the same arithmetic as on a single learner, so each slice of
a stacked result equals the single-learner result bit for bit; a check
that fails on any slice fails the whole call.
"""

from enum import Enum

import numpy as np

from . import linalg
from .errors import DegenerateDiagonalError

DIAGONAL_FLOOR = 1e-12


class Task(Enum):
    """Which lateral plasticity target to use."""

    PSP = "psp"  # projection: target is lam * M * lam
    PSW = "psw"  # whitening: target is lam ** 2


class Variant(Enum):
    """How the lateral matrix is inverted when producing an output."""

    ITERATION_FREE = "iteration_free"
    EXACT_INVERSE = "exact"


class ModelState:
    """Value-type bundle of learner weights.

    Parameters:
    ====================
    m     -- lateral weights, K x K, symmetric, strictly positive diagonal
             (B x K x K for a stack of B learners)
    w     -- feed-forward weights, K x N (B x K x N for a stack)
    lam   -- diagonal gain, length K, strictly decreasing positive
    tau   -- time-constant ratio between the M and W updates, > 0
    check -- validate invariants on construction (disable only on hot
             paths that already guarantee them); only a single learner
             can be checked, so stacks are built from checked states by
             :meth:`stack`
    """

    __slots__ = ("m", "w", "lam", "tau")

    def __init__(self, m, w, lam, tau, check=True):
        if check:
            m = np.array(m, dtype=float)
            w = np.array(w, dtype=float)
            lam = np.array(lam, dtype=float)
            tau = float(tau)
            k = m.shape[0]
            if m.shape != (k, k) or w.ndim != 2 or w.shape[0] != k or lam.shape != (k,):
                raise ValueError("inconsistent state shapes")
            linalg.check_finite(m, "m")
            linalg.check_finite(w, "w")
            linalg.check_finite(lam, "lam")
            if not linalg.is_symmetric(m):
                raise ValueError("lateral matrix must be symmetric")
            if not (np.diagonal(m) > DIAGONAL_FLOOR).all():
                raise DegenerateDiagonalError("lateral diagonal not strictly positive")
            if not (lam > 0).all() or not (np.diff(lam) < 0).all():
                raise ValueError("gain entries must be strictly decreasing and positive")
            if tau <= 0:
                raise ValueError("tau must be positive")
        self.m = m
        self.w = w
        self.lam = lam
        self.tau = tau

    @property
    def k(self):
        return self.w.shape[-2]

    @property
    def n(self):
        return self.w.shape[-1]

    @classmethod
    def stack(cls, states):
        """One stack of learners that share the gain and time constant."""
        first = states[0]
        return cls(np.stack([s.m for s in states]), np.stack([s.w for s in states]),
                   first.lam, first.tau, check=False)

    def __getitem__(self, index):
        """Learner ``index`` of a stack, or the sub-stack of an index list."""
        return ModelState(self.m[index], self.w[index], self.lam, self.tau,
                          check=False)

    def copy(self):
        return ModelState(self.m.copy(), self.w.copy(), self.lam.copy(),
                          self.tau, check=False)

    def __repr__(self):
        return f"ModelState(k={self.k}, n={self.n}, tau={self.tau})"


def split_diag(m):
    """Split a square matrix into its diagonal and off-diagonal parts.

    Returns (d, m_o) where d is the diagonal as a vector and m_o is m
    with the diagonal zeroed, so that ``np.diag(d) + m_o == m`` exactly.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected square matrix")
    d = np.diagonal(m).copy()
    m_o = m.copy()
    np.fill_diagonal(m_o, 0.0)
    return d, m_o


def _lateral_solve(m, b, variant):
    """``M^-1 b`` for a vector or a matrix b (one row per output), per
    slice of a stack of M.

    Exact: one factorization of M. Iteration-free: the two-step pass,
    ``D^-1 b - D^-1 M_o D^-1 b`` with D the diagonal and M_o the
    off-diagonal part of M: b scaled by the diagonal, then one lateral
    correction of that provisional signal, again scaled by the diagonal.
    It uses no general inversion, and its error is quadratic in the
    off-diagonal norm.
    """
    if variant is Variant.EXACT_INVERSE:
        return linalg.lu_solve(linalg.lu_factor(m), b)
    d = m.diagonal(0, -2, -1)
    if d.min() < DIAGONAL_FLOOR:
        raise DegenerateDiagonalError("diagonal entry below invertibility floor")
    if b.ndim == m.ndim - 1:
        product = np.matvec
        d = d.copy()  # contiguous: cheaper in the three elementwise steps
    else:
        product = np.matmul
        d = d[..., None]
    y_ff = b / d
    return y_ff - (product(m, y_ff) - d * y_ff) / d


def approx_inverse(m):
    """First-order near-diagonal inverse ``D^-1 - D^-1 (m - D) D^-1``.

    D is the diagonal part of m: the two-step pass applied to the
    identity.
    """
    m = np.asarray(m, dtype=float)
    return _lateral_solve(m, np.eye(m.shape[0]), Variant.ITERATION_FREE)


def forward(state, x, variant):
    """Output for one input vector, using the pre-update weights.

    Iteration-free: the two-step pass on ``w @ x``. Exact: solve
    ``m @ y = w @ x``.
    """
    return _lateral_solve(state.m, np.matvec(state.w, x), variant)


def lateral_drive(corr, state, task):
    """Output correlation ``corr`` minus the lateral target, in place.

    The target is ``lam M lam`` for projection and the fixed ``lam**2``
    on the diagonal for whitening.
    """
    lam = state.lam
    if task is Task.PSP:
        corr -= lam[:, None] * state.m * lam[None, :]
    else:
        # a matrix's diagonal is every (K+1)-th entry of its flat view;
        # ``flat`` is the cheaper way to that view for a single matrix
        # (or a stack of one)
        k = state.k
        if corr.size == k * k:
            corr.flat[:: k + 1] -= lam * lam
        else:
            corr.reshape(-1, k * k, copy=False)[:, :: k + 1] -= lam * lam
    return corr


def _apply_update(state, dw, dm, alpha):
    """The state moved by ``alpha * dw`` (W) and ``alpha / tau * dm`` (M).

    Symmetry of M is restored exactly so that rounding cannot accumulate
    over long runs. A diagonal at the floor or an overflow is divergence.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    w = state.w + alpha * dw
    m = state.m + (alpha / state.tau) * dm
    m = 0.5 * (m + m.mT)
    if not m.diagonal(0, -2, -1).min() > DIAGONAL_FLOOR:  # a NaN fails too
        raise DegenerateDiagonalError("updated lateral diagonal hit the floor")
    if not np.isfinite(m).all() or not np.isfinite(w).all():
        raise DegenerateDiagonalError("weights overflowed")
    return ModelState(m, w, state.lam, state.tau, check=False)


def _outer(a, b):
    """``np.outer`` of each pair of vectors in two stacks."""
    return a[..., :, None] * b[..., None, :]


def plasticity(state, x, y, alpha, task):
    """One Hebbian/anti-Hebbian weight update for the pair (x, y).

    W moves toward the input/output correlation. M moves along the
    output correlation minus its target, ``lam M lam`` for projection or
    the fixed ``lam**2`` for whitening, at 1/tau of the W rate.
    """
    return _apply_update(state, _outer(y, x) - state.w,
                         lateral_drive(_outer(y, y), state, task), alpha)


def online_step(state, x, alpha, task, variant):
    """Process one sample: compute the output, then update the weights.

    Returns (y, new_state). The output is computed from the pre-update
    state; plasticity is applied afterwards. For a stack of learners, x
    holds one sample per learner and all of them step at rate ``alpha``.
    """
    y = forward(state, x, variant)
    return y, plasticity(state, x, y, alpha, task)


def neural_filter(state, variant):
    """The effective input-to-output linear map F, with ``forward == F @ x``.

    The same solve as ``forward``, applied to W instead of ``W x``.
    """
    return _lateral_solve(state.m, state.w, variant)
