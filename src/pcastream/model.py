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
that fails on any slice fails the whole call. ``advance`` is the one
loop that steps such a stack through time, online or averaged.
"""

import math
from enum import Enum

import numpy as np

from . import linalg
from .errors import MODEL_ERRORS, DegenerateDiagonalError

DIAGONAL_FLOOR = 1e-12
_SAMPLE_CHUNK = 1024


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

    The iteration-free pass first rejects a diagonal entry below
    ``DIAGONAL_FLOOR`` in any slice. It decides as ``d.min() < floor``
    does, so a NaN diagonal passes, but tests the diagonal as a list of
    floats, which is cheaper than numpy reductions on a few entries. The
    pass writes into its own temporaries and leaves b alone.
    """
    if variant is Variant.EXACT_INVERSE:
        return linalg.lu_solve(linalg.lu_factor(m), b)
    d = m.diagonal(0, -2, -1).copy()
    diag = d.ravel().tolist()
    if min(diag) < DIAGONAL_FLOOR and not any(map(math.isnan, diag)):
        raise DegenerateDiagonalError("diagonal entry below invertibility floor")
    if b.ndim == m.ndim - 1:
        product = np.matvec
    else:
        product = np.matmul
        d = d[..., None]
    y_ff = b / d
    lateral = product(m, y_ff)
    lateral -= d * y_ff
    lateral /= d
    y_ff -= lateral
    return y_ff


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
        corr -= lam[:, None] * state.m * lam
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

    dw and dm must be fresh temporaries of the state's shapes: the new W
    is formed in dw and the moved M in dm. Symmetry of M is restored
    exactly so that rounding cannot accumulate over long runs. A
    diagonal at the floor (or NaN) or an overflow in any slice is
    divergence. The overflow test is one sum of squares per matrix,
    which is finite only if every entry is; only when it is not does
    the entrywise test run, so finite weights whose squares overflow
    still pass.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    dw *= alpha
    w = np.add(state.w, dw, out=dw)
    dm *= alpha / state.tau
    m = np.add(state.m, dm, out=dm)
    m = m + m.mT
    m *= 0.5
    if not all(map(DIAGONAL_FLOOR.__lt__, m.diagonal(0, -2, -1).ravel().tolist())):
        raise DegenerateDiagonalError("updated lateral diagonal hit the floor")
    if not (_all_finite(m) and _all_finite(w)):
        raise DegenerateDiagonalError("weights overflowed")
    return ModelState(m, w, state.lam, state.tau, check=False)


def _all_finite(a):
    """Whether every entry of a is finite. A NaN or an infinity makes the
    sum of squares NaN or infinite, so a finite sum settles it at once."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def plasticity(state, x, y, alpha, task):
    """One Hebbian/anti-Hebbian weight update for the pair (x, y).

    W moves toward the input/output correlation. M moves along the
    output correlation minus its target, ``lam M lam`` for projection or
    the fixed ``lam**2`` for whitening, at 1/tau of the W rate.
    """
    y_col = y[..., :, None]
    dw = y_col * x[..., None, :]
    dw -= state.w
    return _apply_update(state, dw,
                         lateral_drive(y_col * y[..., None, :], state, task), alpha)


def online_step(state, x, alpha, task, variant):
    """Process one sample: compute the output, then update the weights.

    Returns (y, new_state). The output is computed from the pre-update
    state; plasticity is applied afterwards. For a stack of learners, x
    holds one sample per learner and all of them step at rate ``alpha``.
    """
    y = forward(state, x, variant)
    return y, plasticity(state, x, y, alpha, task)


def _replay(live, state, x, t, rate, step, diverge):
    """Step t again one trial at a time, after the stack's step raised; a
    trial whose own step fails goes to ``diverge``. Returns the others'
    new stack (None if none is left) and their indices in ``live``."""
    kept, steps = [], []
    for j, position in enumerate(live):
        try:
            steps.append(step(state[j], x[j], rate))
        except MODEL_ERRORS as exc:
            diverge(t, position, exc)
        else:
            kept.append(j)
    return (ModelState.stack(steps) if steps else None), kept


def advance(state, t_max, points, schedule, step, draw, visit, diverge):
    """Step a stack of learners from ``state`` through step ``t_max``.

    ``step(state, x, rate)`` moves a stack, or one learner, at
    ``schedule.rate(t)``. ``draw(live, count)`` gives the inputs of the
    trials at stack positions ``live``, one column each: ``count`` rows
    (chunks of ``_SAMPLE_CHUNK`` steps), or one row for every step.
    ``visit(t, position, state)`` sees each live trial at each t in
    ``points`` (at t = 0 when ``t_max == 0``) and returns whether it goes
    on; ``diverge(t, position, exc)`` gets a trial whose own step raised
    a model error. A trial that ends leaves the stack; the others go on.
    """
    live = list(range(len(state.w)))
    if t_max == 0:  # the initial state is the only snapshot
        for j in live:
            visit(0, j, state[j])
    t = 0
    while t < t_max and live:
        count = min(_SAMPLE_CHUNK, t_max - t)
        block = draw(live, count)  # (rows, trials, ...)
        for r in range(count):
            t += 1
            x = block[r % len(block)]
            rate = schedule.rate(t)
            try:
                state = step(state, x, rate)
            except MODEL_ERRORS:
                state, kept = _replay(live, state, x, t, rate, step, diverge)
                live, block = [live[j] for j in kept], block[:, kept]
            if t in points and live:
                kept = [j for j, position in enumerate(live)
                        if visit(t, position, state[j])]
                if len(kept) < len(live):
                    live, state, block = ([live[j] for j in kept], state[kept],
                                          block[:, kept])
            if not live:
                break


def neural_filter(state, variant):
    """The effective input-to-output linear map F, with ``forward == F @ x``.

    The same solve as ``forward``, applied to W instead of ``W x``.
    """
    return _lateral_solve(state.m, state.w, variant)
