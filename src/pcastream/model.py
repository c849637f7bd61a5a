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

    PSP = "psp"  # projection: target is (lam lam') * M
    PSW = "psw"  # whitening: target is diag(lam ** 2)


class Variant(Enum):
    """How the lateral matrix is inverted when producing an output."""

    ITERATION_FREE = "iteration_free"
    EXACT_INVERSE = "exact"


class ModelState:
    """Value-type bundle of learner weights.

    Parameters (all checked):
    ====================
    m   -- lateral weights, K x K, symmetric, strictly positive diagonal;
           stored with its upper triangle mirrored, exactly symmetric
    w   -- feed-forward weights, K x N
    lam -- diagonal gain, length K, strictly decreasing positive
    tau -- time-constant ratio between the M and W updates, finite, > 0

    A state carries the read-only gain constants ``(lam lam',
    diag(lam**2))`` of the lateral targets, built once from lam. Stacks
    (B x K x K and B x K x N) and states made from valid ones come from
    :meth:`_unchecked`.
    """

    __slots__ = ("m", "w", "lam", "tau", "targets")

    def __init__(self, m, w, lam, tau):
        m = np.array(m, dtype=float)
        w = np.array(w, dtype=float)
        lam = np.array(lam, dtype=float)
        tau = float(tau)
        k = lam.size
        if lam.ndim != 1 or m.shape != (k, k) or w.ndim != 2 or w.shape[0] != k:
            raise ValueError("inconsistent state shapes")
        linalg.check_finite(m, "m")
        linalg.check_finite(w, "w")
        linalg.check_finite(lam, "lam")
        if not linalg.is_symmetric(m):
            raise ValueError("lateral matrix must be symmetric")
        rows, cols = np.tril_indices(k, -1)
        m[rows, cols] = m[cols, rows]
        if not (np.diagonal(m) > DIAGONAL_FLOOR).all():
            raise DegenerateDiagonalError("lateral diagonal not strictly positive")
        if not linalg.is_positive_decreasing(lam):
            raise ValueError("gain entries must be strictly decreasing and positive")
        if not linalg.is_positive_finite(tau):
            raise ValueError("tau must be positive and finite")
        self.m, self.w, self.lam, self.tau = m, w, lam, tau
        self.targets = _gain_targets(lam)

    @classmethod
    def _unchecked(cls, m, w, lam, tau, targets=None):
        """A state or stack taken as given: valid by construction, with
        the ``targets`` of its source, or invalid on purpose in a test."""
        state = cls.__new__(cls)
        state.m, state.w, state.lam, state.tau = m, w, lam, tau
        state.targets = _gain_targets(lam) if targets is None else targets
        return state

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
        return cls._unchecked(np.stack([s.m for s in states]),
                              np.stack([s.w for s in states]),
                              first.lam, first.tau, first.targets)

    def __getitem__(self, index):
        """Learner ``index`` of a stack, or the sub-stack of an index list."""
        return self._unchecked(self.m[index], self.w[index], self.lam, self.tau,
                               self.targets)

    def copy(self):
        return self._unchecked(self.m.copy(), self.w.copy(), self.lam.copy(),
                               self.tau, self.targets)

    def __repr__(self):
        return f"ModelState(k={self.k}, n={self.n}, tau={self.tau})"


def outside_horizon(points, t_max):
    """The points outside [1, t_max], sorted: a run never reaches them."""
    return sorted(t for t in points if not 1 <= t <= t_max)


def _gain_targets(lam):
    """``(lam lam', diag(lam**2))``, read-only: the entrywise gain of the
    projection target ``(lam lam') * M`` and the whitening target. Both
    are exactly symmetric, so neither target breaks the symmetry of M."""
    outer = np.multiply.outer(lam, lam)
    square = np.diag(lam * lam)
    outer.flags.writeable = square.flags.writeable = False
    return outer, square


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

    The target is ``(lam lam') * M`` for projection and the fixed
    ``diag(lam**2)`` for whitening, both from the state's gain constants
    ``state.targets``. Both are exactly symmetric for a symmetric M, so
    the drive is exactly as symmetric as ``corr``.
    """
    outer, square = state.targets
    if task is Task.PSP:
        corr -= outer * state.m
    else:
        corr -= square
    return corr


def _apply_update(state, dw, dm, alpha):
    """The state moved by ``alpha * dw`` (W) and ``alpha / tau * dm`` (M).

    dw and dm must be fresh temporaries of the state's shapes: the new W
    is formed in dw and the moved M in dm. Every operation on M is
    entrywise, so an exactly symmetric M and dm give an exactly
    symmetric new M, and no repair is needed: callers pass a symmetric
    dm. A diagonal at the floor (or NaN) or an overflow in any slice is
    divergence (:func:`linalg.all_finite`, so finite weights whose
    squares overflow still pass).
    """
    if not 0 <= alpha < math.inf:  # an input error, not a divergence
        raise ValueError("alpha must be nonnegative and finite")
    dw *= alpha
    w = np.add(state.w, dw, out=dw)
    dm *= alpha / state.tau
    m = np.add(state.m, dm, out=dm)
    if not all(map(DIAGONAL_FLOOR.__lt__, m.diagonal(0, -2, -1).ravel().tolist())):
        raise DegenerateDiagonalError("updated lateral diagonal hit the floor")
    if not (linalg.all_finite(m) and linalg.all_finite(w)):
        raise DegenerateDiagonalError("weights overflowed")
    return ModelState._unchecked(m, w, state.lam, state.tau, state.targets)


def plasticity(state, x, y, alpha, task):
    """One Hebbian/anti-Hebbian weight update for the pair (x, y).

    W moves toward the input/output correlation. M moves along the
    output correlation minus its target, ``(lam lam') * M`` for
    projection or the fixed ``diag(lam**2)`` for whitening, at 1/tau of
    the W rate. ``y y'`` is exactly symmetric, so M stays so.
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
