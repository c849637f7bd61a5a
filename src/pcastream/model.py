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
share the gain and time constant: ``[W | M]`` of shape B x K x (N + K)
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

    The weights are one C-contiguous ``wm = [W | M]``, K x (N + K) or B x
    K x (N + K), with views ``w`` and ``m``; ``coefs`` holds the update
    constants (:class:`_Coefficients`). An updated state's wm is read-only
    and its ``diag`` is M's diagonal as the update tested it (else None).
    Stacks and states made from valid ones come from :meth:`_unchecked`.
    """

    __slots__ = ("wm", "w", "m", "lam", "tau", "coefs", "diag")

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
        self._set(np.concatenate((w, m), axis=1), lam, tau)

    def _set(self, wm, lam, tau, coefs=None, diag=None):
        n = wm.shape[-1] - wm.shape[-2]
        self.wm, self.w, self.m, self.lam, self.tau = wm, wm[..., :n], wm[..., n:], lam, tau
        self.coefs, self.diag = _Coefficients(lam, n) if coefs is None else coefs, diag
        return self

    @classmethod
    def _unchecked(cls, wm, lam, tau, coefs=None, diag=None):
        """A state or stack taken as given: valid by construction, or a test's."""
        return cls.__new__(cls)._set(wm, lam, tau, coefs, diag)

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
        return cls._unchecked(np.stack([s.wm for s in states]), first.lam, first.tau,
                              first.coefs)

    def __getitem__(self, index):
        """Learner ``index`` of a stack, or the sub-stack of an index list."""
        return self._unchecked(self.wm[index], self.lam, self.tau, self.coefs)

    def copy(self):
        return self._unchecked(self.wm.copy(), self.lam.copy(), self.tau, self.coefs)

    def __repr__(self):
        return f"ModelState(k={self.k}, n={self.n}, tau={self.tau})"


def outside_horizon(points, t_max):
    """The points outside [1, t_max], sorted: a run never reaches them."""
    return sorted(t for t in points if not 1 <= t <= t_max)


class _Coefficients(dict):
    """The read-only constants of the update of ``[W | M]``, shared by
    every state made from the first: ``coefs[wm.shape]``, built on first
    use and shaped like wm so that no update broadcasts, is ``(psp, psw,
    square, columns)``: ``C = psp = [1 | lam lam']`` for projection, ``C
    = psw = [1 | 0]`` and ``S = square = [-0 | diag(lam**2)]`` for
    whitening (:func:`_increment`), 0 on W's columns and 1 on M's."""

    def __init__(self, lam, n):
        self.lam, self.n, self.last = lam, n, (None,)

    def rate(self, shape, alpha, tau):
        """``(alpha, alpha / tau)[columns]``, kept (callers only read it) while
        a constant schedule repeats alpha."""
        last = self.last
        if alpha != last[0] or tau != last[1] or shape != last[2]:
            rate = np.array((alpha, alpha / tau))[self[shape][3]]
            last = self.last = alpha, tau, shape, rate
        return last[3]

    def __missing__(self, shape):
        lam, n, columns = self.lam, self.n, np.zeros(shape, dtype=np.intp)
        columns[..., n:] = 1
        psp, psw, square = 1.0 - columns, 1.0 - columns, -0.0 * columns
        psp[..., n:] = np.multiply.outer(lam, lam)
        square[..., n:] = np.diag(lam * lam)
        consts = self[shape] = (psp, psw, square, columns)
        for a in consts:
            a.setflags(write=False)
        return consts


def _lateral_solve(m, b, variant, d=None):
    """``M^-1 b`` for a vector or a matrix b (one row per output), per
    slice of a stack of M.

    Exact: one factorization of M. Iteration-free: the two-step pass,
    ``D^-1 b - D^-1 M_o D^-1 b`` with D the diagonal and M_o the
    off-diagonal part of M: b scaled by the diagonal, then one lateral
    correction of that provisional signal, again scaled by the diagonal.
    It uses no general inversion, and its error is quadratic in the
    off-diagonal norm.

    The iteration-free pass uses a diagonal ``d`` its update tested, or
    rejects an entry below ``DIAGONAL_FLOOR`` in any slice as ``d.min() <
    floor`` does (a NaN passes), on a list of floats. It writes only into
    its own temporaries.
    """
    if variant is Variant.EXACT_INVERSE:
        return linalg.lu_solve(linalg.lu_factor(m), b)
    if d is None:
        d = m.diagonal(0, -2, -1).copy()
        diag = d.ravel().tolist()
        if min(diag) < DIAGONAL_FLOOR and not any(map(math.isnan, diag)):
            raise DegenerateDiagonalError("diagonal entry below invertibility floor")
    product = np.matvec if b.ndim < m.ndim else np.matmul
    if product is np.matmul:
        d = d[..., None]
    y_ff = b / d
    lateral = product(m, y_ff)
    lateral -= d * y_ff
    lateral /= d
    y_ff -= lateral
    return y_ff


def approx_inverse(m):
    """First-order near-diagonal inverse ``D^-1 - D^-1 (m - D) D^-1``, D
    the diagonal part of m: the two-step pass applied to the identity."""
    m = np.asarray(m, dtype=float)
    return _lateral_solve(m, np.eye(m.shape[0]), Variant.ITERATION_FREE)


def forward(state, x, variant):
    """Output for one input vector from the pre-update weights: the
    two-step pass on ``w @ x`` (iteration-free), or ``m @ y = w @ x``
    solved (exact)."""
    return _lateral_solve(state.m, np.matvec(state.w, x), variant, state.diag)


def _increment(state, hebb, task):
    """``hebb - C * wm`` or ``hebb - (C * wm + S)`` (:class:`_Coefficients`)
    in the fresh ``hebb = [H_W | H_M]``: 1 * W is W, ``x + -0`` is x and
    ``+-0 + +0`` is +0, so each entry is H_W - W, or H_M minus the exactly
    symmetric target ``(lam lam') * M`` or ``diag(lam**2)``, bit for bit."""
    psp, psw, square, _ = state.coefs[state.wm.shape]
    if task is Task.PSP:
        hebb -= psp * state.wm
    else:
        target = psw * state.wm
        target += square
        hebb -= target
    return hebb


def _apply_update(state, delta, alpha):
    """``wm + r * delta`` with r = ``(alpha, alpha / tau)[columns]``, in the
    fresh delta: one scale and one add, entrywise, so an exactly symmetric
    M block stays so. A diagonal at the floor (or NaN) or an overflow in
    any slice is divergence (:func:`linalg.all_finite`: finite weights
    whose squares overflow pass). The new wm is read-only, and the new
    state carries the diagonal tested here."""
    if not 0 <= alpha < math.inf:  # an input error, not a divergence
        raise ValueError("alpha must be nonnegative and finite")
    delta *= state.coefs.rate(delta.shape, alpha, state.tau)
    wm = np.add(state.wm, delta, out=delta)
    d = wm.diagonal(state.w.shape[-1], -2, -1).copy()
    if not all(map(DIAGONAL_FLOOR.__lt__, d.ravel().tolist())):
        raise DegenerateDiagonalError("updated lateral diagonal hit the floor")
    if not linalg.all_finite(wm):
        raise DegenerateDiagonalError("weights overflowed")
    wm.setflags(write=False)
    return ModelState._unchecked(wm, state.lam, state.tau, state.coefs, d)


def plasticity(state, x, y, alpha, task):
    """One Hebbian/anti-Hebbian weight update for the pair (x, y): W moves
    toward ``y x'``, M along ``y y'`` minus its target, ``(lam lam') * M``
    (projection) or ``diag(lam**2)`` (whitening), at 1/tau of the W rate;
    both from the one outer product ``y [x, y]'``. ``y y'`` is exactly
    symmetric, so M stays so."""
    hebb = y[..., :, None] * np.concatenate((x, y), axis=-1)[..., None, :]
    return _apply_update(state, _increment(state, hebb, task), alpha)


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
    return _lateral_solve(state.m, state.w, variant, state.diag)
