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
    K x (N + K), with views ``w`` and ``m``. An updated state's wm is
    read-only. Stacks and states made from valid ones come from
    :meth:`_unchecked`.
    """

    __slots__ = ("wm", "w", "m", "lam", "tau")

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

    def _set(self, wm, lam, tau):
        n = wm.shape[-1] - wm.shape[-2]
        self.wm, self.w, self.m, self.lam, self.tau = wm, wm[..., :n], wm[..., n:], lam, tau
        return self

    @classmethod
    def _unchecked(cls, wm, lam, tau):
        """A state or stack taken as given: valid by construction, or a test's."""
        return cls.__new__(cls)._set(wm, lam, tau)

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
        return cls._unchecked(np.stack([s.wm for s in states]), first.lam, first.tau)

    def __getitem__(self, index):
        """Learner ``index`` of a stack, or the sub-stack of an index list."""
        return self._unchecked(self.wm[index], self.lam, self.tau)

    def copy(self):
        return self._unchecked(self.wm.copy(), self.lam.copy(), self.tau)

    def __repr__(self):
        return f"ModelState(k={self.k}, n={self.n}, tau={self.tau})"


def outside_horizon(points, t_max):
    """The points outside [1, t_max], sorted: a run never reaches them."""
    return sorted(t for t in points if not 1 <= t <= t_max)


class _Targets(dict):
    """What :func:`_increment` reads for one task, by the shape of wm,
    built on first use and shaped like wm so that no update broadcasts:
    ``(C,)`` with ``C = [1 | lam lam']`` for projection, ``(C, S)`` with
    ``C = [1 | 0]`` and ``S = [-0 | diag(lam**2)]`` for whitening."""

    def __init__(self, lam, n, task):
        self.lam, self.n, self.task = lam, n, task

    def __missing__(self, shape):
        n, c = self.n, np.ones(shape)
        if self.task is Task.PSP:
            c[..., n:] = np.multiply.outer(self.lam, self.lam)
            consts = (c,)
        else:
            c[..., n:] = 0.0
            square = np.full(shape, -0.0)
            square[..., n:] = np.diag(self.lam * self.lam)
            consts = (c, square)
        for a in consts:
            a.setflags(write=False)
        self[shape] = consts
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

    The iteration-free pass uses a diagonal ``d`` its step tested, or
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
    return _lateral_solve(state.m, np.matvec(state.w, x), variant)


def neural_filter(state, variant):
    """The effective input-to-output linear map F, with ``forward == F @ x``.

    The same solve as ``forward``, applied to W instead of ``W x``.
    """
    return _lateral_solve(state.m, state.w, variant)


class _Workspace:
    """What steps of ``[W | M]`` of one shape write into, made once per
    stack shape and chunk of steps: two C-contiguous buffers, each with
    its W, M and (read-only) diagonal views, ``cur`` read by a step and
    ``nxt`` written, which swap only after the new weights pass the
    step's tests; the increment ``h`` with its blocks ``h_w`` and
    ``h_m``; and ``rate``, a chunk's one row of rates shaped like wm (a
    broadcast costs more than the copy), or None. ``d`` is cur's diagonal
    as an update tested it, or None: a contiguous copy, which the two-step
    pass reads faster than a view. The first cur is the array given, only
    read by the first step: a caller that steps more than once gives an
    array of its own."""

    __slots__ = ("cur", "nxt", "d", "h", "h_w", "h_m", "rate")

    def __init__(self, wm, d=None, rate=None):
        n, h = wm.shape[-1] - wm.shape[-2], np.empty(wm.shape)
        self.cur, self.nxt = [(a, a[..., :n], a[..., n:], a.diagonal(n, -2, -1))
                              for a in (wm, np.empty(wm.shape))]
        self.d, self.h, self.h_w, self.h_m = d, h, h[..., :n], h[..., n:]
        self.rate = None if rate is None else np.broadcast_to(rate, wm.shape).copy()


def _increment(ws, targets):
    """``H - C * wm`` or ``H - (C * wm + S)`` (:class:`_Targets`) in the
    workspace's ``H = [H_W | H_M]``, which holds the drive, with the
    target formed in the spare buffer: 1 * W is W, ``x + -0`` is x and
    ``+-0 + +0`` is +0, so each entry is H_W - W, or H_M minus the exactly
    symmetric target ``(lam lam') * M`` or ``diag(lam**2)``, bit for bit."""
    wm, target, h = ws.cur[0], ws.nxt[0], ws.h
    consts = targets[wm.shape]
    np.multiply(consts[0], wm, out=target)
    if targets.task is Task.PSW:
        target += consts[1]
    h -= target
    return h


def online_increment(variant, targets, ws, x, y=None):
    """The online update direction of the workspace's ``[W | M]`` for the
    sample x: :func:`_increment` of the drive ``y [x, y]'``, written into
    H's two blocks (``y y'`` is exactly symmetric), with y the output of
    the pre-update weights, or the y given."""
    if y is None:
        _, w, m, _ = ws.cur
        y = _lateral_solve(m, np.matvec(w, x), variant, ws.d)
    y = y[..., :, None]
    np.multiply(y, x[..., None, :], out=ws.h_w)
    np.multiply(y, y.mT, out=ws.h_m)
    return _increment(ws, targets)


def _rates(alphas, tau, n, out):
    """``out`` filled with one row of rates of ``[W | M]`` per step: alpha
    on W's n columns and ``alpha / tau`` on M's (an overflow is infinite,
    as in Python). A negative or non-finite alpha is an input error, not a
    divergence: it raises before any step uses it."""
    alpha = np.fromiter(alphas, dtype=float, count=len(out))
    if not ((alpha >= 0) & (alpha < math.inf)).all():
        raise ValueError("alpha must be nonnegative and finite")
    out[:, :n] = alpha[:, None]
    with np.errstate(over="ignore"):
        out[:, n:] = (alpha / tau)[:, None]
    return out


def _step(ws, x, row, increment):
    """The array step: ``wm + rate * increment(ws, x)`` for the learner or
    stack ``[W | M]`` of a workspace and input x, into its spare buffer, at
    ``ws.rate`` or one row of :func:`_rates` broadcast over the rows of W
    and M and over the stack: one scale and one add, entrywise, so an
    exactly symmetric M block stays so. A diagonal at the floor (or NaN)
    or an overflow in any slice is divergence (:func:`linalg.all_finite`:
    finite weights whose squares overflow pass); new weights that pass
    become current, with the copy of their diagonal that was tested."""
    h = increment(ws, x)
    h *= row if ws.rate is None else ws.rate
    nxt = ws.nxt
    np.add(ws.cur[0], h, out=nxt[0])
    d = nxt[3].copy()
    if not all(map(DIAGONAL_FLOOR.__lt__, d.ravel().tolist())):
        raise DegenerateDiagonalError("updated lateral diagonal hit the floor")
    if not linalg.all_finite(nxt[0]):
        raise DegenerateDiagonalError("weights overflowed")
    ws.cur, ws.nxt, ws.d = nxt, ws.cur, d


def _stepped(state, x, alpha, increment):
    """:func:`_step` of a state or stack at rate alpha in a fresh
    workspace, as a new state whose wm is read-only."""
    rate = _rates((alpha,), state.tau, state.n, np.empty((1, state.wm.shape[-1])))[0]
    ws = _Workspace(state.wm)
    _step(ws, x, rate, increment)
    wm = ws.cur[0]
    wm.setflags(write=False)
    return ModelState._unchecked(wm, state.lam, state.tau)


def plasticity(state, x, y, alpha, task):
    """One Hebbian/anti-Hebbian weight update for the pair (x, y): W moves
    toward ``y x'``, M along ``y y'`` minus its target, ``(lam lam') * M``
    (projection) or ``diag(lam**2)`` (whitening), at 1/tau of the W rate;
    both from the one outer product ``y [x, y]'``. ``y y'`` is exactly
    symmetric, so M stays so."""
    return _stepped(state, x, alpha, lambda ws, x: online_increment(
        None, _Targets(state.lam, state.n, task), ws, x, y))


def online_step(state, x, alpha, task, variant):
    """Process one sample: compute the output, then update the weights.

    Returns (y, new_state). The output is computed from the pre-update
    state; plasticity is applied afterwards. For a stack of learners, x
    holds one sample per learner and all of them step at rate ``alpha``.
    """
    y = forward(state, x, variant)
    return y, plasticity(state, x, y, alpha, task)


def _frozen(state, wm):
    """Learner ``wm`` of the stack ``state`` as a state of its own, on a
    read-only copy that no later step can change."""
    wm = wm.copy()
    wm.setflags(write=False)
    return ModelState._unchecked(wm, state.lam, state.tau)


def _replay(live, ws, x, t, row, one, increment, diverge):
    """Step t again one trial at a time, after the stack's step raised,
    from ``ws.cur``, which the failed step left as it was; a trial whose
    own step fails goes to ``diverge``. Returns a workspace of the others
    at the chunk's one rate (None if no trial is left) and their indices
    in ``live``."""
    kept, steps = [], []
    for j, position in enumerate(live):
        trial = _Workspace(ws.cur[0][j], None if ws.d is None else ws.d[j])
        try:
            _step(trial, x[j], row, increment)
        except MODEL_ERRORS as exc:
            diverge(t, position, exc)
        else:
            kept.append(j)
            steps.append((trial.cur[0], trial.d))
    if not steps:
        return None, kept
    wms, ds = zip(*steps)
    return _Workspace(np.stack(wms), np.stack(ds), one), kept


def advance(state, t_max, points, schedule, increment, draw, visit, diverge):
    """Step a stack of learners from ``state`` through step ``t_max``.

    The loop steps the stack's raw ``[W | M]`` in one :class:`_Workspace`
    with :func:`_step`, along ``increment(ws, x)`` at the rates of
    :func:`_rates`, one table per chunk of ``_SAMPLE_CHUNK`` steps from
    ``schedule.rate``. ``draw(live, count)`` gives the inputs of the
    trials at stack positions ``live``, one column each: ``count`` rows,
    or one row for every step. ``visit(t, position, state)`` sees each
    live trial at each t in ``points`` (at t = 0 when ``t_max == 0``) as
    a state of its own on a read-only copy, and returns whether it goes
    on; ``diverge(t, position, exc)`` gets a trial whose own step raised a
    model error. A trial that ends leaves the stack; the others go on.
    """
    live = list(range(len(state.wm)))
    if t_max == 0:  # the initial state is the only snapshot
        for j in live:
            visit(0, j, _frozen(state, state.wm[j]))
    ws = _Workspace(state.wm.copy())  # cur: a buffer of its own
    table = np.empty((min(_SAMPLE_CHUNK, t_max), state.wm.shape[-1]))  # refilled per chunk
    t = 0
    while t < t_max and live:
        count = min(_SAMPLE_CHUNK, t_max - t)
        block = draw(live, count)  # (rows, trials, ...)
        rates = _rates(map(schedule.rate, range(t + 1, t + count + 1)), state.tau,
                       state.n, table[:count])
        one = rates[0] if (rates == rates[0]).all() else None
        ws = _Workspace(ws.cur[0], ws.d, one)
        for r, row in enumerate(rates):
            t += 1
            x = block[r % len(block)]
            try:
                _step(ws, x, row, increment)
            except MODEL_ERRORS:
                ws, kept = _replay(live, ws, x, t, row, one, increment, diverge)
                live, block = [live[j] for j in kept], block[:, kept]
            if t in points and live:
                wm = ws.cur[0]
                kept = [j for j, position in enumerate(live)
                        if visit(t, position, _frozen(state, wm[j]))]
                if len(kept) < len(live):
                    live, block = [live[j] for j in kept], block[:, kept]
                    ws = _Workspace(wm[kept], ws.d[kept], one)
            if not live:
                break
        del block, x  # freed before the next chunk draws its own
