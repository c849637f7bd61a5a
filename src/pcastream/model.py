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
that fails on any slice fails the whole call. ``advance`` steps such a
stack through time, online or averaged (along the expectation over a
known covariance, ``averaged_increment``): the two forms of the one
update rule, in the one loop, ``run``, that each ``_Workspace`` binds
once with every buffer it writes, called once per run of inputs between
evaluation points and by the one-shot steps; no step is tested on its
own, but each window of steps, of one step or many, by one test.
"""

import math
from enum import Enum
from functools import cache
from itertools import repeat

import numpy as np
from numpy.linalg import _umath_linalg

from . import linalg
from .errors import MODEL_ERRORS, DegenerateDiagonalError

DIAGONAL_FLOOR = 1e-12
_SAMPLE_CHUNK = 1024
_WINDOW = 64  # steps of a run tested at once (_Workspace._bind)


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
        rows, cols = upper_triangle(k)
        m[cols, rows] = m[rows, cols]
        if not all(map(DIAGONAL_FLOOR.__lt__, np.diagonal(m).tolist())):  # NaN fails
            raise DegenerateDiagonalError("lateral diagonal not strictly positive")
        self._set(np.concatenate((w, m), axis=1), *self._checked_gain(lam, tau))

    @staticmethod
    def _checked_gain(lam, tau):
        """(lam, tau), if the gain and tau of a state are valid."""
        if not linalg.is_positive_decreasing(lam):
            raise ValueError("gain entries must be strictly decreasing and positive")
        if not linalg.is_positive_finite(tau):
            raise ValueError("tau must be positive and finite")
        return lam, tau

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


@cache
def upper_triangle(k):
    """``np.triu_indices(k)`` as the rows of one array made once per k, a
    broadcast view, which is read-only: no caller can change it for the next."""
    return np.broadcast_to(np.triu_indices(k), (2, k * (k + 1) // 2))


def outside_horizon(points, t_max):
    """The points outside [1, t_max], sorted: a run never reaches them."""
    return sorted(t for t in points if not 1 <= t <= t_max)


def _tested_diagonal(m):
    """A contiguous copy of M's diagonal, per slice of a stack, which the
    two-step pass reads faster than a view; an entry below
    ``DIAGONAL_FLOOR`` in any slice is rejected as ``d.min() < floor``
    rejects it (a NaN passes), on a list of floats."""
    d = m.diagonal(0, -2, -1).copy()
    diag = d.ravel().tolist()
    if min(diag) < DIAGONAL_FLOOR and not any(map(math.isnan, diag)):
        raise DegenerateDiagonalError("diagonal entry below invertibility floor")
    return d


def _two_step(product, m, b, d, out=None, ff=None, lateral=None, scaled=None):
    """The two-step pass ``D^-1 b - D^-1 M_o D^-1 b``, D the diagonal and
    M_o the off-diagonal part of M, per slice of a stack: b scaled by the
    diagonal d, then one lateral correction of that provisional signal
    ``ff``, again scaled by the diagonal. ``product`` is ``np.matvec`` for
    a vector b, or ``np.matmul`` for a matrix b (one row per output, with
    d shaped ``(..., K, 1)``). It uses no general inversion, and its error
    is quadratic in the off-diagonal norm. Writes into the buffers given,
    or new ones, and returns ``out``."""
    ff = np.divide(b, d, ff)
    lateral = product(m, ff, lateral)
    lateral -= np.multiply(d, ff, scaled)
    lateral /= d
    return np.subtract(ff, lateral, out)


def _lateral_solve(m, b, variant):
    """``M^-1 b`` for a vector or a matrix b (one row per output), per
    slice of a stack of M: b multiplied by the explicit inverse of M from
    :func:`linalg.lu_factor`, looked up at each call (exact), or
    :func:`_two_step` on the tested diagonal (iteration-free)."""
    product = np.matvec if b.ndim < m.ndim else np.matmul
    if variant is Variant.EXACT_INVERSE:
        return product(linalg.lu_factor(m), b)
    d = _tested_diagonal(m)
    return _two_step(product, m, b, d if product is np.matvec else d[..., None])


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


def _less_target(h, target, wm, spare):
    """``H - C * wm`` or ``H - (C * wm + S)``, the workspace target, in H,
    which holds the drive, with the target formed in ``spare``: 1 * W is
    W, ``x + -0`` is x and ``+-0 + +0`` is +0, so each entry is H_W - W,
    or H_M minus the exactly symmetric target ``(lam lam') * M`` or
    ``diag(lam**2)``, bit for bit."""
    np.multiply(target[0], wm, spare)
    if len(target) > 1:
        spare += target[1]
    h -= spare
    return h


def _averaged_drive(f, g, h_w, h_m, corr=None, twice=None):
    """The expected drive ``[F G, F G F']`` on the covariance g into H's
    blocks, F the learner's filter: ``F G - W`` once less its target, and
    the lateral drive before its 1/tau rate. ``F G F'`` is symmetric only
    up to rounding, so it is symmetrized here, once: the drive and every
    M that a step forms from it are then exactly symmetric."""
    fg = np.matmul(f, g, h_w)
    corr = np.matmul(fg, f.mT, corr)
    np.multiply(np.add(corr, corr.mT, twice), 0.5, h_m)


class _Workspace:
    """The arrays that steps of ``[W | M]`` of one shape, task and
    variant write into: the weights ``wm`` given (read by the first run's
    first step), a spare buffer, the increment ``h`` and the ``target``
    that H less its drive is, shaped like wm so that no update broadcasts:
    ``(C,)`` with ``C = [1 | lam lam']`` for projection, ``(C, S)`` with
    ``C = [1 | 0]`` and ``S = [-0 | diag(lam**2)]`` for whitening. Made
    for ``online`` (True) or averaged (False) steps, not for the field
    alone (None, :func:`averaged_increment`), it also binds its ``run``
    once (:meth:`_bind`) with its window buffers; between runs it holds
    only the weights, which ``current()`` gives, and ``error()`` the model
    error that ended the last run. Workspaces for a stack's kept trials
    come from :meth:`like`."""

    __slots__ = ("wm", "spare", "h", "lam", "task", "variant", "online", "target",
                 "run", "current", "error", "y")

    def __init__(self, wm, lam, task, variant, online=None):
        self.wm, self.spare, self.h, self.lam = wm, np.empty(wm.shape), np.empty(wm.shape), lam
        self.task, self.variant, self.online = task, variant, online
        n, c = wm.shape[-1] - wm.shape[-2], np.ones(wm.shape)
        if task is Task.PSP:
            c[..., n:] = np.multiply.outer(lam, lam)
            self.target = (c,)
        else:
            c[..., n:] = 0.0
            square = np.full(wm.shape, -0.0)
            square[..., n:] = np.diag(lam * lam)
            self.target = (c, square)
        if online is not None:
            self._bind()

    def like(self, wm):
        """A workspace of the same task, variant and steps for wm."""
        return _Workspace(wm, self.lam, self.task, self.variant, self.online)

    def _bind(self):
        """Build ``run(xs, rows)``: one loop that steps the weights on each
        input of xs (a sequence, or ``repeat`` of one) at its row of rates
        (a run of many steps at one rate: that row broadcast to wm's shape),
        every array it touches bound and each callee a local, looked up
        once per run. Online, x is a sample and the drive the one product
        ``y [x, y]'`` into H from ``u = [x | y]``, whose tail y (``self.y``)
        the pass writes; variant None steps on a given pair ``x = (x, y)``.
        Averaged, x is a covariance. Then ``wm + rate * (H less its
        target)``, entrywise (an exactly symmetric M stays so), goes into
        the buffer not read, and the two swap. A run steps by windows of at
        most ``_WINDOW`` steps with no test inside one, keeping each step's
        new diagonal (which the next iteration-free step reads; a run's
        first tests its own, :func:`_tested_diagonal`) or, exact, a copy of
        its M and the inverse that NumPy's gufunc alone writes for it. Each
        window, of one step or many, then meets one test, which raises the
        model error of the first divergence it finds, in the order a step
        meets them: a kept M that :func:`linalg.well_conditioned` rejects
        (named by :func:`linalg.lu_factor`, which passes the few that only
        the margin rejects); weights overflowed in any slice
        (:func:`linalg.all_finite`: finite weights whose squares overflow
        pass), so that an infinite or NaN diagonal is named as one; a new
        diagonal at the floor. A window of many steps that fails steps again
        from a copy of its first weights, one step per window; a window of
        one that fails ends the run, with its error and the weights of the
        step before, and the run returns the steps done. Under
        ``advance``'s errstate this is sound: at rates of at least 0 an
        entry that is not finite is NaN after the next step (``inf - C
        inf`` and ``0 * inf`` are NaN, C being 0 or positive); the gufunc
        writes NaN for a singular M; and ``lu_factor``'s inverse is the
        gufunc's, bit for bit."""
        wm, h, target, variant, online = self.wm, self.h, self.target, self.variant, self.online
        lead, k, n = wm.shape[:-2], wm.shape[-2], wm.shape[-1] - wm.shape[-2]
        exact, error = variant is Variant.EXACT_INVERSE, None
        views = lambda a: (a, a[..., :n], a[..., n:], a.diagonal(n, -2, -1))
        cur, nxt, first = views(wm), views(self.spare), views(np.empty(wm.shape))
        # per step of a window: its new diagonal, or (exact) a copy of its M and that M's inverse
        slots, inverses = np.empty((2, _WINDOW) + lead + (k, k)) if exact else (
            np.empty((_WINDOW,) + lead + (k,)), repeat(None))
        if online:
            b, ff, lateral, u = (np.empty(lead + (size,)) for size in (k, k, k, n + k))
            head, y, y_col, u_row = u[..., :n], u[..., n:], u[..., n:, None], u[..., None, :]
            self.y = y
        else:
            f, ff, lateral = (np.empty(lead + (k, n)) for _ in range(3))
            corr, twice = np.empty(lead + (k, k)), np.empty(lead + (k, k))
            h_w, h_m = h[..., :n], h[..., n:]

        def test(count):  # the window of count steps just done (NaN fails)
            if exact and not linalg.well_conditioned(slots[:count], inverses[:count]):
                linalg.lu_factor(slots[:count])  # raises, unless only the margin rejected
            if not linalg.all_finite(cur[0]):
                raise DegenerateDiagonalError("weights overflowed")
            new = slots[1:count].diagonal(0, -2, -1) if exact else slots[:count]
            if not new.min(initial=cur[3].min()) > DIAGONAL_FLOOR:
                raise DegenerateDiagonalError("updated lateral diagonal hit the floor")

        def run(xs, rows):
            nonlocal cur, nxt, first, error
            inv, two_step, less, drive, matvec, matmul, multiply, add, copyto = (
                _umath_linalg.inv, _two_step, _less_target, _averaged_drive, np.matvec,
                np.matmul, np.multiply, np.add, np.copyto)
            steps, done, replay, error, d = len(rows), 0, 0, None, None
            if steps > 1 and (rows == rows[0]).all():
                rows = repeat(np.broadcast_to(rows[0], cur[0].shape).copy())
            while done < steps and error is None:
                size = 1 if done < replay else min(len(slots), steps - done)
                window = [a if isinstance(a, repeat) else a[done:done + size] for a in (xs, rows)]
                copyto(first[0], cur[0])
                try:
                    if d is None and variant is Variant.ITERATION_FREE:
                        d = _tested_diagonal(cur[2])
                    for x, row, slot, inverse in zip(*window, slots[:size], inverses):
                        wm, w, m, _ = cur
                        if exact:
                            copyto(slot, m)
                            inv(slot, inverse)
                        if online:
                            if variant is None:
                                x, given = x
                                copyto(y, given)
                            else:
                                matvec(w, x, b)
                                if exact:
                                    matvec(inverse, b, y)
                                else:
                                    two_step(matvec, m, b, d, y, ff, lateral, b)
                            copyto(head, x)
                            multiply(y_col, u_row, h)
                        else:
                            if exact:
                                matmul(inverse, w, f)
                            else:
                                two_step(matmul, m, w, d[..., None], f, ff, lateral, f)
                            drive(f, x, h_w, h_m, corr, twice)
                        less(h, target, wm, nxt[0])
                        multiply(h, row, h)
                        add(wm, h, nxt[0])
                        if not exact:
                            copyto(slot, nxt[3])
                        cur, nxt, d = nxt, cur, slot
                    test(size)
                    done += size
                except MODEL_ERRORS as exc:
                    cur, first, d = first, cur, None  # back to the window's first weights
                    # its steps again, one per window; a step that fails ends the run
                    replay, error = done + size, None if size > 1 else exc
            return done

        self.run, self.current, self.error = run, lambda: cur[0], lambda: error


def averaged_increment(ws, g):
    """The averaged update direction of the weights of a workspace on the
    covariance g, the expectation of the online one: :func:`_averaged_drive`
    of the learner's filter, less the target, in ``ws.h``."""
    wm, h, n = ws.wm, ws.h, ws.wm.shape[-1] - ws.wm.shape[-2]
    _averaged_drive(_lateral_solve(wm[..., n:], wm[..., :n], ws.variant), g,
                    h[..., :n], h[..., n:])
    return _less_target(h, ws.target, wm, ws.spare)


def _rates(alphas, tau, n, out):
    """``out`` filled with one row of rates of ``[W | M]`` per step: alpha
    on W's n columns and ``alpha / tau`` on M's (an overflow is infinite,
    as in Python). A negative or non-finite alpha is an input error, not a
    divergence: it raises before any step uses it."""
    alpha = np.asarray(alphas, dtype=float).reshape(len(out))
    if not ((alpha >= 0) & (alpha < math.inf)).all():
        raise ValueError("alpha must be nonnegative and finite")
    out[:, :n] = alpha[:, None]
    out[:, n:] = (alpha / tau)[:, None]  # under the callers' errstate
    return out


def _frozen(state, wm):
    """Learner ``wm`` of the stack ``state`` as a state of its own, on a
    read-only copy that no later step can change."""
    wm = wm.copy()
    wm.setflags(write=False)
    return ModelState._unchecked(wm, state.lam, state.tau)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as in advance
def _stepped(state, x, alpha, task, variant, online):
    """One step of a state or stack at rate alpha in a fresh workspace:
    the output y (online, a copy; None averaged) and the new state, whose
    wm is a read-only copy."""
    ws = _Workspace(state.wm, state.lam, task, variant, online)
    if not ws.run((x,), _rates((alpha,), state.tau, state.n, np.empty((1, state.wm.shape[-1])))):
        raise ws.error()
    return ws.y.copy() if online else None, _frozen(state, ws.current())


def plasticity(state, x, y, alpha, task):
    """One Hebbian/anti-Hebbian weight update for the pair (x, y): W moves
    toward ``y x'``, M along ``y y'`` minus its target, ``(lam lam') * M``
    (projection) or ``diag(lam**2)`` (whitening), at 1/tau of the W rate;
    both from the one outer product ``y [x, y]'``. ``y y'`` is exactly
    symmetric, so M stays so."""
    return _stepped(state, (x, y), alpha, task, None, True)[1]


def online_step(state, x, alpha, task, variant):
    """Process one sample: compute the output, then update the weights.

    Returns (y, new_state). The output is computed from the pre-update
    state; plasticity is applied afterwards. For a stack of learners, x
    holds one sample per learner and all of them step at rate ``alpha``.
    """
    return _stepped(state, x, alpha, task, variant, True)


def _replay(live, ws, x, t, row, diverge):
    """Step t again one trial at a time, after the stack's step raised,
    from the weights of ``ws``, which the failed step left as they were; a
    trial whose own step fails goes to ``diverge``. Returns a workspace of
    the others (None if no trial is left) and their indices in ``live``."""
    wm, steps = ws.current(), {}
    for j, position in enumerate(live):
        trial = ws.like(wm[j])
        if trial.run((x[j],), (row,)):
            steps[j] = trial.current()
        else:
            diverge(t, position, trial.error())
    if not steps:
        return None, []
    return ws.like(np.stack(list(steps.values()))), list(steps)


def advance(state, task, variant, online, t_max, points, schedule, draw, visit, diverge):
    """Step a stack of learners from ``state`` through step ``t_max``.

    The stack's raw ``[W | M]`` is stepped by runs of one
    :class:`_Workspace` of the task and variant, online or averaged, made
    once and again only when trials leave the stack: one table of
    :func:`_rates` from ``schedule.rates`` per chunk of ``_SAMPLE_CHUNK``
    steps, one run per segment of it up to each point. ``draw(live,
    count)`` gives the inputs of the trials at stack positions ``live``,
    one column each: ``count`` rows, or one row for every step.
    ``visit(t, position, state)`` sees each live trial at each t in
    ``points`` (at t = 0 when ``t_max == 0``) as a state of its own on a
    read-only copy, and returns whether it goes on; ``diverge(t,
    position, exc)`` gets a trial whose own step raised a model error, in
    a one-trial replay of the step that ended a run (the run's own
    replay, one step per window, finds it). A trial that ends leaves the stack; the others go on.
    """
    live = list(range(len(state.wm)))
    table = np.empty((min(_SAMPLE_CHUNK, t_max), state.wm.shape[-1]))  # refilled per chunk
    t = 0
    # a diverging step, or the readout of weights too large, overflows on
    # its way to the tests that name it (a run's, at its end, after it may
    # divide by a diagonal at the floor)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if t_max == 0:  # the initial state is the only snapshot
            for j in live:
                visit(0, j, _frozen(state, state.wm[j]))
            return
        ws = _Workspace(state.wm.copy(), state.lam, task, variant, online)  # a buffer of its own
        while t < t_max and live:
            count = min(_SAMPLE_CHUNK, t_max - t)
            block = draw(live, count)  # (rows, trials, ...)
            rates = _rates(schedule.rates(t + 1, count), state.tau, state.n, table[:count])
            r = 0  # steps done
            for stop in [*filter(points.__contains__, range(t + 1, t + count)), t + count]:
                while t + r < stop and live:
                    xs = repeat(block[0]) if len(block) == 1 else block[r:stop - t]
                    r += ws.run(xs, rates[r:stop - t])
                    if t + r < stop:  # step t + r + 1 raised
                        ws, kept = _replay(live, ws, block[r % len(block)], t + r + 1,
                                           rates[r], diverge)
                        live, block, r = [live[j] for j in kept], block[:, kept], r + 1
                if stop in points and live:
                    wm = ws.current()
                    kept = [j for j, position in enumerate(live)
                            if visit(stop, position, _frozen(state, wm[j]))]
                    if len(kept) < len(live):
                        live, block = [live[j] for j in kept], block[:, kept]
                        ws = ws.like(wm[kept])
            t += count
            del block, xs  # freed before the next chunk draws its own
