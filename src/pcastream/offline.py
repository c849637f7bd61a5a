"""Deterministic expectation dynamics over a known covariance.

With the population covariance G in hand, the stochastic updates can be
replaced by their expectations: the input/output correlation becomes
F G and the output covariance becomes F G F', where F is the learner's
current input-to-output filter. This module steps those averaged
dynamics with forward Euler, constructs their fixed points in closed
form from the eigendecomposition of G, and probes linear stability with
a finite-difference Jacobian on the flattened (W, upper-triangular M)
coordinates, whose perturbed states are all evaluated as one stack.
"""

from functools import partial

import numpy as np

from . import linalg, metrics
from .errors import TrialDivergedError
from .model import (
    ModelState,
    Task,
    _Targets,
    _Workspace,
    _increment,
    _lateral_solve,
    _stepped,
    advance,
    neural_filter,  # noqa: F401  (the name perfbench/tracing.py binds)
    outside_horizon,
)


def averaged_increment(variant, targets, ws, g):
    """The averaged update direction of the workspace's ``[W | M]`` on the
    covariance g: ``model._increment`` of the drive ``[F G, F G F']``,
    written into H's two blocks, with F the learner's filter; that is ``F
    G - W`` and the lateral drive before its 1/tau rate. ``F G F'`` is
    symmetric only up to rounding, so it is symmetrized here, once: the
    drive and every M that a step forms from it are then exactly
    symmetric.
    """
    _, w, m, _ = ws.cur
    f = _lateral_solve(m, w, variant, ws.d)
    fg = np.matmul(f, g, out=ws.h_w)
    corr = fg @ f.mT
    np.multiply(corr + corr.mT, 0.5, out=ws.h_m)
    return _increment(ws, targets)


def offline_step(state, g, alpha, task, variant):
    """One forward-Euler step of the averaged dynamics; a stack of learners
    steps on one covariance each, every slice bit for bit as alone."""
    return _stepped(state, g, alpha, partial(averaged_increment, variant,
                                             _Targets(state.lam, state.n, task)))


def construct_fixed_point(g, lam, task, signs=None, tau=None, order=None):
    """Closed-form stationary state of the averaged dynamics.

    The filter is the optimum of ``metrics.optimal_filter`` on g (with
    its optional per-row sign flips and eigenpair ``order``), the
    lateral matrix the diagonal of the matching eigenvalues, and
    ``W = M F``. Mismatched orderings are still stationary but linearly
    unstable, which the stability checks rely on.
    """
    eigvals, f = metrics.optimal_filter(g, lam, task, signs, order)
    if tau is None:
        tau = 0.5 if task is Task.PSP else 1.0
    m = np.diag(eigvals)
    return ModelState(m, m @ f, lam, tau)


def fixed_point_residual(state, g, task, variant):
    """Norm of the averaged-dynamics vector field at a state.

    Zero exactly at stationary points: ``||F G - W||`` plus the norm of
    the lateral drive (against ``(lam lam') * M`` for projection,
    ``diag(lam^2)`` for whitening).
    """
    field = averaged_increment(variant, _Targets(state.lam, state.n, task),
                               _Workspace(state.wm), g)
    n = state.n
    return linalg.frobenius(field[..., :n]) + linalg.frobenius(field[..., n:])


def _jacobian(state, g, task, variant, eps):
    """Central-difference Jacobian of the vector field on the packed
    coordinates, W then the upper triangle of M (at the flat positions
    ``coord`` of ``[W | M]``); column i from the pair of states ``base +-
    eps`` on coordinate i.

    All 2 * dim perturbed states go through one stacked field
    evaluation. M is rebuilt from its upper triangle as the triangle
    plus its strict part transposed, so the diagonal is never doubled.
    """
    k, n = state.k, state.n
    rows, cols = np.triu_indices(k)
    w_pos = np.arange(k * n)
    coord = np.concatenate([w_pos + w_pos // n * k, rows * (n + k) + n + cols])
    base = state.wm.ravel()[coord]
    dim = base.size
    step = eps * np.eye(dim)
    wm = np.zeros((2 * dim, k * (n + k)))
    wm[:, coord] = np.concatenate([base + step, base - step])
    wm = wm.reshape(-1, k, n + k)
    wm[..., n:] += np.triu(wm[..., n:], 1).mT
    field = averaged_increment(variant, _Targets(state.lam, n, task), _Workspace(wm), g)
    field[..., n:] /= state.tau
    field = field.reshape(2 * dim, -1)[:, coord]
    return ((field[:dim] - field[dim:]) / (2.0 * eps)).T


def jacobian_spectrum(state, g, task, variant, eps=1e-5):
    """Real parts of the eigenvalues of the linearized averaged dynamics.

    Central finite differences of the flattened vector field around a
    near-stationary state, with every perturbed state evaluated in one
    stack. The symmetric lateral matrix contributes only its upper
    triangle as coordinates, so symmetry-redundant directions cannot
    produce spurious eigenvalues. Negative real parts throughout mean
    the state is linearly stable.
    """
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError("eps must lie in [1e-7, 1e-4]")
    g = np.asarray(g, dtype=float)
    if not fixed_point_residual(state, g, task, variant) <= 1e-6:  # NaN too
        raise ValueError("state is not close enough to a fixed point")
    eig = np.linalg.eigvals(_jacobian(state, g, task, variant, eps))
    return np.sort(eig.real)[::-1]


def run_offline(initial, g, schedule, t_max, checkpoints=(), *,
                task, variant):
    """Run the averaged dynamics, snapshotting at the requested iterations.

    ``model.advance`` on a stack of one. Returns ``{t: state}`` at the
    checkpoints and at t_max (for ``t_max == 0`` that is the initial
    state). Any model failure is wrapped in TrialDivergedError carrying
    the iteration index.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    wanted = {int(t) for t in checkpoints}
    bad = outside_horizon(wanted, t_max)
    if bad:
        raise ValueError(f"checkpoints outside [1, t_max]: {bad}")
    snaps = {}

    def visit(t, _, state):  # a read-only copy of its own
        snaps[t] = state
        return True

    def diverge(t, _, exc):
        raise TrialDivergedError(t, exc) from exc

    stack = ModelState.stack([initial])
    advance(stack, t_max, wanted | {t_max}, schedule,
            partial(averaged_increment, variant, _Targets(stack.lam, stack.n, task)),
            lambda live, count: np.asarray(g, dtype=float)[None, None], visit,
            diverge)
    return snaps
