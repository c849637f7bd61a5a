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

import numpy as np

from . import metrics
from .errors import TrialDivergedError
from .model import (
    ModelState,
    Task,
    _apply_update,
    advance,
    lateral_drive,
    neural_filter,
    outside_horizon,
)


def _averaged_field(state, g, task, variant):
    """The averaged update directions ``(F G - W, F G F' - target)``.

    F is the learner's filter; the second entry is the lateral drive
    before its 1/tau rate. ``F G F'`` is symmetric only up to rounding,
    so it is symmetrized here, once: the drive is then exactly
    symmetric, and so is every M that ``_apply_update`` forms from it.
    """
    f = neural_filter(state, variant)
    fg = f @ g
    corr = fg @ f.mT
    corr = corr + corr.mT
    corr *= 0.5
    return fg - state.w, lateral_drive(corr, state, task)


def offline_step(state, g, alpha, task, variant):
    """One forward-Euler step of the averaged dynamics; a stack of learners
    steps on one covariance each, every slice bit for bit as alone."""
    return _apply_update(state, *_averaged_field(state, g, task, variant),
                         alpha)


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
    dw, dm = _averaged_field(state, g, task, variant)
    return float(np.linalg.norm(dw) + np.linalg.norm(dm))


def _pack(w, m):
    """W and the upper triangle of M as one coordinate vector, one row
    per learner of a stack."""
    rows, cols = np.triu_indices(m.shape[-1])
    return np.concatenate([w.reshape(*w.shape[:-2], -1), m[..., rows, cols]],
                          axis=-1)


def _jacobian(state, g, task, variant, eps):
    """Central-difference Jacobian of the packed vector field, column i
    from the pair of states ``base +- eps`` on coordinate i.

    All 2 * dim perturbed states go through one stacked field
    evaluation. M is rebuilt from its upper triangle as the triangle
    plus its strict part transposed, so the diagonal is never doubled.
    """
    base = _pack(state.w, state.m)
    dim = base.size
    k, n = state.k, state.n
    step = eps * np.eye(dim)
    coords = np.concatenate([base + step, base - step])
    w = coords[:, : k * n].reshape(-1, k, n)
    m = np.zeros((2 * dim, k, k))
    rows, cols = np.triu_indices(k)
    m[:, rows, cols] = coords[:, k * n:]
    m = m + np.triu(m, 1).mT
    stack = ModelState._unchecked(m, w, state.lam, state.tau, state.targets)
    dw, dm = _averaged_field(stack, g, task, variant)
    field = _pack(dw, dm / state.tau)
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

    def visit(t, _, state):
        snaps[t] = state.copy()
        return True

    def diverge(t, _, exc):
        raise TrialDivergedError(t, exc) from exc

    advance(ModelState.stack([initial]), t_max, wanted | {t_max}, schedule,
            lambda state, x, rate: offline_step(state, x, rate, task, variant),
            lambda live, count: np.asarray(g, dtype=float)[None, None], visit,
            diverge)
    return snaps
