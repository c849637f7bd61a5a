"""Deterministic expectation dynamics over a known covariance.

With the population covariance G in hand, the stochastic updates can be
replaced by their expectations: the input/output correlation becomes
F G and the output covariance becomes F G F', where F is the learner's
current input-to-output filter. This module steps those averaged
dynamics with forward Euler, constructs their fixed points in closed
form from the eigendecomposition of G, and probes linear stability with
a finite-difference Jacobian on the flattened (W, upper-triangular M)
coordinates.
"""

from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import MODEL_ERRORS, TrialDivergedError
from .model import (
    ModelState,
    Task,
    _apply_update,
    lateral_drive,
    neural_filter,
)


@dataclass
class OfflineTrajectory:
    """Snapshots (iteration, state) along one averaged-dynamics run."""

    checkpoints: list

    def __post_init__(self):
        steps = [t for t, _ in self.checkpoints]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("checkpoint iterations must be strictly increasing")

    def final_state(self):
        return self.checkpoints[-1][1]

    def state_at(self, t):
        for step, state in self.checkpoints:
            if step == t:
                return state
        raise KeyError(f"no snapshot at iteration {t}")


def _averaged_field(state, g, task, variant):
    """The averaged update directions ``(F G - W, F G F' - target)``.

    F is the learner's filter; the second entry is the lateral drive
    before its 1/tau rate.
    """
    f = neural_filter(state, variant)
    fg = f @ g
    return fg - state.w, lateral_drive(fg @ f.mT, state, task)


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
    the lateral drive (against lam M lam for projection, lam^2 for
    whitening).
    """
    dw, dm = _averaged_field(state, g, task, variant)
    return float(np.linalg.norm(dw) + np.linalg.norm(dm))


def _pack(w, m):
    return np.concatenate([w.ravel(), m[np.triu_indices(m.shape[0])]])


def _unpack(vec, template):
    k, n = template.k, template.n
    w = vec[: k * n].reshape(k, n)
    m = np.zeros((k, k))
    iu = np.triu_indices(k)
    m[iu] = vec[k * n:]
    m = m + np.triu(m, 1).T
    return ModelState(m, w, template.lam, template.tau, check=False)


def _vector_field(state, g, task, variant):
    dw, dm = _averaged_field(state, g, task, variant)
    return _pack(dw, dm / state.tau)


def jacobian_spectrum(state, g, task, variant, eps=1e-5):
    """Real parts of the eigenvalues of the linearized averaged dynamics.

    Central finite differences of the flattened vector field around a
    near-stationary state. The symmetric lateral matrix contributes only
    its upper triangle as coordinates, so symmetry-redundant directions
    cannot produce spurious eigenvalues. Negative real parts throughout
    mean the state is linearly stable.
    """
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError("eps must lie in [1e-7, 1e-4]")
    g = np.asarray(g, dtype=float)
    if fixed_point_residual(state, g, task, variant) > 1e-6:
        raise ValueError("state is not close enough to a fixed point")
    base = _pack(state.w, state.m)
    dim = base.size
    jac = np.empty((dim, dim))
    for i in range(dim):
        bump = np.zeros(dim)
        bump[i] = eps
        hi = _vector_field(_unpack(base + bump, state), g, task, variant)
        lo = _vector_field(_unpack(base - bump, state), g, task, variant)
        jac[:, i] = (hi - lo) / (2.0 * eps)
    eig = np.linalg.eigvals(jac)
    return np.sort(eig.real)[::-1]


def run_offline(initial, g, schedule, t_max, checkpoints=(), *,
                task, variant):
    """Run the averaged dynamics, snapshotting at the requested iterations.

    The final iterate is always included (for ``t_max == 0`` that is the
    initial state). Any model failure is wrapped in TrialDivergedError
    carrying the iteration index.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    wanted = {int(t) for t in checkpoints}
    bad = [t for t in wanted if not 1 <= t <= max(t_max, 1)]
    if bad:
        raise ValueError(f"checkpoints outside [1, t_max]: {sorted(bad)}")
    state = initial.copy()
    if t_max == 0:
        return OfflineTrajectory([(0, state)])
    snaps = []
    for t in range(1, t_max + 1):
        try:
            state = offline_step(state, g, schedule.rate(t), task, variant)
        except MODEL_ERRORS as exc:
            raise TrialDivergedError(t, exc) from exc
        if t in wanted and t != t_max:
            snaps.append((t, state.copy()))
    snaps.append((t_max, state.copy()))
    return OfflineTrajectory(snaps)
