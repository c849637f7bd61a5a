"""Seeded verification suite.

Every invariant promised by the library is re-checked here on fresh
seeded instances: linear-algebra contracts, update-rule structure,
fixed-point construction and its linear stability (including the
deliberately mis-ordered construction that must come out unstable),
estimator consistency, the closed-form optimum oracles, and harness
reproducibility. Each check returns ``(passed, detail)``.
``run_verification`` returns one timed result per check; the CLI turns
that into pass/fail lines and an exit code.

This module is the single source of these checks. The checks that
``tests/test_acceptance.py`` also enforces as criteria 5-10 take a
``seed``: ``pcastream verify`` runs them at their default seeds, the
acceptance criteria at their own.
"""

import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from . import data, harness, linalg, metrics, model, offline
from .model import ModelState, Task, Variant

ALL_PAIRS = [(t, v) for t in Task for v in Variant]


def pair_label(task, variant):
    """Short name of a task/variant pair: ifPSP, PSP, ifPSW or PSW."""
    return ("if" if variant is Variant.ITERATION_FREE else "") + task.name


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str = ""


def _worst(*values):
    """The largest of ``values``, NaN if any is NaN (``max`` can drop a
    NaN), so that a check that measures NaN fails."""
    return float(np.max(values))


def _random_state(rng, k=3, n=6):
    gen = rng.generator
    e = gen.normal(size=(k, k))
    m = np.eye(k) + 0.05 * (e + e.T)
    np.fill_diagonal(m, np.abs(np.diagonal(m)) + 0.5)
    lam = np.sort(gen.uniform(0.5, 1.5, size=k))[::-1]
    lam = lam + np.arange(k)[::-1] * 0.05  # enforce strict gaps
    return ModelState(m, gen.normal(size=(k, n)), lam, 0.5)


# ---------------------------------------------------------------------------
# linalg

def check_sym_eig_reconstruction():
    rng = data.RngStream(101).generator
    worst = 0.0
    for size in (2, 3, 5, 8, 12):
        for _ in range(4):
            a = rng.normal(size=(size, size))
            a = 0.5 * (a + a.T)
            a *= 10.0 / max(np.linalg.norm(a), 10.0)  # keep ||a|| <= 10
            w, v = linalg.sym_eig(a)
            worst = _worst(worst, np.linalg.norm(v @ np.diag(w) @ v.T - a),
                           np.linalg.norm(v.T @ v - np.eye(size)))
    return worst <= 1e-9, f"worst residual {worst:.2e}"


def check_svd_ordering():
    rng = data.RngStream(102).generator
    for shape in ((4, 3), (3, 4), (6, 6), (5, 2)):
        a = rng.normal(size=shape)
        u, s, v = linalg.svd_small(a)
        if (np.diff(s) > 0).any() or (s < 0).any():
            return False, f"singular values out of order for {shape}"
        err = np.linalg.norm(u @ np.diag(s) @ v.T - a)
        if not err <= 1e-10 * max(np.linalg.norm(a), 1.0):
            return False, f"reconstruction {err:.2e} for {shape}"
    return True, "ordered, nonnegative, reconstructs"


def check_qr_determinism():
    rng = data.RngStream(103).generator
    for _ in range(5):
        a = rng.normal(size=(10, 10))
        q1, r1 = linalg.qr(a)
        q2, r2 = linalg.qr(a.copy())
        if not (q1 == q2).all() or not (r1 == r2).all():
            return False, "repeated runs differ"
        if not np.linalg.norm(q1.T @ q1 - np.eye(10)) <= 1e-12:
            return False, "q not orthonormal"
        if (np.diagonal(r1) < 0).any():
            return False, "negative diagonal in r"
    return True, "bit-identical, orthonormal, sign-fixed"


def check_solve_matches_eig_inverse():
    rng = data.RngStream(104).generator
    worst = 0.0
    for _ in range(5):
        a = rng.normal(size=(10, 10))
        m = a @ a.T + 0.5 * np.eye(10)
        b = rng.normal(size=10)
        x = linalg.lu_solve(linalg.lu_factor(m), b)
        w, v = linalg.sym_eig(m)
        x_eig = v @ ((v.T @ b) / w)
        worst = _worst(worst, np.linalg.norm(x - x_eig))
    return worst <= 1e-9, f"worst disagreement {worst:.2e}"


# ---------------------------------------------------------------------------
# model

def check_symmetry_preservation():
    """M stays exactly symmetric under ``plasticity``, and under
    ``offline_step`` for every task/variant pair, on a single learner and
    on a stack of three."""
    rng = data.RngStream(105)
    gen = rng.generator
    for task in (Task.PSP, Task.PSW):
        st = _random_state(rng)
        for _ in range(50):
            x = gen.normal(size=st.n)
            # outputs scaled to the gain keep the lateral drive near zero
            # mean, so the diagonal stays well away from the floor
            y = st.lam * gen.normal(size=st.k)
            st = model.plasticity(st, x, y, 0.02, task)
            if (st.m != st.m.T).any():
                return False, f"asymmetry after update ({task.value})"
    for task, variant in ALL_PAIRS:
        single = _random_state(rng)
        others = [_random_state(rng) for _ in range(2)]
        stack = ModelState.stack([single] + [ModelState(s.m, s.w, single.lam, single.tau)
                                             for s in others])
        gs = np.stack([data.build_covariance(data.CovarianceSpec(
            single.n, data.haar_orthogonal(single.n, rng), np.linspace(1.5, 0.2, single.n)))
            for _ in range(3)])
        for _ in range(50):
            single = offline.offline_step(single, gs[0], 0.02, task, variant)
            stack = offline.offline_step(stack, gs, 0.02, task, variant)
            if any((m != m.mT).any() for m in (single.m, stack.m)):
                return False, f"asymmetry after averaged step ({pair_label(task, variant)})"
    return True, "m stays exactly symmetric, online and averaged, single and stacked"


def check_two_step_equivalence():
    rng = data.RngStream(106)
    gen = rng.generator
    worst = 0.0
    for _ in range(20):
        st = _random_state(rng)
        d, m_o = model.split_diag(st.m)
        explicit = (np.eye(st.k) - (m_o / d[:, None])) @ (st.w / d[:, None])
        x = gen.normal(size=st.n)
        y = model.forward(st, x, Variant.ITERATION_FREE)
        worst = _worst(worst, np.abs(y - explicit @ x).max())
    return worst <= 1e-13, f"worst gap {worst:.2e}"


def check_approximation_order(seed=107):
    """The near-diagonal inverse is off by O(eps^2) at off-diagonal size eps."""
    gen = data.RngStream(seed).generator
    eps_grid = (1e-1, 1e-2, 1e-3)
    slopes = []
    for _ in range(5):
        d = np.diag(1.0 + gen.uniform(size=5))
        e = gen.normal(size=(5, 5))
        e = 0.5 * (e + e.T)
        np.fill_diagonal(e, 0.0)
        e /= np.linalg.norm(e)
        errs = []
        for eps in eps_grid:
            m = d + eps * e
            exact = linalg.lu_solve(linalg.lu_factor(m), np.eye(5))
            errs.append(np.linalg.norm(model.approx_inverse(m) - exact))
        slopes.append(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    return ok, "log-log slopes " + ", ".join(f"{s:.3f}" for s in slopes)


def check_iteration_free_cost():
    calls = []
    real_factor = linalg.lu_factor
    real_eig = linalg.sym_eig
    linalg.lu_factor = lambda *a, **k: calls.append("lu") or real_factor(*a, **k)
    linalg.sym_eig = lambda *a, **k: calls.append("eig") or real_eig(*a, **k)
    try:
        rng = data.RngStream(108)
        st = _random_state(rng)
        x = rng.generator.normal(size=st.n)
        model.online_step(st, x, 0.01, Task.PSP, Variant.ITERATION_FREE)
        model.online_step(st, x, 0.01, Task.PSW, Variant.ITERATION_FREE)
    finally:
        linalg.lu_factor = real_factor
        linalg.sym_eig = real_eig
    return not calls, f"solver calls on iteration-free path: {calls}"


def check_gain_ordering_rejected():
    try:
        ModelState(np.eye(2), np.zeros((2, 3)), np.array([0.7, 0.7]), 1.0)
    except ValueError:
        return True, "non-decreasing gain rejected"
    return False, "non-decreasing gain accepted"


# ---------------------------------------------------------------------------
# offline

def check_fixed_point_certification(seed=200):
    pre = data.small_problem()
    worst = 0.0
    for i in range(20):
        g = data.build_covariance(pre.draw_covariance(data.RngStream(seed, i)))
        for task, variant in ALL_PAIRS:
            fp = offline.construct_fixed_point(g, pre.lam, task)
            worst = _worst(worst, offline.fixed_point_residual(fp, g, task, variant))
    return worst < 1e-10, (f"worst residual {worst:.2e}<1e-10 "
                           f"over 20 covariances x 4 pairs")


def check_stability_dichotomy(seed=201):
    pre = data.small_problem()
    g = data.build_covariance(pre.draw_covariance(data.RngStream(seed)))
    parts = []
    ok = True
    for task, variant in ALL_PAIRS:
        fp = offline.construct_fixed_point(g, pre.lam, task)
        top = offline.jacobian_spectrum(fp, g, task, variant)[0]
        bad = offline.construct_fixed_point(g, pre.lam, task, order=[1, 0, 2])
        top_bad = offline.jacobian_spectrum(bad, g, task, variant)[0]
        ok &= top < -1e-6 and top_bad > 1e-6
        parts.append(f"{pair_label(task, variant)}:{top:.1e}/{top_bad:+.1e}")
    return ok, "max Re (ordered/permuted) " + ", ".join(parts)


def check_linearization_agreement():
    pre = data.small_problem()
    worst = 0.0
    for i in range(3):
        g = data.build_covariance(pre.draw_covariance(data.RngStream(202, i)))
        for task in (Task.PSP, Task.PSW):
            fp = offline.construct_fixed_point(g, pre.lam, task)
            s_if = offline.jacobian_spectrum(fp, g, task, Variant.ITERATION_FREE)
            s_ex = offline.jacobian_spectrum(fp, g, task, Variant.EXACT_INVERSE)
            scale = max(np.abs(s_ex).max(), 1.0)
            worst = _worst(worst, np.abs(s_if - s_ex).max() / scale)
    return worst <= 1e-4, f"worst relative spectrum gap {worst:.2e}"


def _converged_offline_states(g_rng, w_rng, checkpoints=(100, 1000)):
    """Averaged-dynamics runs of all four pairs on one small-preset problem.

    G is drawn from ``g_rng``, then the shared W initialization from
    ``w_rng`` (which may be the same stream). Returns the ``{t: state}``
    snapshots by pair and the ground truth of G.
    """
    pre = data.small_problem()
    g = data.build_covariance(pre.draw_covariance(g_rng))
    w0 = w_rng.generator.normal(0.0, pre.w_init_std, size=(pre.k, pre.n))
    runs = {}
    for task, variant in ALL_PAIRS:
        st = ModelState(pre.m_init[task] * np.eye(pre.k), w0, pre.lam,
                        pre.tau[task])
        runs[(task, variant)] = offline.run_offline(
            st, g, pre.offline_schedule, 5000, checkpoints,
            task=task, variant=variant)
    return runs, metrics.ground_truth(g, pre.k)


def check_lateral_decay(seed=203):
    runs, _ = _converged_offline_states(data.RngStream(seed),
                                        data.RngStream(seed + 1),
                                        checkpoints=())
    worst = _worst(*(metrics.lateral_diagnostics(snaps[5000].m)[0]
                     for snaps in runs.values()))
    return worst < 1e-6, f"worst final off/diag ratio {worst:.2e}<1e-6"


@functools.cache
def _tail_runs():
    """Stream-203 runs, read (never modified) by two checks."""
    rng = data.RngStream(203)
    return _converged_offline_states(rng, rng)


def check_monotone_tail():
    runs, truth = _tail_runs()
    for (task, variant), snaps in runs.items():
        errs = []
        for st in snaps.values():
            u = metrics.estimate_subspace(st, task, variant, truth.sigma_k)
            errs.append(metrics.procrustes_error(u, truth.u_k))
        if not all(b <= a for a, b in zip(errs, errs[1:])):
            return False, f"{task.value}/{variant.value} errors increase: {errs}"
    return True, "errors nonincreasing at 100/1000/5000"


# ---------------------------------------------------------------------------
# data

def check_stream_determinism():
    a = data.RngStream(7, 3).generator.standard_normal(100)
    b = data.RngStream(7, 3).generator.standard_normal(100)
    if not (a == b).all():
        return False, "same stream differs between instantiations"
    pre = data.small_problem()
    spec = pre.draw_covariance(data.RngStream(7, 1))
    rng1 = data.RngStream(9, 2)
    singles = np.array([data.sample(spec, rng1) for _ in range(8)])
    block = data.sample_block(spec, data.RngStream(9, 2), 8)
    gap = np.abs(singles - block).max()
    if not gap <= 1e-12:
        return False, f"block sampling deviates from single draws by {gap:.2e}"
    return True, "streams replay identically; blocks match singles"


def check_stream_independence():
    a = data.RngStream(7, 0).generator.standard_normal(4096)
    b = data.RngStream(7, 1).generator.standard_normal(4096)
    if (a == b).all():
        return False, "distinct streams identical"
    corr = abs(float(np.corrcoef(a, b)[0, 1]))
    return corr < 0.1, f"cross-stream correlation {corr:.3f}"


def check_covariance_symmetry():
    pre = data.small_problem()
    spec = pre.draw_covariance(data.RngStream(204))
    g = data.build_covariance(spec)
    if (g != g.T).any():
        return False, "covariance not bitwise symmetric"
    w, _ = linalg.sym_eig(g)
    gap = np.abs(np.sort(w) - np.sort(pre.spectrum)).max()
    return gap < 1e-10, f"eigenvalue mismatch {gap:.2e}"


def check_schedule_values():
    sched = data.InverseTime(10.0, 250.0)
    if sched.rate(0) != 0.04:
        return False, f"inverse-time rate(0) = {sched.rate(0)}"
    pieces = data.PiecewiseConstant(((10000.0, 1.1e-3), (float("inf"), 1.0e-4)))
    for s in (sched, pieces, data.Constant(0.1)):
        rates = [s.rate(t) for t in range(0, 20001, 100)]
        if not all(b <= a for a, b in zip(rates, rates[1:])):
            return False, f"rates increase for {s}"
    if pieces.rate(10000) != 1.1e-3 or pieces.rate(10001) != 1.0e-4:
        return False, "piecewise boundary wrong"
    return True, "boundary values and monotonicity hold"


# ---------------------------------------------------------------------------
# metrics

def check_procrustes_invariances(seed=205):
    gen = data.RngStream(seed).generator
    basis, _ = linalg.qr(gen.normal(size=(9, 6)))
    u = basis[:, :3]
    q = data.haar_orthogonal(3, data.RngStream(seed + 1))
    rotated = metrics.procrustes_error(u @ q, u)
    complement = metrics.procrustes_error(basis[:, 3:], u)
    theta = 0.7
    k1 = metrics.procrustes_error(
        np.array([[np.cos(theta)], [np.sin(theta)]]), np.array([[1.0], [0.0]]))
    k1_gap = abs(k1 - 2 * (1 - np.cos(theta)))
    ok = rotated < 1e-12 and abs(complement - 2.0) < 1e-12 and k1_gap < 1e-12
    return ok, (f"rotated copy {rotated:.1e}; complement {complement:.15f}; "
                f"k=1 gap {k1_gap:.1e}")


def check_estimator_consistency():
    pre = data.small_problem()
    worst = 0.0
    for i in range(10):
        g = data.build_covariance(pre.draw_covariance(data.RngStream(206, i)))
        truth = metrics.ground_truth(g, pre.k)
        for task, variant in ALL_PAIRS:
            fp = offline.construct_fixed_point(g, pre.lam, task)
            u = metrics.estimate_subspace(fp, task, variant, truth.sigma_k)
            worst = _worst(worst, metrics.procrustes_error(u, truth.u_k))
    return worst < 1e-9, f"worst fixed-point estimate error {worst:.2e}"


def _fd_gradient(func, y, h=1e-6):
    """Central finite-difference gradient of a scalar function at y."""
    grad = np.zeros_like(y)
    for idx in np.ndindex(*y.shape):
        step = h * (1.0 + abs(y[idx]))
        up = y.copy()
        up[idx] += step
        dn = y.copy()
        dn[idx] -= step
        grad[idx] = (func(up) - func(dn)) / (2 * step)
    return grad


def _closed_form_oracles(seed):
    """Stationarity and optimality of the closed-form optima.

    Over 10 instances per task, returns the worst scaled norm of the
    objective's gradient (for whitening, its component tangent to the
    constraint set {Y Y' = diag(lam)^2}) and whether each optimum beat
    1000 random equal-norm (projection) or feasible (whitening)
    competitors.
    """
    gen = data.RngStream(seed).generator
    lam = np.array([1.3, 1.0])
    worst_grad = 0.0
    beaten = True
    for _ in range(10):
        x = gen.normal(size=(4, 7))

        y_psp = metrics.closed_form_optimum(x, lam, Task.PSP)
        obj = metrics.objective_psp(y_psp, x, lam)
        grad = _fd_gradient(lambda yy: metrics.objective_psp(yy, x, lam), y_psp)
        worst_grad = _worst(worst_grad, np.linalg.norm(grad) / (1.0 + abs(obj)))
        norm = np.linalg.norm(y_psp)
        for _ in range(1000):
            cand = gen.normal(size=y_psp.shape)
            cand *= norm / np.linalg.norm(cand)
            if not metrics.objective_psp(cand, x, lam) >= obj - 1e-9:
                beaten = False

        y_psw = metrics.closed_form_optimum(x, lam, Task.PSW)
        val, _ = metrics.objective_psw(y_psw, x, lam)
        grad_w = _fd_gradient(lambda yy: metrics.objective_psw(yy, x, lam)[0],
                              y_psw)
        sym = grad_w @ y_psw.T + y_psw @ grad_w.T
        xi = sym / (lam[:, None] ** 2 + lam[None, :] ** 2)
        tangent = grad_w - xi @ y_psw
        worst_grad = _worst(worst_grad, np.linalg.norm(tangent) / (1.0 + abs(val)))
        for _ in range(1000):
            q, _ = linalg.qr(gen.normal(size=(7, 2)))
            cand = lam[:, None] * q.T
            if not metrics.objective_psw(cand, x, lam)[0] >= val - 1e-9:
                beaten = False
    return worst_grad, beaten


def check_closed_form_stationarity(seed=207):
    worst_grad, _ = _closed_form_oracles(seed)
    return worst_grad < 1e-6, (f"worst scaled stationarity gradient "
                               f"{worst_grad:.2e}<1e-6")


def check_closed_form_optimality(seed=208):
    _, beaten = _closed_form_oracles(seed)
    return beaten, f"beat 1000 competitors on 10 instances per task: {beaten}"


# ---------------------------------------------------------------------------
# harness

_TINY_CONFIG = json.dumps({
    "preset": "small", "task": "psp", "variant": "iteration_free",
    "mode": "online", "trials": 3, "seed": 11, "t_max": 300,
    "checkpoints": [150, 300],
})


def check_harness_reproducibility():
    cfg = harness.parse_config(_TINY_CONFIG)
    r1 = harness.run_experiment(cfg)
    r2 = harness.run_experiment(cfg)
    same = r1.comparable() == r2.comparable()
    return same, "identical reports" if same else "reports differ"


# Online, trials 0-6 diverge (at iterations 33, 8, 89, 60, 4, 3 and 3);
# offline, trials 1, 4, 5 and 6 (at 11, 2, 11 and 2). Either way stacks
# lose members mid-run and the step replay runs.
_MIXED_DIVERGENCE_CONFIGS = [json.dumps({
    "preset": "custom", "task": "psw", "variant": "iteration_free",
    "mode": mode, "n": 4, "k": 2, "lambda": [1.0, 0.8], "tau": 0.5,
    "spectrum": [1.0, 0.6, 0.3, 0.3],
    "schedule": {"kind": "constant", "alpha": alpha},
    "trials": 8, "seed": 1, "t_max": 200, "checkpoints": [checkpoint],
}) for mode, alpha, checkpoint in (("online", 0.2, 200), ("offline", 0.5, 50))]


def check_trial_isolation():
    """One stack (one worker), a split over two worker processes and
    every trial alone give identical reports, online and offline."""
    ok, diverged = True, []
    for text in _MIXED_DIVERGENCE_CONFIGS:
        cfg = harness.parse_config(text)
        one = harness.run_experiment(cfg, workers=1).comparable()
        split = harness.run_experiment(cfg, workers=2).comparable()
        alone = harness.SummaryReport(cfg, [out for i in range(cfg.trials)
                                            for out in harness._run_stack(cfg, [i])])
        count = sum(status == "diverged" for _, status, _, _ in one["status"])
        ok &= one == split == alone.comparable() and 0 < count < cfg.trials
        diverged.append(f"{count} of {cfg.trials} {cfg.mode}")
    return ok, (f"one stack, two processes, single-trial stacks: "
                f"{'identical' if ok else 'differ'}; trials diverged: "
                f"{', '.join(diverged)}")


def check_estimator_dispatch():
    runs, truth = _tail_runs()
    final = runs[(Task.PSW, Variant.EXACT_INVERSE)][5000]
    right = metrics.procrustes_error(
        metrics.estimate_subspace(final, Task.PSW, Variant.EXACT_INVERSE,
                                  truth.sigma_k), truth.u_k)
    wrong = metrics.procrustes_error(
        metrics.estimate_subspace(final, Task.PSP, Variant.EXACT_INVERSE),
        truth.u_k)
    ok = right < 1e-9 and wrong > 1e-4
    return ok, f"matched {right:.2e} vs mismatched {wrong:.2e}"


CHECKS = [
    ("linalg.sym_eig_reconstruction", check_sym_eig_reconstruction),
    ("linalg.svd_ordering", check_svd_ordering),
    ("linalg.qr_determinism", check_qr_determinism),
    ("linalg.solve_matches_eig_inverse", check_solve_matches_eig_inverse),
    ("model.symmetry_preservation", check_symmetry_preservation),
    ("model.two_step_equivalence", check_two_step_equivalence),
    ("model.approximation_order", check_approximation_order),
    ("model.iteration_free_cost", check_iteration_free_cost),
    ("model.gain_ordering_rejected", check_gain_ordering_rejected),
    ("offline.fixed_point_certification", check_fixed_point_certification),
    ("offline.stability_dichotomy", check_stability_dichotomy),
    ("offline.linearization_agreement", check_linearization_agreement),
    ("offline.lateral_decay", check_lateral_decay),
    ("offline.monotone_tail", check_monotone_tail),
    ("data.stream_determinism", check_stream_determinism),
    ("data.stream_independence", check_stream_independence),
    ("data.covariance_symmetry", check_covariance_symmetry),
    ("data.schedule_values", check_schedule_values),
    ("metrics.procrustes_invariances", check_procrustes_invariances),
    ("metrics.estimator_consistency", check_estimator_consistency),
    ("metrics.closed_form_stationarity", check_closed_form_stationarity),
    ("metrics.closed_form_optimality", check_closed_form_optimality),
    ("harness.reproducibility", check_harness_reproducibility),
    ("harness.trial_isolation", check_trial_isolation),
    ("harness.estimator_dispatch", check_estimator_dispatch),
]


def run_verification(name_filter=None):
    """Run all (or matching) checks; returns a list of CheckResult."""
    results = []
    for name, func in CHECKS:
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        try:
            passed, detail = func()
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed),
                                   time.perf_counter() - start, detail))
    return results
