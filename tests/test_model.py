import math
import types
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from pcastream import data, linalg, model, offline
from pcastream.errors import MODEL_ERRORS, DegenerateDiagonalError, SingularMatrixError
from pcastream.model import ModelState, Task, Variant

LAM3 = np.array([1.0, 0.85, 0.7])


def random_state(seed, k=3, n=10, off_scale=0.1, tau=0.5):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(k, k))
    m = np.eye(k) + off_scale * 0.5 * (e + e.T)
    np.fill_diagonal(m, 1.0 + 0.2 * rng.uniform(size=k))
    lam = np.linspace(1.0, 0.6, k)
    return ModelState(m, rng.normal(size=(k, n)), lam, tau)


def exact_inverse(m):
    """Inverse through the exact solve the learners run (oracle)."""
    return linalg.lu_solve(linalg.lu_factor(m), np.eye(m.shape[0]))


class TestModelState:
    def test_rejects_nondecreasing_gain(self):
        with pytest.raises(ValueError):
            ModelState(np.eye(2), np.zeros((2, 3)), np.array([0.7, 0.7]), 1.0)
        with pytest.raises(ValueError):
            ModelState(np.eye(2), np.zeros((2, 3)), np.array([0.7, 0.9]), 1.0)

    def test_rejects_nonpositive_diagonal(self):
        m = np.diag([1.0, 0.0])
        with pytest.raises(DegenerateDiagonalError):
            ModelState(m, np.zeros((2, 3)), np.array([1.0, 0.5]), 1.0)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(ValueError):
            ModelState(m, np.zeros((2, 3)), np.array([1.0, 0.5]), 1.0)

    def test_rejects_scalar_lateral_matrix(self):
        with pytest.raises(ValueError, match="^inconsistent state shapes$"):
            ModelState(1.0, np.zeros((1, 3)), np.array([1.0]), 1.0)

    def test_construction_always_checks(self):
        with pytest.raises(TypeError):
            ModelState(np.eye(2), np.zeros((2, 3)), np.array([0.5, 1.0]), 1.0,
                       check=False)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="^tau must be positive and finite$"):
            ModelState(np.eye(2), np.zeros((2, 3)), np.array([1.0, 0.5]), tau)

    def test_stores_lateral_matrix_exactly_symmetric(self):
        # within the symmetry tolerance, so accepted; the upper triangle wins
        m = np.array([[1.0, 0.3, 0.1], [0.3 + 1e-12, 1.0, 0.2], [0.1, 0.2 - 1e-12, 1.0]])
        st = ModelState(m, np.zeros((3, 2)), LAM3, 1.0)
        assert (st.m == st.m.T).all()
        assert np.array_equal(np.triu(st.m), np.triu(m))

    def test_upper_triangle_is_cached_read_only(self):
        # ModelState and offline._jacobian share one pair of index arrays
        # per k; writing to them raises, so no caller corrupts the next
        assert model.upper_triangle(4) is model.upper_triangle(4)
        rows, cols = model.upper_triangle(4)
        expected = np.triu_indices(4)
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
        for index in (rows, cols):
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 3
            with pytest.raises(ValueError, match="read-only"):
                index += 1
        assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])

    def test_workspace_targets(self):
        # what the increment of [W | M] subtracts, per task: shaped like
        # wm, and for a stack the broadcast of a learner's
        st = random_state(1)
        n = st.n
        free = Variant.ITERATION_FREE
        (psp,) = model._Workspace(st.wm, st.lam, Task.PSP, free).target
        psw, square = model._Workspace(st.wm, st.lam, Task.PSW, free).target
        assert (psp[:, :n] == 1).all() and (square[:, :n] == 0).all()
        assert np.array_equal(psp[:, n:], np.outer(st.lam, st.lam))
        assert np.array_equal(square[:, n:], np.diag(st.lam**2))
        assert np.array_equal(psw, np.tile([1] * n + [0] * st.k, (st.k, 1)))
        assert np.signbit(square[:, :n]).all() and not np.signbit(psw).any()
        stack = ModelState.stack([st, random_state(2)])
        for task in Task:
            one = model._Workspace(st.wm, st.lam, task, free)
            full = one.like(stack.wm)
            assert full.task is task and len(full.target) == len(one.target)
            for a, b in zip(one.target, full.target):
                assert b.shape == stack.wm.shape
                assert _same_bits(b, np.broadcast_to(a, stack.wm.shape))

    def test_joint_layout(self):
        # one C-contiguous [W | M]; w and m are views of it
        st = random_state(3)
        stack = ModelState.stack([st, random_state(4)])
        for state in (st, stack, stack[1], st.copy()):
            assert all(np.shares_memory(view, state.wm) for view in (state.w, state.m))
            assert np.array_equal(state.wm, np.concatenate((state.w, state.m), -1))
        assert st.wm.flags.c_contiguous and stack.wm.flags.c_contiguous

    def test_copy_is_independent(self):
        st = random_state(0)
        cp = st.copy()
        cp.m[0, 0] += 1.0
        assert st.m[0, 0] != cp.m[0, 0]


class TestApproxInverse:
    def test_diagonal_exact(self):
        out = model.approx_inverse(np.diag([2.0, 4.0]))
        assert np.array_equal(out, np.diag([0.5, 0.25]))

    def test_near_identity_error_is_quadratic(self):
        eps = 0.1
        m = np.array([[1.0, eps], [eps, 1.0]])
        out = model.approx_inverse(m)
        assert np.allclose(out, [[1.0, -0.1], [-0.1, 1.0]], atol=1e-15)
        # closed-form 2x2 inverse: (1/(1-eps^2)) [[1, -eps], [-eps, 1]]
        exact = np.array([[1.0, -eps], [-eps, 1.0]]) / (1.0 - eps * eps)
        err = np.abs(out - exact).max()
        assert abs(err - 1.0 / 99.0) < 1e-12  # ~ eps^2

    def test_error_scaling_quarters_when_halved(self):
        rng = np.random.default_rng(13)
        d = np.diag(1.0 + rng.uniform(size=5))
        e = rng.normal(size=(5, 5))
        e = 0.5 * (e + e.T)
        np.fill_diagonal(e, 0.0)
        errs = []
        for scale in (0.04, 0.02):
            m = d + scale * e
            err = np.linalg.norm(model.approx_inverse(m) - exact_inverse(m))
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5

    def test_degenerate_diagonal(self):
        with pytest.raises(DegenerateDiagonalError):
            model.approx_inverse(np.array([[0.0, 1.0], [1.0, 1.0]]))


def _solver_paths(variant):
    """Each call that reads out or steps learners in the variant."""
    st, stack = random_state(27), ModelState.stack([random_state(27), random_state(28)])
    rng = np.random.default_rng(27)
    x, xs, gs = rng.normal(size=10), rng.normal(size=(4, 2, 10)), np.stack([np.eye(10)] * 2)

    def advance(online):
        draw = (lambda live, count: xs[:count][:, live]) if online else (
            lambda live, count: gs[live][None])
        model.advance(stack, Task.PSP, variant, online, 4, {2}, data.Constant(0.01), draw,
                      lambda t, position, state: True, diverge=None)

    return {"online_step": lambda: model.online_step(st, x, 0.01, Task.PSP, variant),
            "neural_filter": lambda: model.neural_filter(st, variant),
            "advance-online": lambda: advance(True),
            "advance-averaged": lambda: advance(False),
            "offline_step": lambda: offline.offline_step(stack, gs, 0.01, Task.PSW, variant)}


SOLVER_PATHS = list(_solver_paths(Variant.ITERATION_FREE))


def _record_solver_calls(monkeypatch, calls):
    """``linalg.lu_factor``, ``linalg.sym_eig`` and the inverse gufunc that a
    step looks up in ``model._umath_linalg``, patched in as wrappers that
    append their names to ``calls`` when called and call the real ones."""
    def recording(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    monkeypatch.setattr(linalg, "lu_factor", recording("lu_factor", linalg.lu_factor))
    monkeypatch.setattr(linalg, "sym_eig", recording("sym_eig", linalg.sym_eig))
    monkeypatch.setattr(model, "_umath_linalg",
                        types.SimpleNamespace(inv=recording("inv", _umath_linalg.inv)))


class TestForward:
    def test_identity_lateral_collapses(self):
        st = random_state(14, off_scale=0.0)
        st = ModelState(np.eye(3), st.w, st.lam, st.tau)
        x = np.arange(10.0)
        v = st.w @ x
        for variant in Variant:
            assert np.allclose(model.forward(st, x, variant), v, atol=1e-12)

    def test_scaled_identity(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        st = ModelState(np.diag([2.0, 2.0]), w, np.array([1.0, 0.5]), 1.0)
        y = model.forward(st, np.array([4.0, 2.0]), Variant.ITERATION_FREE)
        assert np.allclose(y, [2.0, 1.0], atol=1e-15)

    def test_near_diagonal_agreement(self):
        rng = np.random.default_rng(15)
        st = random_state(15, off_scale=0.0)
        e = rng.normal(size=(3, 3))
        e = 0.5 * (e + e.T)
        np.fill_diagonal(e, 0.0)
        # off/diag ratio 0.01
        m = st.m + 0.01 * np.linalg.norm(np.diagonal(st.m)) / np.linalg.norm(e) * e
        st = ModelState(m, st.w, st.lam, st.tau)
        x = rng.normal(size=10)
        y_if = model.forward(st, x, Variant.ITERATION_FREE)
        y_ex = model.forward(st, x, Variant.EXACT_INVERSE)
        assert np.linalg.norm(y_if - y_ex) <= 1e-3 * np.linalg.norm(y_ex)

    def test_two_step_matches_assembled_filter(self):
        for seed in range(5):
            st = random_state(seed)
            d = np.diagonal(st.m)
            m_o = st.m - np.diag(d)
            filt = (np.eye(3) - m_o / d[:, None]) @ (st.w / d[:, None])
            x = np.random.default_rng(seed).normal(size=10)
            y = model.forward(st, x, Variant.ITERATION_FREE)
            assert np.abs(y - filt @ x).max() < 1e-13

    def test_approximation_order_slope(self):
        rng = np.random.default_rng(16)
        e = rng.normal(size=(4, 4))
        e = 0.5 * (e + e.T)
        np.fill_diagonal(e, 0.0)
        e /= np.linalg.norm(e)
        w = rng.normal(size=(4, 7))
        x = rng.normal(size=7)
        lam = np.linspace(1.0, 0.7, 4)
        eps_grid = np.array([1e-1, 1e-2, 1e-3])
        rel = []
        for eps in eps_grid:
            st = ModelState(np.eye(4) + eps * e, w, lam, 0.5)
            y_if = model.forward(st, x, Variant.ITERATION_FREE)
            y_ex = model.forward(st, x, Variant.EXACT_INVERSE)
            rel.append(np.linalg.norm(y_if - y_ex) / np.linalg.norm(y_ex))
        slope = np.polyfit(np.log(eps_grid), np.log(rel), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_exact_rejects_lateral_singular_to_working_precision(self):
        # one ulp from exactly singular: LAPACK's elimination does not fail
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 4e-16]])
        st = ModelState(m, np.eye(2), np.array([1.0, 0.5]), 1.0)
        with pytest.raises(SingularMatrixError):
            model.forward(st, np.array([1.0, 1.0]), Variant.EXACT_INVERSE)


class TestPlasticity:
    def test_zero_step_is_identity(self):
        st = random_state(17)
        x = np.ones(10)
        y = np.ones(3)
        for task in Task:
            new = model.plasticity(st, x, y, 0.0, task)
            assert np.array_equal(new.w, st.w)
            assert np.array_equal(new.m, st.m)

    @pytest.mark.parametrize("alpha", [-0.1, np.nan, np.inf])
    def test_bad_step_rejected(self, alpha):
        # an input error, not a divergence: no model error, and no warning
        st = random_state(18)
        with pytest.raises(ValueError, match="^alpha must be nonnegative and finite$"):
            model.plasticity(st, np.ones(10), np.ones(3), alpha, Task.PSP)

    def test_diagonal_floor_guard(self):
        # a large step with output only on the first axis drives the second
        # lateral diagonal entry exactly to zero: 1 + 4*(0 - 0.25) = 0
        st = ModelState(np.eye(2), np.zeros((2, 4)), np.array([1.0, 0.5]), 1.0)
        y = np.array([1.0, 0.0])
        with pytest.raises(DegenerateDiagonalError):
            model.plasticity(st, np.zeros(4), y, 4.0, Task.PSP)

    def test_stationary_w_under_matched_pair(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=10)
        y = 0.1 * rng.normal(size=3)
        st = random_state(19)
        st = ModelState(st.m, np.outer(y, x), st.lam, st.tau)
        new = model.plasticity(st, x, y, 0.3, Task.PSP)
        assert np.array_equal(new.w, st.w)

    def test_symmetry_exact_across_updates(self):
        st = random_state(20)
        rng = np.random.default_rng(20)
        for task in Task:
            cur = st
            for _ in range(100):
                x = rng.normal(size=10)
                y = cur.lam * rng.normal(size=3)
                cur = model.plasticity(cur, x, y, 0.02, task)
                assert (cur.m == cur.m.T).all()

    def test_psw_drive_targets_gain_square(self):
        st = random_state(21)
        y = np.zeros(3)
        new = model.plasticity(st, np.zeros(10), y, 0.1, Task.PSW)
        expected = st.m - (0.1 / st.tau) * np.diag(st.lam**2)
        assert np.allclose(new.m, expected, atol=1e-15)


LAM2 = np.array([1.0, 0.9])
BIG = 1e160  # finite, but its square is not


def _plasticity_case(kind):
    """(m, w, x, y, alpha) of a 2 -> 2 learner whose plasticity step makes
    one entry of W, or one off-diagonal pair of M, Inf or NaN; "finite"
    keeps every entry finite while their sum of squares overflows."""
    eye, zeros = np.eye(2), np.zeros(2)
    spike = np.array([1e154, 0.0])  # squares to 1e308
    corner = np.array([[-1e308, 0.0], [0.0, 0.0]])
    hot, hot_y = np.array([[1.0, -1.5e308], [-1.5e308, 1.0]]), np.array([1e154, 1e154])
    return {
        # y x' - w overflows in its corner: w + alpha * inf, or w + 0 * inf
        "w-inf": (eye, corner, spike, spike, 0.5),
        "w-nan": (eye, corner, spike, spike, 0.0),
        # the drive overflows off the diagonal, 1e308 + 0.9 * 1.5e308, and
        # so does the update: m + alpha * inf, or m + 0 * inf
        "m-inf": (hot, eye, zeros, hot_y, 0.5),
        "m-nan": (hot, eye, zeros, hot_y, 0.0),
        "finite": (BIG * eye, BIG * np.ones((2, 2)), np.ones(2), 0.1 * np.ones(2), 0.1),
    }[kind]


def _offline_case(kind):
    """(m, w, g, alpha) of a 2 -> 2 learner whose averaged step makes one
    off-diagonal pair of M Inf or NaN, or one diagonal entry NaN (an
    overflow, not the floor), or ("finite") keeps every entry finite while
    their sum of squares overflows. With M = I the filter is W itself; G's
    large off-diagonal overflows only F G F' off its diagonal, and its
    large first diagonal entry only F G F'[0, 0], which a zero rate turns
    into NaN."""
    eye = np.eye(2)
    g = np.array([[1.0, 1e10], [1e10, 1.0]])
    return {
        "m-inf": (eye, 1e150 * eye, g, 0.1),
        "m-nan": (eye, 1e150 * eye, g, 0.0),
        "diag-nan": (eye, 1e150 * eye, np.diag([1e10, 1.0]), 0.0),
        "finite": (BIG * eye, BIG * eye, eye, 0.1),
    }[kind]


def _in_last_slice(bad, benign):
    """A stack of three: two copies of ``benign``, then ``bad``, item by item."""
    return [np.stack([b, b, a]) for a, b in zip(bad, benign)]


class TestOverflowGuard:
    """An update that overflows W or M in any slice is divergence; finite
    weights pass however large their sum of squares."""

    BENIGN_PLASTICITY = (np.eye(2), np.full((2, 2), 0.1), np.ones(2), np.array([0.1, 0.2]))
    BENIGN_OFFLINE = (np.eye(2), np.full((2, 2), 0.1), np.eye(2))

    @staticmethod
    def _plasticity(m, w, x, y, alpha):
        state = ModelState._unchecked(np.concatenate((w, m), -1), LAM2, 1.0)
        return model.plasticity(state, x, y, alpha, Task.PSP)

    @staticmethod
    def _offline(m, w, g, alpha, variant):
        state = ModelState._unchecked(np.concatenate((w, m), -1), LAM2, 1.0)
        return offline.offline_step(state, g, alpha, Task.PSP, variant)

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack-of-3"])
    @pytest.mark.parametrize("kind", ["w-inf", "w-nan", "m-inf", "m-nan"])
    def test_plasticity_overflow_raises(self, kind, stacked):
        *arrays, alpha = _plasticity_case(kind)
        if stacked:
            arrays = _in_last_slice(arrays, self.BENIGN_PLASTICITY)
        with pytest.raises(DegenerateDiagonalError, match="^weights overflowed$"):
            self._plasticity(*arrays, alpha)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack-of-3"])
    @pytest.mark.parametrize("kind", ["m-inf", "m-nan", "diag-nan"])
    def test_offline_step_overflow_raises(self, kind, stacked, variant):
        *arrays, alpha = _offline_case(kind)
        if stacked:
            arrays = _in_last_slice(arrays, self.BENIGN_OFFLINE)
        with pytest.raises(DegenerateDiagonalError, match="^weights overflowed$"):
            self._offline(*arrays, alpha, variant)

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack-of-3"])
    def test_finite_weights_with_overflowing_squares_pass(self, stacked):
        # the exact variant rejects M = 1e160 I itself: its condition
        # number estimate overflows
        *arrays, alpha = _plasticity_case("finite")
        *offline_arrays, offline_alpha = _offline_case("finite")
        if stacked:
            arrays = _in_last_slice(arrays, self.BENIGN_PLASTICITY)
            offline_arrays = _in_last_slice(offline_arrays, self.BENIGN_OFFLINE)
        for new in (self._plasticity(*arrays, alpha),
                    self._offline(*offline_arrays, offline_alpha,
                                  Variant.ITERATION_FREE)):
            for a in (new.w, new.m):
                assert np.isfinite(a).all() and not np.isfinite(np.vdot(a, a))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_online_step_overflow_raises_without_warning(self, variant):
        # W x, and so the output, overflows before the update's tests name it
        state = ModelState(np.eye(2), 1e200 * np.eye(2, 3), LAM2, 1.0)
        with pytest.raises(DegenerateDiagonalError, match="^weights overflowed$"):
            model.online_step(state, np.array([1e200, 1.0, 0.0]), 0.01, Task.PSP, variant)

    def test_diagonal_at_zero_mid_run_raises_without_warning(self):
        # alpha 0.5 at tau 0.5 is rate 1 on M, so M[0, 0] steps to y_0 ** 2:
        # the zero input of step 3 makes it exactly 0, and step 4 of the
        # run, tested only at its end, divides by it before the test
        state = ModelState(np.eye(2), np.full((2, 3), 0.5), LAM2, 0.5)
        xs = np.ones((5, 1, 3))
        xs[2] = 0.0
        failed = []
        model.advance(ModelState.stack([state]), Task.PSP, Variant.ITERATION_FREE, True, 5,
                      {5}, data.Constant(0.5), lambda live, count: xs[:count][:, live],
                      lambda t, position, visited: True,
                      lambda t, position, exc: failed.append((t, position, str(exc))))
        assert failed == [(3, 0, "updated lateral diagonal hit the floor")]


class TestOnlineStep:
    def test_zero_step_reduces_to_forward(self):
        st = random_state(22)
        x = np.random.default_rng(22).normal(size=10)
        y, new = model.online_step(st, x, 0.0, Task.PSP, Variant.ITERATION_FREE)
        assert np.array_equal(y, model.forward(st, x, Variant.ITERATION_FREE))
        assert np.array_equal(new.w, st.w)

    def test_state_moves_between_identical_inputs(self):
        st = random_state(23)
        x = np.random.default_rng(23).normal(size=10)
        y1, st1 = model.online_step(st, x, 0.05, Task.PSP, Variant.ITERATION_FREE)
        y2, st2 = model.online_step(st1, x, 0.05, Task.PSP, Variant.ITERATION_FREE)
        assert not np.array_equal(y1, y2)

    def test_hand_computed_step(self):
        # 3 -> 2 instance stepped once by explicit arithmetic
        x = np.array([1.0, 2.0, 2.0])
        w0 = np.vstack([x / 3.0, x / 3.0])
        lam = np.array([1.0, 0.85])
        st = ModelState(np.eye(2), w0, lam, 0.5)
        alpha = 0.1
        y, new = model.online_step(st, x, alpha, Task.PSP, Variant.ITERATION_FREE)
        assert np.allclose(y, [3.0, 3.0], atol=1e-14)
        w_expected = w0 + alpha * (np.outer([3.0, 3.0], x) - w0)
        m_expected = np.eye(2) + (alpha / 0.5) * (
            np.full((2, 2), 9.0) - np.diag(lam**2))
        assert np.allclose(new.w, w_expected, atol=1e-14)
        assert np.allclose(new.m, m_expected, atol=1e-14)


class TestNeuralFilter:
    def test_identity_lateral(self):
        st = random_state(24)
        st = ModelState(np.eye(3), st.w, st.lam, st.tau)
        for variant in Variant:
            assert np.allclose(model.neural_filter(st, variant), st.w, atol=1e-13)

    def test_diagonal_lateral(self):
        w = np.random.default_rng(25).normal(size=(2, 5))
        st = ModelState(np.diag([2.0, 5.0]), w, np.array([1.0, 0.5]), 1.0)
        expected = np.diag([0.5, 0.2]) @ w
        for variant in Variant:
            assert np.allclose(model.neural_filter(st, variant), expected, atol=1e-14)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_filter_matches_forward(self, variant):
        st = random_state(26)
        filt = model.neural_filter(st, variant)
        rng = np.random.default_rng(26)
        for _ in range(100):
            x = rng.normal(size=10)
            assert np.abs(filt @ x - model.forward(st, x, variant)).max() < 1e-12

    @pytest.mark.parametrize("low", [0.0, -1.0, 1e-13])
    def test_floor_checked_in_every_slice(self, low):
        # the pre-step floor test of the two-step pass, vector and matrix
        # right-hand sides; the bad diagonal entry is in the last slice
        states = [random_state(seed) for seed in (40, 41, 42)]
        states[-1].m[2, 2] = low
        stack = ModelState.stack(states)
        x = np.ones((3, 10))
        with pytest.raises(DegenerateDiagonalError, match="below invertibility floor"):
            model.forward(stack, x, Variant.ITERATION_FREE)
        with pytest.raises(DegenerateDiagonalError, match="below invertibility floor"):
            model.neural_filter(stack, Variant.ITERATION_FREE)
        states[-1].m[2, 2] = np.nan  # as d.min() < floor decides: a NaN passes
        model.forward(ModelState.stack(states), x, Variant.ITERATION_FREE)

    @pytest.mark.parametrize("path", SOLVER_PATHS)
    def test_iteration_free_path_avoids_solvers(self, monkeypatch, path):
        # every run looks the inverse gufunc up: a call counts, not a lookup
        call, calls = _solver_paths(Variant.ITERATION_FREE)[path], []
        _record_solver_calls(monkeypatch, calls)
        call()
        assert calls == []

    @pytest.mark.parametrize("path", [p for p in SOLVER_PATHS if not p.startswith("advance")])
    def test_exact_path_calls_the_solver_patched_in(self, monkeypatch, path):
        # each is looked up after the patch, not bound at import: the
        # filter factors M, and a step calls the gufunc on its copy of M
        call, calls = _solver_paths(Variant.EXACT_INVERSE)[path], []
        _record_solver_calls(monkeypatch, calls)
        call()
        assert calls and set(calls) == {"lu_factor" if path == "neural_filter" else "inv"}

    @pytest.mark.parametrize("online", [True, False], ids=["advance-online", "advance-averaged"])
    def test_exact_run_looks_up_its_kernel_once_per_run(self, monkeypatch, online):
        # each run looks the inverse gufunc up once, when called, and calls
        # it once per step on the stack's M; its window tests need no factoring
        stack = ModelState.stack([random_state(27), random_state(28)])
        rng = np.random.default_rng(27)
        xs, gs = rng.normal(size=(6, 2, 10)), np.stack([np.eye(10)] * 2)
        draw = (lambda live, count: xs[:count][:, live]) if online else (
            lambda live, count: gs[live][None])

        def visited():
            seen = []
            model.advance(stack, Task.PSP, Variant.EXACT_INVERSE, online, 6, {3},
                          data.Constant(0.01), draw,
                          lambda t, position, state: seen.append(state.wm.tobytes()) or True,
                          diverge=None)
            return seen

        expected, lookups, called, factored, real = visited(), [], [], [], linalg.lu_factor

        class Kernels:
            def __getattr__(self, name):
                lookups.append(name)
                kernel = getattr(_umath_linalg, name)
                return lambda m, out: called.append(m.shape) or kernel(m, out)

        monkeypatch.setattr(model, "_umath_linalg", Kernels())
        monkeypatch.setattr(linalg, "lu_factor", lambda m: factored.append(m.shape) or real(m))
        assert visited() == expected
        assert lookups == ["inv", "inv"]  # the runs of steps 1-3 and 4-6
        assert called == [(2, 3, 3)] * 6 and factored == []


# a weight scale: mostly 1, now and then 1e150 - 1e300
weight_scales = st.one_of(st.just(1.0), st.just(1.0), st.just(1.0),
                          st.floats(150.0, 300.0).map(lambda e: 10.0**e))


@st.composite
def stacked_steps(draw):
    """A stack of 1-6 small learners with near-diagonal M, their inputs and
    a step; large steps, small diagonals and huge weights make some slices
    fail."""
    b = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 8))
    off = draw(st.sampled_from([0.0, 0.01, 0.1, 0.4]))
    low = draw(st.sampled_from([1e-13, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.normal(size=(b, k, k))
    m = off * (e + e.mT)
    idx = np.arange(k)
    m[:, idx, idx] = rng.uniform(low, 1.5, size=(b, k))
    lam = np.linspace(1.0, 0.6, k)
    w = rng.normal(size=(b, k, n))
    # now and then weights so large that a step overflows, or that only the
    # sum of squares of its finite weights does
    m *= draw(weight_scales)
    w *= draw(weight_scales)
    state = ModelState._unchecked(np.concatenate((w, m), -1), lam, 0.5)
    alpha = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 4.0]))
    return (state, rng.normal(size=(b, n)), alpha, draw(st.sampled_from(list(Task))),
            draw(st.sampled_from(list(Variant))))


class TestStackedStep:
    @settings(max_examples=300, deadline=None)
    @given(stacked_steps())
    def test_each_slice_is_the_single_learner_step(self, case):
        state, x, alpha, task, variant = case
        singles = []
        for i in range(x.shape[0]):
            try:
                singles.append(model.online_step(state[i], x[i], alpha, task, variant))
            except MODEL_ERRORS:
                singles.append(None)
        if None in singles:
            with pytest.raises(MODEL_ERRORS):
                model.online_step(state, x, alpha, task, variant)
            return
        y, new = model.online_step(state, x, alpha, task, variant)
        for i, (y_i, new_i) in enumerate(singles):
            assert np.array_equal(y[i], y_i)
            assert np.array_equal(new.w[i], new_i.w)
            assert np.array_equal(new.m[i], new_i.m)

    @settings(max_examples=200, deadline=None)
    @given(stacked_steps(), st.integers(0, 2**32 - 1))
    def test_updates_keep_m_exactly_symmetric(self, case, seed):
        # plasticity on random outputs and offline_step on random
        # covariances: every M they form is exactly symmetric, and each
        # slice of the stacked update is the single learner's
        state, x, alpha, task, variant = case
        b, n = x.shape
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(b, state.k))
        a = rng.normal(size=(b, n, n))
        g = a @ a.mT / n
        steps = (lambda s, i: model.plasticity(s, x[i], y[i], alpha, task),
                 lambda s, i: offline.offline_step(s, g[i], alpha, task, variant))
        for step in steps:
            singles = []
            for i in range(b):
                try:
                    singles.append(step(state[i], i))
                except MODEL_ERRORS:
                    singles.append(None)
            if None in singles:
                with pytest.raises(MODEL_ERRORS):
                    step(state, slice(None))
                continue
            new = step(state, slice(None))
            assert (new.m == new.m.mT).all()
            for i, single in enumerate(singles):
                assert (single.m == single.m.T).all()
                assert np.array_equal(new.m[i], single.m)
                assert np.array_equal(new.w[i], single.w)

    def test_stack_and_index_round_trip(self):
        states = [random_state(seed) for seed in (30, 31, 32)]
        stack = ModelState.stack(states)
        assert stack.m.shape == (3, 3, 3) and stack.w.shape == (3, 3, 10)
        assert (stack.k, stack.n) == (3, 10)
        for i, st_i in enumerate(states):
            assert np.array_equal(stack[i].m, st_i.m)
            assert np.array_equal(stack[i].w, st_i.w)
        assert np.array_equal(stack[[0, 2]].w, stack.w[[0, 2]])


class TestAdvance:
    def test_trials_dropped_at_a_point_go_on_as_alone(self):
        # a visit ends the middle trial of three at t = 5; the others step
        # on, with their carried diagonals, as each does in a stack of one
        states = [random_state(seed) for seed in (70, 71, 72)]
        xs = np.random.default_rng(70).normal(size=(20, 3, 10))

        def run(indices, drop):
            seen = {}

            def visit(t, position, state):
                seen[t, indices[position]] = state.wm.copy()
                return not (t == 5 and indices[position] in drop)

            stack = ModelState.stack([states[i] for i in indices])
            model.advance(stack, Task.PSP, Variant.ITERATION_FREE, True, 20, {5, 20},
                          data.InverseTime(10.0, 250.0),
                          lambda live, count: xs[:count][:, [indices[p] for p in live]],
                          visit, diverge=None)
            return seen

        stacked = run([0, 1, 2], drop={1})
        assert sorted(stacked) == [(5, 0), (5, 1), (5, 2), (20, 0), (20, 2)]
        for i in (0, 2):
            alone = run([i], drop=set())
            for t in (5, 20):
                assert np.array_equal(stacked[t, i], alone[t, i])


def _below_floor(kind, low):
    """A valid stack of three, or state made from one, whose last lateral
    diagonal entry is then set to ``low`` in place: a constructor state,
    a stack, an indexed sub-stack or slice, or a copy of a stepped stack."""
    states = [random_state(seed) for seed in (50, 51, 52)]
    stack = ModelState.stack(states)
    state = {
        "constructor": states[-1],
        "stack": stack,
        "index-list": stack[[0, 2]],
        "index": stack[2],
        "copy": model.plasticity(stack, np.ones((3, 10)), np.zeros((3, 3)), 0.01,
                                 Task.PSP).copy(),
    }[kind]
    state.m[(-1, 2, 2) if state.m.ndim == 3 else (2, 2)] = low
    return state


class TestCarriedDiagonal:
    """A state formed by an update is read-only; the two-step pass on any
    state tests its lateral diagonal, so a diagonal changed in place is
    caught."""

    def test_stepped_states_are_read_only(self):
        stack = ModelState.stack([random_state(seed) for seed in (60, 61)])
        g = np.stack([np.eye(10)] * 2)
        for task in Task:
            online = model.plasticity(stack, np.ones((2, 10)), np.ones((2, 3)), 0.01, task)
            averaged = offline.offline_step(stack, g, 0.01, task, Variant.ITERATION_FREE)
            for new in (online, averaged):
                for a in (new.wm, new.w, new.m, new[1].wm, new[1].m):
                    assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    new.m[0, 2, 2] = 0.0

    @pytest.mark.parametrize("low", [0.0, -1.0, 1e-13])
    @pytest.mark.parametrize("kind",
                             ["constructor", "stack", "index-list", "index", "copy"])
    def test_floor_still_checked(self, kind, low):
        state = _below_floor(kind, low)
        n = state.n
        x = np.ones(state.w.shape[:-2] + (n,))
        g = np.broadcast_to(np.eye(n), state.w.shape[:-2] + (n, n))
        variant = Variant.ITERATION_FREE
        calls = (lambda: model.forward(state, x, variant),
                 lambda: model.neural_filter(state, variant),
                 lambda: model.online_step(state, x, 0.01, Task.PSP, variant),
                 lambda: offline.offline_step(state, g, 0.01, Task.PSW, variant))
        for call in calls:
            with pytest.raises(DegenerateDiagonalError, match="below invertibility floor"):
                call()


def _parent_update(state, hebb_w, corr, alpha, task):
    """The update as separate W and M arrays: W + alpha (H_W - W) and
    M + (alpha / tau) (H_M - target), in that operation order, with the
    overflow test of M, then W, before the floor test on the new M's
    diagonal. Returns (w, m)."""
    dw = hebb_w - state.w
    if task is Task.PSP:
        corr -= np.multiply.outer(state.lam, state.lam) * state.m
    else:
        corr -= np.diag(state.lam * state.lam)
    if not 0 <= alpha < np.inf:
        raise ValueError("alpha must be nonnegative and finite")
    dw *= alpha
    w = state.w + dw
    dm = corr * (alpha / state.tau)
    m = state.m + dm
    if not (np.isfinite(m).all() and np.isfinite(w).all()):
        raise DegenerateDiagonalError("weights overflowed")
    if not (np.diagonal(m, 0, -2, -1) > model.DIAGONAL_FLOOR).all():
        raise DegenerateDiagonalError("updated lateral diagonal hit the floor")
    return w, m


def _parent_online(state, x, alpha, task, variant):
    y = model.forward(state, x, variant)
    return _parent_update(state, y[..., :, None] * x[..., None, :],
                          y[..., :, None] * y[..., None, :], alpha, task)


def _parent_averaged(state, g, alpha, task, variant):
    f = model.neural_filter(state, variant)
    fg = f @ g
    corr = fg @ f.mT
    corr = corr + corr.mT
    corr *= 0.5
    return _parent_update(state, fg, corr, alpha, task)


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()


def _outcome(step):
    """(w, m) of a step, or the type and message of the model error it raised."""
    try:
        result = step()
    except (ValueError, *MODEL_ERRORS) as exc:
        return type(exc), str(exc)
    return result


# random stacks include weights whose products overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestParentFormulas:
    """The one update of [W | M] equals the separate W and M updates bit
    for bit, and fails in the same way, online and averaged, on single
    learners and stacks."""

    @settings(max_examples=300, deadline=None)
    @given(stacked_steps(), st.integers(0, 2**32 - 1))
    def test_step_matches_separate_updates(self, case, seed):
        state, x, alpha, task, variant = case
        b, n = x.shape
        a = np.random.default_rng(seed).normal(size=(b, n, n))
        g = a @ a.mT / n

        def new_online(s, xs):
            return model.online_step(s, xs, alpha, task, variant)[1]

        def new_averaged(s, gs):
            return offline.offline_step(s, gs, alpha, task, variant)

        for s, xs, gs in [(state, x, g)] + [(state[i], x[i], g[i]) for i in range(b)]:
            for new, parent, arg in ((new_online, _parent_online, xs),
                                     (new_averaged, _parent_averaged, gs)):
                expected = _outcome(lambda: parent(s, arg, alpha, task, variant))
                got = _outcome(lambda: new(s, arg))
                if isinstance(expected[0], type):
                    assert got == expected
                    continue
                assert isinstance(got, ModelState), got
                assert _same_bits(got.w, expected[0]) and _same_bits(got.m, expected[1])


@st.composite
def stack_runs(draw):
    """A stack of 1-4 small learners, online or averaged, with its inputs,
    a schedule and the points visited; large rates, small diagonals and
    huge weights make some trials fail partway through, and a visit may
    end a trial."""
    b = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 6))
    t_max = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.normal(size=(b, k, k))
    m = draw(st.sampled_from([0.0, 0.05, 0.3])) * (e + e.mT)
    idx = np.arange(k)
    m[:, idx, idx] = rng.uniform(draw(st.sampled_from([1e-13, 0.05, 0.5])), 1.5, size=(b, k))
    w = rng.normal(size=(b, k, n))
    m *= draw(weight_scales)
    w *= draw(weight_scales)
    state = ModelState._unchecked(np.concatenate((w, m), -1), np.linspace(1.0, 0.6, k), 0.5)
    schedule = draw(st.one_of(
        st.sampled_from([1e-3, 0.1, 0.6, 2.0, 8.0]).map(data.Constant),
        st.sampled_from([(1.0, 5.0), (40.0, 2.0)]).map(lambda a: data.InverseTime(*a)),
        # a rate that changes and changes back within a run
        st.just(data.PiecewiseConstant(((2, 0.1), (4, 0.6), (math.inf, 0.1))))))
    task = draw(st.sampled_from(list(Task)))
    if k > 1 and draw(st.booleans()):
        state = _singular_at(state, task, schedule, draw(st.integers(1, t_max)),
                             draw(st.sampled_from([0.0, 1e-15])))
    online = draw(st.booleans())
    if online:
        inputs = rng.normal(size=(t_max, b, n))
    else:
        a = rng.normal(size=(b, n, n))
        inputs = a @ a.mT / n
    points = draw(st.sets(st.integers(1, t_max)))
    ends = draw(st.sets(st.integers(0, b - 1)))
    return (state, online, inputs, schedule, t_max, points, ends, task,
            draw(st.sampled_from(list(Variant))))


def _singular_at(state, task, schedule, step, short):
    """The stack with trial 0's W zero and the leading 2 x 2 block of its M,
    alone in M, set so that the M that step ``step`` reads is singular to
    working precision: ``[[p, c], [c, p]]`` with c = p (exactly singular)
    or 1e-15 short of it on the first step, ``c**2`` about ``p q`` later.
    With no drive each entry of M moves on its own, so a dry run sets c; a
    dry run that fails leaves the stack as it was."""
    wm, n = state.wm.copy(), state.n
    wm[0, :, :n], m = 0.0, wm[0, :, n:]
    m[1, 1] = m[0, 0]
    m[:2, 2:] = m[2:, :2] = 0.0
    m[0, 1] = m[1, 0] = 1e-3
    dry = ModelState._unchecked(wm[[0]], state.lam, state.tau)
    try:
        for t in range(1, step):
            dry = offline.offline_step(dry, np.zeros((1, n, n)), schedule.rate(t), task,
                                       Variant.ITERATION_FREE)
    except MODEL_ERRORS:
        return state
    (p, c), (_, q) = dry.m[0, :2, :2]
    m[0, 1] = m[1, 0] = math.sqrt(p) * math.sqrt(q) * (1e-3 / c) * (1.0 - short)
    return ModelState._unchecked(wm, state.lam, state.tau)


def _advanced(state, online, inputs, schedule, t_max, points, ends, task, variant):
    """What ``advance`` shows of each trial of the stack: the bits of each
    visited state, and the step, type and message of a divergence; a
    visit ends the trials at positions ``ends``."""
    seen = {}

    def visit(t, position, visited):
        assert (position, t) not in seen  # each point once
        seen[position, t] = visited.wm.tobytes()
        return position not in ends

    def diverge(t, position, exc):
        seen[position, "diverged"] = (t, type(exc), str(exc))

    done = [0]  # steps drawn so far: each chunk draws the next rows

    def draw(live, count):
        if not online:
            return inputs[live][None]
        done[0] += count
        return inputs[done[0] - count:done[0]][:, live]

    model.advance(state, task, variant, online, t_max, points, schedule, draw, visit, diverge)
    return seen


def _folded(state, online, inputs, schedule, t_max, points, ends, task, variant):
    """The same from a fold of the one-shot step on each trial alone."""
    expected = {}
    for i in range(len(state.wm)):
        one = state[[i]]
        for t in range(1, t_max + 1):
            alpha = schedule.rate(t)
            try:
                if online:
                    one = model.online_step(one, inputs[t - 1, [i]], alpha, task, variant)[1]
                else:
                    one = offline.offline_step(one, inputs[[i]], alpha, task, variant)
            except MODEL_ERRORS as exc:
                expected[i, "diverged"] = (t, type(exc), str(exc))
                break
            if t in points:
                expected[i, t] = one.wm[0].tobytes()
                if i in ends:
                    break
    return expected


# random stacks include weights whose products overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAdvanceMatchesOneShot:
    """``advance`` on a stack equals, trial by trial, a fold of the one-shot
    step on a stack of one: the bits of every visited state, which trials
    diverge, at which t and with which message. A failing stack step has
    already written into the spare buffer, so its per-trial replay must
    read the buffer from before the step."""

    @settings(max_examples=200, deadline=None)
    @given(stack_runs())
    def test_trial_by_trial(self, case):
        assert _advanced(*case) == _folded(*case)

    @settings(max_examples=200, deadline=None)
    @given(stack_runs())
    def test_trial_by_trial_in_chunks_of_three(self, case):
        # up to 12 steps in chunks of 3: chunk and segment edges, points at
        # t = 1 and on chunk edges, and failures on the first and the last
        # step of a run all occur
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_SAMPLE_CHUNK", 3)
            seen = _advanced(*case)
        assert seen == _folded(*case)

    @settings(max_examples=200, deadline=None)
    @given(stack_runs())
    def test_trial_by_trial_in_windows_of_three(self, case):
        # up to 12 steps in windows of 3: failures on the first and the last
        # step of a window, and windows that the tested replay passes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_WINDOW", 3)
            seen = _advanced(*case)
        assert seen == _folded(*case)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_divergence_and_drop_on_a_point_at_a_chunk_edge(self, monkeypatch, variant):
        # in chunks of 3, trial 0 overflows on step 3, an evaluation point,
        # where the visit ends trial 1; trial 2 steps on through t = 7
        monkeypatch.setattr(model, "_SAMPLE_CHUNK", 3)
        state = ModelState.stack([random_state(seed, k=2, n=4) for seed in (60, 61, 62)])
        inputs = np.random.default_rng(60).normal(size=(7, 3, 4))
        inputs[2, 0] = 1e200
        case = (state, True, inputs, data.InverseTime(1.0, 5.0), 7, {3, 6}, {1}, Task.PSP,
                variant)
        seen = _advanced(*case)
        assert seen == _folded(*case)
        assert seen[0, "diverged"] == (3, DegenerateDiagonalError, "weights overflowed")
        assert sorted(key for key in seen if key[1] != "diverged") == [(1, 3), (2, 3), (2, 6)]


@st.composite
def poisoned_steps(draw):
    """A stack of 1-3 learners with one entry of ``[W | M]`` set to inf,
    -inf or NaN, in a workspace online, averaged or on a given pair
    (variant None), with one input and a row of rates: any floats at
    least 0, zero and infinity included."""
    b, k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.normal(size=(b, k, k))
    wm = np.concatenate((rng.normal(size=(b, k, n)), np.eye(k) + 0.1 * (e + e.mT)), -1)
    wm *= draw(weight_scales)
    entry = tuple(draw(st.integers(0, size - 1)) for size in wm.shape)
    wm[entry] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    kind = draw(st.sampled_from(["online", "averaged", "given"]))
    variant = None if kind == "given" else draw(st.sampled_from(list(Variant)))
    if kind == "averaged":
        a = rng.normal(size=(b, n, n))
        x = a @ a.mT / n
    else:
        x = rng.normal(size=(b, n))
        x = (x, rng.normal(size=(b, k))) if kind == "given" else x
    rate = st.one_of(st.sampled_from([0.0, -0.0, math.inf]), st.floats(min_value=0.0))
    row = np.array(draw(st.lists(rate, min_size=n + k, max_size=n + k)))
    ws = model._Workspace(wm, np.linspace(1.0, 0.6, k), draw(st.sampled_from(list(Task))),
                          variant, kind != "averaged")
    return ws, x, row, entry


class TestNotFiniteStaysNaN:
    """The invariant that lets a run test its weights once, at its end: an
    entry of ``[W | M]`` that is not finite is NaN after the next step, at
    any rates of at least 0, in every task, variant and kind of step."""

    @settings(max_examples=500, deadline=None)
    @given(poisoned_steps())
    def test_entry_is_nan_after_one_step(self, case):
        ws, x, row, entry = case
        # a one-step run tests its step: the workspace catches its model error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert ws.run((x,), (row,)) == 0
        error = ws.error()
        if isinstance(error, SingularMatrixError):
            # the exact inverse of a non-finite M fails before the update
            assert ws.variant is Variant.EXACT_INVERSE
            return
        if str(error) == "diagonal entry below invertibility floor":
            # so does the test of the first diagonal, on a -inf in it
            n = ws.wm.shape[-1] - ws.wm.shape[-2]
            assert ws.variant is Variant.ITERATION_FREE
            assert entry[-1] - n == entry[-2] and ws.wm[entry] == -math.inf
            return
        assert isinstance(error, DegenerateDiagonalError) and str(error) == "weights overflowed"
        assert math.isnan(ws.spare[entry])  # the update, which the step leaves in the spare


class TestRunTestedAtItsEnd:
    """A run of many steps tests its weights once, at its end; when that
    test fails it steps again from its first weights, each step tested,
    and so stops at the step that failed, with that step's error, holding
    the weights of the step before, bit for bit."""

    def test_floor_dip_that_recovers_within_the_run(self):
        # step 2 (y = 0, alpha 2) takes M[0, 0] to (1 - 2 * 1**2) m < 0;
        # step 3 (y_0 = 10) lifts it to 49.5, so the last diagonal is fine
        lam, x = np.array([1.0, 0.5]), np.ones((1, 3))
        wm = np.concatenate((np.full((1, 2, 3), 0.1), np.eye(2)[None]), -1)
        ys = [[0.5, 0.5], [0.0, 0.0], [10.0, 0.5], [0.5, 0.5]]
        alphas = [0.01, 2.0, 0.5, 0.01]
        rows = model._rates(alphas, 1.0, 3, np.empty((4, 5)))
        ws = model._Workspace(wm.copy(), lam, Task.PSP, None, True)
        assert ws.run([(x, np.array([y])) for y in ys], rows) == 1
        assert str(ws.error()) == "updated lateral diagonal hit the floor"
        first = model.plasticity(ModelState._unchecked(wm, lam, 1.0), x, np.array([ys[0]]),
                                 alphas[0], Task.PSP)
        assert _same_bits(ws.current(), first.wm)
        # the workspace steps on from the weights it holds
        assert ws.run([(x, np.array([ys[0]]))] * 2, rows[[0, 0]]) == 2
        for _ in range(2):
            first = model.plasticity(first, x, np.array([ys[0]]), alphas[0], Task.PSP)
        assert _same_bits(ws.current(), first.wm)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_overflow_in_w_mid_segment(self, variant):
        # inputs without a first coordinate keep W's first column small,
        # so the spike of step 500 overflows y x' (W's drive) but not y y'
        state = ModelState.stack([random_state(seed, k=2, n=4) for seed in (70, 71)])
        state.w[..., 0] = 0.01
        xs = np.random.default_rng(70).normal(size=(1024, 2, 4))
        xs[..., 0] = 0.0
        xs[499, 1, 0] = 1e156
        rows = model._rates(np.full(1024, 1e-3), state.tau, state.n, np.empty((1024, 6)))
        ws = model._Workspace(state.wm.copy(), state.lam, Task.PSP, variant, True)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert ws.run(xs, rows) == 499
            folded = state
            for t in range(499):
                folded = model.online_step(folded, xs[t], 1e-3, Task.PSP, variant)[1]
            y = model.forward(folded, xs[499], variant)
            assert not np.isfinite(y[1, :, None] * xs[499, 1]).all()
            assert np.isfinite(y[1, :, None] * y[1]).all()
        assert str(ws.error()) == "weights overflowed"
        assert _same_bits(ws.current(), folded.wm)
        with pytest.raises(DegenerateDiagonalError, match="^weights overflowed$"):
            model.online_step(folded, xs[499], 1e-3, Task.PSP, variant)

    @pytest.mark.parametrize("c, message", [
        (1.0, "matrix is singular: Singular matrix"),
        (1.0 - 2.0**-50, r"condition number \S+ above threshold")])
    def test_exact_lateral_singular_mid_window(self, c, message):
        # averaged whitening on G = 0 has no drive: each step takes exactly
        # alpha lam_i**2 off M's diagonal, so the M that step 500 (inside
        # the eighth window of 64) reads is [[1, c], [c, 1]], well
        # conditioned at every other step of its window
        lam, alpha, gs = np.array([1.0, 0.5]), 2.0**-10, np.zeros((1, 3, 3))
        m = np.array([[1.0 + 499 * alpha, c], [c, 1.0 + 499 * alpha / 4]])
        state = ModelState._unchecked(np.concatenate((np.full((1, 2, 3), 0.1), m[None]), -1),
                                      lam, 1.0)
        rows = model._rates(np.full(1024, alpha), 1.0, 3, np.empty((1024, 5)))
        ws = model._Workspace(state.wm.copy(), lam, Task.PSW, Variant.EXACT_INVERSE, False)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert ws.run(repeat(gs), rows) == 499
        folded = state
        for _ in range(499):
            folded = offline.offline_step(folded, gs, alpha, Task.PSW, Variant.EXACT_INVERSE)
        assert np.array_equal(folded.m[0], [[1.0, c], [c, 1.0]])
        assert _same_bits(ws.current(), folded.wm)
        with pytest.raises(SingularMatrixError, match=f"^{message}$") as raised:
            offline.offline_step(folded, gs, alpha, Task.PSW, Variant.EXACT_INVERSE)
        assert type(ws.error()) is SingularMatrixError and str(ws.error()) == str(raised.value)


class TestConditioningMargin:
    """An exact learner's M whose Frobenius condition number lies in the
    margin of :func:`linalg.well_conditioned`, which rejects it, while
    :func:`linalg.lu_factor` passes it, is no divergence: a one-shot step
    and a run of more than one window (the last of one step) step on it
    bit for bit as the separate updates do."""

    @staticmethod
    def margin_state():
        # cond = 1e14 (1 - 5e-10), in ((1 - 1e-9) / _PIVOT_RTOL, 1 / _PIVOT_RTOL];
        # W is small enough that y y' moves M by far less than an ulp
        m = np.diag([1e4, 1e-10 * (1 + 5e-10)])
        w = 1e-12 * np.random.default_rng(90).normal(size=(2, 4))
        state = ModelState(m, w, np.array([1.0, 0.5]), 0.5)
        assert not linalg.well_conditioned(state.m, np.linalg.inv(state.m))
        linalg.lu_factor(state.m)
        return state

    @staticmethod
    def inputs(online, steps):
        """A stack of one's inputs, as ``advance`` draws them, and step t's."""
        xs = np.random.default_rng(91).normal(size=(steps, 1, 4)) if online else np.eye(4)[None]
        return xs, lambda t: xs[t, 0] if online else xs[0]

    @pytest.mark.parametrize("online", [True, False], ids=["online", "averaged"])
    def test_one_shot_step(self, online):
        state, x = self.margin_state(), self.inputs(online, 1)[1](0)
        if online:
            got = model.online_step(state, x, 1e-30, Task.PSP, Variant.EXACT_INVERSE)[1]
            w, m = _parent_online(state, x, 1e-30, Task.PSP, Variant.EXACT_INVERSE)
        else:
            got = offline.offline_step(state, x, 1e-30, Task.PSP, Variant.EXACT_INVERSE)
            w, m = _parent_averaged(state, x, 1e-30, Task.PSP, Variant.EXACT_INVERSE)
        assert _same_bits(got.w, w) and _same_bits(got.m, m)

    @pytest.mark.parametrize("online", [True, False], ids=["online", "averaged"])
    def test_run_of_more_than_one_window(self, online):
        state, steps = self.margin_state(), model._WINDOW + 1
        inputs, step_input = self.inputs(online, steps)
        seen = _advanced(ModelState.stack([state]), online, inputs, data.Constant(1e-30),
                         steps, {steps}, set(), Task.PSP, Variant.EXACT_INVERSE)
        parent = _parent_online if online else _parent_averaged
        for t in range(steps):
            w, m = parent(state, step_input(t), 1e-30, Task.PSP, Variant.EXACT_INVERSE)
            state = ModelState._unchecked(np.concatenate((w, m), -1), state.lam, state.tau)
        assert seen == {(0, steps): state.wm.tobytes()}


def _workspace_arrays(made):
    """Every array that the workspaces ``made`` hold or their runs bind,
    but for the weights each was given (and views of them): its own."""
    own = []
    for ws in made:
        items = [ws.spare, ws.h, *ws.target]
        for cell in ws.run.__closure__:
            try:
                items.append(cell.cell_contents)
            except ValueError:  # a name that only the other kind of run binds
                pass
        flat = [a for item in items for a in (item if isinstance(item, tuple) else (item,))]
        own += [a for a in flat if isinstance(a, np.ndarray) and not np.shares_memory(a, ws.wm)]
    return own


class TestOutputsOwnTheirMemory:
    """The output y of ``online_step``, the states of the one-shot steps
    and the states a visit gets share no memory with any workspace buffer,
    and later steps of the same state or workspace leave their bits."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("online", [True, False], ids=["online", "averaged"])
    def test_handed_out_arrays_are_their_own(self, monkeypatch, online, variant):
        made = []

        class Recorded(model._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(model, "_Workspace", Recorded)
        stack = ModelState.stack([random_state(90), random_state(91)])
        rng = np.random.default_rng(90)
        xs, a = rng.normal(size=(6, 2, 10)), rng.normal(size=(2, 10, 10))
        gs = a @ a.mT / 10
        if online:
            y, new = model.online_step(stack, xs[0], 0.01, Task.PSP, variant)
            handed = [y, new, model.plasticity(stack, xs[1], y, 0.01, Task.PSP)]
            step = lambda s: model.online_step(s, xs[2], 0.01, Task.PSP, variant)
            draw = lambda live, count: xs[:count][:, live]
        else:
            handed = [offline.offline_step(stack, gs, 0.01, Task.PSP, variant)]
            step = lambda s: offline.offline_step(s, gs, 0.01, Task.PSP, variant)
            draw = lambda live, count: gs[live][None]
        handed = [h if isinstance(h, np.ndarray) else h.wm for h in handed]

        def visit(t, position, state):
            handed.append(state.wm)
            return True

        model.advance(stack, Task.PSP, variant, online, 6, {2, 4}, data.Constant(0.01), draw,
                      visit, diverge=None)
        assert len(handed) == (3 if online else 1) + 4
        bits = [h.tobytes() for h in handed]
        for s in (stack, ModelState._unchecked(handed[online], stack.lam, stack.tau)):
            step(s)
        model.advance(stack, Task.PSP, variant, online, 6, set(), data.Constant(0.01), draw,
                      visit, diverge=None)
        arrays = _workspace_arrays(made)
        assert len(made) > 4 and arrays
        for h, before in zip(handed, bits):
            assert h.tobytes() == before
            assert not any(np.shares_memory(h, a) for a in arrays)


class TestVisitedStatesStayFrozen:
    """``visit`` may keep the states it gets without copying them: each is
    read-only and no later step of the stack changes it."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("online", [True, False], ids=["online", "averaged"])
    def test_kept_states_equal_the_one_shot_fold(self, online, variant):
        states = [random_state(seed) for seed in (80, 81)]
        rng = np.random.default_rng(80)
        xs = rng.normal(size=(8, 2, 10))
        a = rng.normal(size=(2, 10, 10))
        gs = a @ a.mT / 10
        stack = ModelState.stack(states)
        if online:
            draw = lambda live, count: xs[:count][:, live]
            step = lambda s, i, t: model.online_step(s, xs[t - 1, i], 0.01, Task.PSW,
                                                     variant)[1]
        else:
            draw = lambda live, count: gs[live][None]
            step = lambda s, i, t: offline.offline_step(s, gs[i], 0.01, Task.PSW, variant)
        kept = {}

        def visit(t, position, state):
            kept[t, position] = state
            return True

        model.advance(stack, Task.PSW, variant, online, 8, {1, 2, 3}, data.Constant(0.01),
                      draw, visit, diverge=None)
        assert sorted(kept) == [(t, i) for t in (1, 2, 3) for i in (0, 1)]
        for i, state in enumerate(states):
            for t in (1, 2, 3):
                state = step(state, i, t)
                assert _same_bits(kept[t, i].wm, state.wm)
                assert not kept[t, i].wm.flags.writeable
