from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_gain_targets_read_only(self):
        # what the increment of [W | M] subtracts, per task: one read-only
        # copy per shape of wm, each equal to the broadcast of a learner's
        st = random_state(1)
        n = st.n
        targets = {task: model._Targets(st.lam, n, task) for task in Task}
        (psp,) = targets[Task.PSP][st.wm.shape]
        psw, square = targets[Task.PSW][st.wm.shape]
        assert (psp[:, :n] == 1).all() and (square[:, :n] == 0).all()
        assert np.array_equal(psp[:, n:], np.outer(st.lam, st.lam))
        assert np.array_equal(square[:, n:], np.diag(st.lam**2))
        assert np.array_equal(psw, np.tile([1] * n + [0] * st.k, (st.k, 1)))
        assert np.signbit(square[:, :n]).all()
        stack = ModelState.stack([st, random_state(2)])
        for by_shape in targets.values():
            for one, full in zip(by_shape[st.wm.shape], by_shape[stack.wm.shape]):
                assert np.array_equal(full, np.broadcast_to(one, stack.wm.shape))
            assert all(not a.flags.writeable for consts in by_shape.values() for a in consts)

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
    off-diagonal pair of M Inf or NaN, or ("finite") keeps every entry
    finite while their sum of squares overflows. With M = I the filter is
    W itself; G's large off-diagonal overflows only F G F' off its
    diagonal."""
    eye = np.eye(2)
    g = np.array([[1.0, 1e10], [1e10, 1.0]])
    return {
        "m-inf": (eye, 1e150 * eye, g, 0.1),
        "m-nan": (eye, 1e150 * eye, g, 0.0),
        "finite": (BIG * eye, BIG * eye, eye, 0.1),
    }[kind]


def _in_last_slice(bad, benign):
    """A stack of three: two copies of ``benign``, then ``bad``, item by item."""
    return [np.stack([b, b, a]) for a, b in zip(bad, benign)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    @pytest.mark.parametrize("kind", ["m-inf", "m-nan"])
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

    def test_iteration_free_path_avoids_solvers(self, monkeypatch):
        st = random_state(27)
        x = np.random.default_rng(27).normal(size=10)

        def boom(*args, **kwargs):
            raise AssertionError("solver invoked on the iteration-free path")

        monkeypatch.setattr(linalg, "lu_factor", boom)
        monkeypatch.setattr(linalg, "sym_eig", boom)
        model.online_step(st, x, 0.01, Task.PSP, Variant.ITERATION_FREE)
        model.neural_filter(st, Variant.ITERATION_FREE)


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


# random stacks include weights whose products overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
            increment = partial(model.online_increment, Variant.ITERATION_FREE,
                                model._Targets(stack.lam, stack.n, Task.PSP))
            model.advance(stack, 20, {5, 20}, data.InverseTime(10.0, 250.0), increment,
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
    floor test on the new M's diagonal before the overflow test of M, then
    W. Returns (w, m)."""
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
    if not (np.diagonal(m, 0, -2, -1) > model.DIAGONAL_FLOOR).all():
        raise DegenerateDiagonalError("updated lateral diagonal hit the floor")
    if not (np.isfinite(m).all() and np.isfinite(w).all()):
        raise DegenerateDiagonalError("weights overflowed")
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
        st.sampled_from([(1.0, 5.0), (40.0, 2.0)]).map(lambda a: data.InverseTime(*a))))
    online = draw(st.booleans())
    if online:
        inputs = rng.normal(size=(t_max, b, n))
    else:
        a = rng.normal(size=(b, n, n))
        inputs = a @ a.mT / n
    points = draw(st.sets(st.integers(1, t_max)))
    ends = draw(st.sets(st.integers(0, b - 1)))
    return (state, online, inputs, schedule, t_max, points, ends,
            draw(st.sampled_from(list(Task))), draw(st.sampled_from(list(Variant))))


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
        state, online, inputs, schedule, t_max, points, ends, task, variant = case
        seen = {}

        def visit(t, position, visited):
            seen[position, t] = visited.wm.tobytes()
            return position not in ends

        def diverge(t, position, exc):
            seen[position, "diverged"] = (t, type(exc), str(exc))

        coefs = model._Targets(state.lam, state.n, task)
        if online:
            increment = partial(model.online_increment, variant, coefs)
            draw = lambda live, count: inputs[:count][:, live]
        else:
            increment = partial(offline.averaged_increment, variant, coefs)
            draw = lambda live, count: inputs[live][None]
        model.advance(state, t_max, points, schedule, increment, draw, visit, diverge)

        expected = {}
        for i in range(len(state.wm)):
            one = state[[i]]
            for t in range(1, t_max + 1):
                alpha = schedule.rate(t)
                try:
                    if online:
                        one = model.online_step(one, inputs[t - 1, [i]], alpha, task,
                                                variant)[1]
                    else:
                        one = offline.offline_step(one, inputs[[i]], alpha, task, variant)
                except MODEL_ERRORS as exc:
                    expected[i, "diverged"] = (t, type(exc), str(exc))
                    break
                if t in points:
                    expected[i, t] = one.wm[0].tobytes()
                    if i in ends:
                        break
        assert seen == expected


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
        coefs = model._Targets(stack.lam, stack.n, Task.PSW)
        if online:
            increment = partial(model.online_increment, variant, coefs)
            draw = lambda live, count: xs[:count][:, live]
            step = lambda s, i, t: model.online_step(s, xs[t - 1, i], 0.01, Task.PSW,
                                                     variant)[1]
        else:
            increment = partial(offline.averaged_increment, variant, coefs)
            draw = lambda live, count: gs[live][None]
            step = lambda s, i, t: offline.offline_step(s, gs[i], 0.01, Task.PSW, variant)
        kept = {}

        def visit(t, position, state):
            kept[t, position] = state
            return True

        model.advance(stack, 8, {1, 2, 3}, data.Constant(0.01), increment, draw, visit,
                      diverge=None)
        assert sorted(kept) == [(t, i) for t in (1, 2, 3) for i in (0, 1)]
        for i, state in enumerate(states):
            for t in (1, 2, 3):
                state = step(state, i, t)
                assert _same_bits(kept[t, i].wm, state.wm)
                assert not kept[t, i].wm.flags.writeable
