import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcastream import data, model, offline
from pcastream.data import Constant, RngStream
from pcastream.errors import MODEL_ERRORS, DegenerateSpectrumError, TrialDivergedError
from pcastream.model import ModelState, Task, Variant

ALL_PAIRS = [(t, v) for t in Task for v in Variant]


def small_covariance(stream=0):
    pre = data.small_problem()
    spec = pre.draw_covariance(RngStream(60, stream))
    return data.build_covariance(spec), pre


def fresh_state(pre, task, stream=0):
    rng = RngStream(61, stream)
    w0 = rng.generator.normal(0.0, pre.w_init_std, size=(pre.k, pre.n))
    return ModelState(pre.m_init[task] * np.eye(pre.k), w0, pre.lam,
                      pre.tau[task])


class TestOfflineStep:
    def test_zero_step_is_identity(self):
        g, pre = small_covariance()
        st = fresh_state(pre, Task.PSP)
        new = offline.offline_step(st, g, 0.0, Task.PSP, Variant.ITERATION_FREE)
        assert np.array_equal(new.w, st.w)
        assert np.array_equal(new.m, st.m)

    def test_fixed_point_is_stationary(self):
        g, pre = small_covariance(1)
        for task, variant in ALL_PAIRS:
            fp = offline.construct_fixed_point(g, pre.lam, task)
            new = offline.offline_step(fp, g, 0.1, task, variant)
            assert np.abs(new.w - fp.w).max() < 1e-12
            assert np.abs(new.m - fp.m).max() < 1e-12

    def test_matches_hand_assembled_update(self):
        # N=4, K=2 single projection step assembled with explicit formulas
        rng = np.random.default_rng(62)
        g = np.diag([1.0, 0.7, 0.4, 0.2])
        w = rng.normal(size=(2, 4))
        lam = np.array([1.0, 0.8])
        st = ModelState(np.eye(2), w, lam, 0.5)
        alpha = 0.1
        new = offline.offline_step(st, g, alpha, Task.PSP,
                                   Variant.ITERATION_FREE)
        filt = w.copy()  # identity lateral matrix: filter equals W
        fg = filt @ g
        w_expected = w + alpha * (fg - w)
        m_expected = np.eye(2) + (alpha / 0.5) * (
            fg @ filt.T - lam[:, None] * np.eye(2) * lam[None, :])
        assert np.allclose(new.w, w_expected, atol=1e-14)
        assert np.allclose(new.m, m_expected, atol=1e-14)

    @pytest.mark.parametrize("task, variant", ALL_PAIRS)
    def test_is_mean_of_online_updates(self, task, variant):
        # the online rule averaged over samples is the averaged dynamics
        # on their exact empirical covariance
        pre = data.small_problem()
        gen = RngStream(63).generator
        x = gen.normal(size=(200, pre.n))
        g = x.T @ x / len(x)
        st = fresh_state(pre, task)
        e = 0.02 * gen.normal(size=(pre.k, pre.k))
        np.fill_diagonal(e, 0.0)
        st = ModelState(st.m + e + e.T, st.w, st.lam, st.tau)
        alpha = 0.05
        online = [model.plasticity(st, xi, model.forward(st, xi, variant),
                                   alpha, task) for xi in x]
        new = offline.offline_step(st, g, alpha, task, variant)
        assert np.abs(np.mean([s.w for s in online], 0) - new.w).max() <= 1e-12
        assert np.abs(np.mean([s.m for s in online], 0) - new.m).max() <= 1e-12


# a weight scale: mostly 1, now and then 1e150 - 1e300
weight_scales = st.one_of(st.just(1.0), st.just(1.0), st.just(1.0),
                          st.floats(150.0, 300.0).map(lambda e: 10.0**e))


@st.composite
def stacked_learners(draw):
    """A stack of 1-4 small learners with near-diagonal M, one covariance
    per learner and a step; large steps, small diagonals and huge weights
    make some slices fail."""
    b = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k + 1, 6))
    off = draw(st.sampled_from([0.0, 0.01, 0.1, 0.4]))
    low = draw(st.sampled_from([1e-13, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.normal(size=(b, k, k))
    m = off * (e + e.mT)
    idx = np.arange(k)
    m[:, idx, idx] = rng.uniform(low, 1.5, size=(b, k))
    a = rng.normal(size=(b, n, n))
    w = rng.normal(size=(b, k, n))
    # now and then weights so large that a step overflows, or that only the
    # sum of squares of its finite weights does
    m *= draw(weight_scales)
    w *= draw(weight_scales)
    state = ModelState._unchecked(np.concatenate((w, m), -1), np.linspace(1.0, 0.6, k), 0.5)
    alpha = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 4.0]))
    return state, a @ a.mT / n, alpha


class TestStackedOfflineStep:
    @pytest.mark.parametrize("task, variant", ALL_PAIRS)
    @settings(max_examples=100, deadline=None)
    @given(case=stacked_learners())
    def test_each_slice_is_the_single_learner_step(self, task, variant, case):
        state, g, alpha = case
        singles = []
        for i in range(g.shape[0]):
            try:
                singles.append(offline.offline_step(state[i], g[i], alpha, task,
                                                    variant))
            except MODEL_ERRORS:
                singles.append(None)
        if None in singles:
            with pytest.raises(MODEL_ERRORS):
                offline.offline_step(state, g, alpha, task, variant)
            return
        new = offline.offline_step(state, g, alpha, task, variant)
        for i, new_i in enumerate(singles):
            assert np.array_equal(new.w[i], new_i.w)
            assert np.array_equal(new.m[i], new_i.m)


class TestConstructFixedPoint:
    def test_diagonal_projection_case(self):
        g = np.diag([1.0, 0.75, 0.5, 0.2])
        lam = np.array([1.0, 0.85])
        fp = offline.construct_fixed_point(g, lam, Task.PSP)
        assert np.allclose(fp.m, np.diag([1.0, 0.75]), atol=1e-12)
        filt = model.neural_filter(fp, Variant.EXACT_INVERSE)
        expected = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.85, 0.0, 0.0]])
        assert np.abs(np.abs(filt) - expected).max() < 1e-12

    def test_diagonal_whitening_case(self):
        g = np.diag([1.0, 0.75, 0.5, 0.2])
        lam = np.array([1.0, 0.85])
        fp = offline.construct_fixed_point(g, lam, Task.PSW)
        filt = model.neural_filter(fp, Variant.EXACT_INVERSE)
        expected = np.array([[1.0, 0.0, 0.0, 0.0],
                             [0.0, 0.85 / np.sqrt(0.75), 0.0, 0.0]])
        assert np.abs(np.abs(filt) - expected).max() < 1e-12

    def test_random_rotated_residuals(self):
        for i in range(5):
            g, pre = small_covariance(10 + i)
            for task, variant in ALL_PAIRS:
                fp = offline.construct_fixed_point(g, pre.lam, task)
                assert offline.fixed_point_residual(fp, g, task, variant) < 1e-10

    def test_signed_and_permuted_constructions_are_stationary(self):
        g, pre = small_covariance(20)
        fp = offline.construct_fixed_point(
            g, pre.lam, Task.PSP, signs=np.array([-1.0, 1.0, -1.0]),
            order=[2, 0, 1])
        r = offline.fixed_point_residual(fp, g, Task.PSP, Variant.EXACT_INVERSE)
        assert r < 1e-10

    def test_degenerate_gap_rejected(self):
        g = np.diag([1.0, 0.5, 0.5, 0.2])
        with pytest.raises(DegenerateSpectrumError):
            offline.construct_fixed_point(g, np.array([1.0, 0.8]), Task.PSP)

    def test_invalid_order_rejected(self):
        g, pre = small_covariance(21)
        with pytest.raises(ValueError):
            offline.construct_fixed_point(g, pre.lam, Task.PSP, order=[0, 0, 1])

    def test_invalid_signs_rejected(self):
        g, pre = small_covariance(22)
        with pytest.raises(ValueError):
            offline.construct_fixed_point(g, pre.lam, Task.PSP,
                                          signs=np.array([0.5, 1.0, 1.0]))

    @pytest.mark.parametrize("lam, tau, message", [
        ([0.7, 0.85, 1.0], None, "gain entries must be strictly decreasing and positive"),
        ([1.0, 0.85, -0.7], None, "gain entries must be strictly decreasing and positive"),
        ([1.0, 0.85, 0.7], 0.0, "tau must be positive and finite"),
        ([1.0, 0.85, 0.7], np.inf, "tau must be positive and finite"),
        # W = M F overflows on a huge G with a large gain
        ([3e8, 2e8, 1e8], None, "w contains non-finite entries")])
    def test_state_checks_that_can_still_fail(self, lam, tau, message):
        g = np.diag([3e300, 2e300, 1e300, 1.0]) if lam[0] > 1 else small_covariance(25)[0]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{message}$"):
            offline.construct_fixed_point(g, np.array(lam), Task.PSP, tau=tau)

    def test_covariance_near_the_float_limit_has_a_fixed_point(self):
        g = np.diag([1.5e308, 1e308, 5e307, 1.0])
        fp = offline.construct_fixed_point(g, np.array([1.0, 0.8, 0.6]), Task.PSP)
        assert fp.k == 3 and np.isfinite(fp.wm).all()

    def test_overflowing_w_is_named_without_a_warning(self):
        # no errstate here: the named error, not NumPy's RuntimeWarning
        with pytest.raises(ValueError, match="^w contains non-finite entries$"):
            offline.construct_fixed_point(np.diag([3e300, 2e300, 1e300, 1.0]),
                                          np.array([3e8, 2e8, 1e8]), Task.PSP)

    def test_state_equals_the_checked_construction(self):
        g, pre = small_covariance(26)
        for task in Task:
            fp = offline.construct_fixed_point(g, pre.lam, task, signs=[1.0, -1.0, 1.0])
            checked = ModelState(fp.m, fp.w, pre.lam, fp.tau)
            assert fp.wm.tobytes() == checked.wm.tobytes() and fp.wm.flags.c_contiguous
            assert fp.lam.tobytes() == checked.lam.tobytes() and fp.lam is not pre.lam


class TestFixedPointResidual:
    def test_detects_scaled_weights(self):
        # doubling W doubles the filter too, so detection comes from the
        # lateral drive term of the residual
        g, pre = small_covariance(23)
        fp = offline.construct_fixed_point(g, pre.lam, Task.PSP)
        moved = ModelState(fp.m, 2.0 * fp.w, fp.lam, fp.tau)
        r = offline.fixed_point_residual(moved, g, Task.PSP,
                                         Variant.EXACT_INVERSE)
        assert r > 0.1

    def test_sensitive_to_gain_change(self):
        g, pre = small_covariance(24)
        fp = offline.construct_fixed_point(g, pre.lam, Task.PSW)
        shrunk = ModelState(fp.m, fp.w, 0.5 * fp.lam, fp.tau)
        r0 = offline.fixed_point_residual(fp, g, Task.PSW, Variant.EXACT_INVERSE)
        r1 = offline.fixed_point_residual(shrunk, g, Task.PSW,
                                          Variant.EXACT_INVERSE)
        assert r1 > r0 + 0.1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("variant", list(Variant))
    def test_large_finite_weights_do_not_overflow(self, variant):
        # F = M^-1 W is all ones, so each of the six entries of F G - W is
        # about -1e160: their sum of squares overflows, their norm does not
        st = ModelState(1e160 * np.eye(2), 1e160 * np.ones((2, 3)), [1.0, 0.5], 0.5)
        g = np.eye(3)
        r = offline.fixed_point_residual(st, g, Task.PSW, variant)
        assert r == pytest.approx(np.sqrt(6.0) * 1e160, rel=1e-12)
        with pytest.raises(ValueError, match="^state is not close enough"):
            offline.jacobian_spectrum(st, g, Task.PSW, variant)


def reference_jacobian(state, g, task, variant, eps):
    """The finite-difference Jacobian column by column: one packed field
    evaluation per perturbed state."""
    k, n = state.k, state.n
    iu = np.triu_indices(k)

    def field(vec):
        m = np.zeros((k, k))
        m[iu] = vec[k * n:]
        m = m + np.triu(m, 1).T
        moved = ModelState._unchecked(
            np.concatenate((vec[: k * n].reshape(k, n), m), -1), state.lam, state.tau)
        field = model.averaged_increment(model._Workspace(moved.wm, moved.lam, task, variant), g)
        return np.concatenate([field[:, :n].ravel(), (field[:, n:] / state.tau)[iu]])

    base = np.concatenate([state.w.ravel(), state.m[iu]])
    dim = base.size
    jac = np.empty((dim, dim))
    for i in range(dim):
        bump = np.zeros(dim)
        bump[i] = eps
        jac[:, i] = (field(base + bump) - field(base - bump)) / (2.0 * eps)
    return jac


def same_bits(a, b):
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


class TestJacobianSpectrum:
    @pytest.mark.parametrize("stream", [40, 41, 42])
    def test_stacked_jacobian_equals_column_loop(self, stream):
        g, pre = small_covariance(stream)
        for task, variant in ALL_PAIRS:
            for order in (None, [1, 0, 2]):
                fp = offline.construct_fixed_point(g, pre.lam, task, order=order)
                for eps in (1e-7, 1e-5, 1e-4):
                    ref = reference_jacobian(fp, g, task, variant, eps)
                    assert same_bits(offline._jacobian(fp, g, task, variant, eps),
                                     ref)
                    assert same_bits(
                        offline.jacobian_spectrum(fp, g, task, variant, eps),
                        np.sort(np.linalg.eigvals(ref).real)[::-1])

    def test_correct_ordering_is_stable(self):
        g, pre = small_covariance(25)
        for task, variant in ALL_PAIRS:
            fp = offline.construct_fixed_point(g, pre.lam, task)
            spectrum = offline.jacobian_spectrum(fp, g, task, variant)
            assert spectrum[0] < -1e-6

    def test_permuted_ordering_is_unstable(self):
        g, pre = small_covariance(26)
        for task, variant in ALL_PAIRS:
            bad = offline.construct_fixed_point(g, pre.lam, task,
                                                order=[1, 0, 2])
            spectrum = offline.jacobian_spectrum(bad, g, task, variant)
            assert spectrum[0] > 1e-6

    def test_variant_linearizations_agree(self):
        g, pre = small_covariance(27)
        for task in Task:
            fp = offline.construct_fixed_point(g, pre.lam, task)
            s_if = offline.jacobian_spectrum(fp, g, task, Variant.ITERATION_FREE)
            s_ex = offline.jacobian_spectrum(fp, g, task, Variant.EXACT_INVERSE)
            scale = max(np.abs(s_ex).max(), 1.0)
            assert np.abs(s_if - s_ex).max() / scale < 1e-4

    def test_eps_bounds_enforced(self):
        g, pre = small_covariance(28)
        fp = offline.construct_fixed_point(g, pre.lam, Task.PSP)
        for eps in (1e-8, 2e-4):
            with pytest.raises(ValueError, match="eps"):
                offline.jacobian_spectrum(fp, g, Task.PSP, Variant.EXACT_INVERSE,
                                          eps=eps)

    def test_rejects_states_far_from_stationarity(self):
        g, pre = small_covariance(29)
        st = fresh_state(pre, Task.PSP)
        with pytest.raises(ValueError, match="fixed point"):
            offline.jacobian_spectrum(st, g, Task.PSP, Variant.EXACT_INVERSE)

    def test_rejects_nan_covariance(self):
        g, pre = small_covariance(30)
        fp = offline.construct_fixed_point(g, pre.lam, Task.PSP)
        g[0, 1] = g[1, 0] = np.nan
        with pytest.raises(ValueError, match="fixed point"):
            offline.jacobian_spectrum(fp, g, Task.PSP, Variant.EXACT_INVERSE)


class TestRunOffline:
    def test_zero_horizon_returns_initial(self):
        g, pre = small_covariance(30)
        st = fresh_state(pre, Task.PSP)
        snaps = offline.run_offline(st, g, Constant(0.1), 0,
                                    task=Task.PSP, variant=Variant.ITERATION_FREE)
        assert list(snaps) == [0]
        assert np.array_equal(snaps[0].w, st.w)
        assert snaps[0].w is not st.w

    def test_final_snapshot_always_present(self):
        g, pre = small_covariance(31)
        st = fresh_state(pre, Task.PSP)
        snaps = offline.run_offline(st, g, Constant(0.1), 50, [20, 10],
                                    task=Task.PSP, variant=Variant.ITERATION_FREE)
        assert list(snaps) == [10, 20, 50]

    def test_snapshots_match_plain_loop(self):
        g, pre = small_covariance(31)
        st = fresh_state(pre, Task.PSW)
        snaps = offline.run_offline(st, g, pre.offline_schedule, 50, [1, 20],
                                    task=Task.PSW, variant=Variant.EXACT_INVERSE)
        expected = {}
        for t in range(1, 51):
            st = offline.offline_step(st, g, pre.offline_schedule.rate(t),
                                      Task.PSW, Variant.EXACT_INVERSE)
            expected[t] = st
        for t in (1, 20, 50):
            assert np.array_equal(snaps[t].w, expected[t].w)
            assert np.array_equal(snaps[t].m, expected[t].m)

    def test_snapshots_stay_frozen(self):
        # run_offline keeps the states advance hands it, uncopied: each is
        # read-only, and no later step changes it
        g, pre = small_covariance(35)
        for variant in Variant:
            st = fresh_state(pre, Task.PSW)
            snaps = offline.run_offline(st, g, Constant(0.1), 8, [1, 2, 3],
                                        task=Task.PSW, variant=variant)
            assert list(snaps) == [1, 2, 3, 8]
            for t in (1, 2, 3):
                st = offline.offline_step(st, g, 0.1, Task.PSW, variant)
                assert same_bits(snaps[t].wm, st.wm)
                assert not snaps[t].wm.flags.writeable

    def test_fixed_point_is_invariant_along_run(self):
        g, pre = small_covariance(32)
        fp = offline.construct_fixed_point(g, pre.lam, Task.PSP)
        final = offline.run_offline(fp, g, Constant(0.1), 500,
                                    task=Task.PSP, variant=Variant.ITERATION_FREE)[500]
        assert np.abs(final.w - fp.w).max() < 1e-10
        assert np.abs(final.m - fp.m).max() < 1e-10

    def test_divergence_wrapped_with_iteration(self):
        g, pre = small_covariance(33)
        st = fresh_state(pre, Task.PSP)
        with pytest.raises(TrialDivergedError) as err:
            offline.run_offline(st, g, Constant(40.0), 100,
                                task=Task.PSP, variant=Variant.ITERATION_FREE)
        assert 1 <= err.value.iteration <= 100
        assert isinstance(err.value.cause, MODEL_ERRORS)

    def test_bad_checkpoints_rejected(self):
        g, pre = small_covariance(34)
        st = fresh_state(pre, Task.PSP)
        # each checkpoint must lie in [1, t_max], also for t_max == 0
        for t_max, checkpoints in ((10, [0]), (10, [11]), (0, [1])):
            with pytest.raises(ValueError, match="checkpoints outside"):
                offline.run_offline(st, g, Constant(0.1), t_max, checkpoints,
                                    task=Task.PSP, variant=Variant.ITERATION_FREE)
