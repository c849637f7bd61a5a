import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcastream import data, linalg, metrics, model, offline
from pcastream.data import RngStream
from pcastream.errors import DegenerateSpectrumError, ShapeMismatchError
from pcastream.model import Task, Variant

ALL_PAIRS = [(t, v) for t in Task for v in Variant]


def small_covariance(stream):
    pre = data.small_problem()
    spec = pre.draw_covariance(RngStream(40, stream))
    return data.build_covariance(spec), pre


def diff_separated(values, k):
    """The ``np.diff`` form of ``metrics.leading_separated``: the reference."""
    # inf - inf is NaN; a difference past the float limit overflows to inf
    with np.errstate(invalid="ignore", over="ignore"):
        return bool((-np.diff(values[: k + 1]) > metrics.GAP_FLOOR).all())


# entries at and around the gap floor, signed zeros and the non-finite ones
EDGES = [0.0, -0.0, 1e-10, -1e-10, 2e-10, 1.0, 1.0 - 1e-10, 1.0 - 2e-10,
         math.inf, -math.inf, math.nan]


class TestLeadingSeparated:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(EDGES)), max_size=8),
           st.integers(0, 9))
    @example([1.0, 1.0 - 1e-10, 0.5], 2)
    @example([1.0, math.nan, 0.5], 2)
    @example([math.inf, math.inf, 1.0], 1)
    @example([math.inf, 1.0, -math.inf], 2)
    @example([3.3061094727442634e+295, -1.7976931348619852e+308], 1)
    def test_same_decision_as_the_diff_form(self, values, k):
        values = np.array(values, dtype=float)
        assert metrics.leading_separated(values, k) is diff_separated(values, k)


class TestOptimalFilter:
    @pytest.mark.parametrize("task", list(Task))
    @pytest.mark.parametrize("preset", [data.small_problem, data.large_problem])
    def test_default_order_and_signs_are_the_identity_bit_for_bit(self, task, preset):
        # the default path slices where an explicit order fancy-indexes
        pre = preset()
        for stream in range(3):
            g = data.build_covariance(pre.draw_covariance(RngStream(41, stream)))
            default = metrics.optimal_filter(g, pre.lam, task)
            explicit = metrics.optimal_filter(g, pre.lam, task, signs=np.ones(pre.k),
                                              order=np.arange(pre.k))
            for got, expected in zip(default, explicit):
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            assert default[1].flags.c_contiguous and explicit[1].flags.c_contiguous


class TestGroundTruth:
    def test_diagonal_case(self):
        truth = metrics.ground_truth(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(np.abs(truth.u_k), np.eye(3)[:, :2], atol=1e-12)
        assert np.allclose(truth.sigma_k, [np.sqrt(3.0), np.sqrt(2.0)])

    def test_rotated_eigen_residual(self):
        g, pre = small_covariance(0)
        truth = metrics.ground_truth(g, 3)
        for i in range(3):
            u = truth.u_k[:, i]
            lam = truth.sigma_k[i] ** 2
            assert np.linalg.norm(g @ u - lam * u) < 1e-9

    def test_small_problem_spectrum_recovered(self):
        g, pre = small_covariance(1)
        truth = metrics.ground_truth(g, 3)
        assert np.allclose(truth.sigma_k**2, [1.0, 0.75, 0.5], atol=1e-10)

    def test_degenerate_gap_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            metrics.ground_truth(np.diag([2.0, 1.0, 1.0, 0.5]), 2)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            metrics.ground_truth(np.diag([2.0, 1.0]), 2)

    def test_rejects_nan_basis(self):
        u_k = np.eye(3)[:, :2]
        u_k[2, 1] = np.nan
        with pytest.raises(ValueError, match="^u_k columns are not orthonormal"):
            metrics.GroundTruth(u_k, np.array([2.0, 1.0]))

    @pytest.mark.parametrize("sigma_k", [[np.inf, 1.0], [np.inf, np.inf]])
    def test_rejects_infinite_sigma(self, sigma_k):
        with pytest.raises(ValueError, match="^sigma_k must be"):
            metrics.GroundTruth(np.eye(3)[:, :2], np.array(sigma_k))


class TestEstimateSubspace:
    def test_projection_fixed_point_recovers_basis(self):
        g, pre = small_covariance(2)
        truth = metrics.ground_truth(g, pre.k)
        fp = offline.construct_fixed_point(g, pre.lam, Task.PSP)
        for variant in Variant:
            u_hat = metrics.estimate_subspace(fp, Task.PSP, variant)
            assert np.abs(u_hat - truth.u_k).max() < 1e-10

    def test_whitening_fixed_point_recovers_basis_up_to_sign(self):
        g, pre = small_covariance(3)
        truth = metrics.ground_truth(g, pre.k)
        fp = offline.construct_fixed_point(g, pre.lam, Task.PSW)
        for variant in Variant:
            u_hat = metrics.estimate_subspace(fp, Task.PSW, variant, truth.sigma_k)
            assert np.abs(np.abs(u_hat) - np.abs(truth.u_k)).max() < 1e-10
            assert metrics.procrustes_error(u_hat, truth.u_k) < 1e-12

    def test_sign_flips_leave_error_unchanged(self):
        g, pre = small_covariance(4)
        truth = metrics.ground_truth(g, pre.k)
        signs = np.array([-1.0, 1.0, -1.0])
        fp = offline.construct_fixed_point(g, pre.lam, Task.PSP, signs=signs)
        u_hat = metrics.estimate_subspace(fp, Task.PSP, Variant.ITERATION_FREE)
        assert metrics.procrustes_error(u_hat, truth.u_k) < 1e-12

    def test_whitening_requires_scales(self):
        g, pre = small_covariance(5)
        fp = offline.construct_fixed_point(g, pre.lam, Task.PSW)
        with pytest.raises(ValueError):
            metrics.estimate_subspace(fp, Task.PSW, Variant.EXACT_INVERSE)

    def test_consistency_across_random_covariances(self):
        worst = 0.0
        for i in range(10):
            g, pre = small_covariance(6 + i)
            truth = metrics.ground_truth(g, pre.k)
            for task, variant in ALL_PAIRS:
                fp = offline.construct_fixed_point(g, pre.lam, task)
                u_hat = metrics.estimate_subspace(fp, task, variant, truth.sigma_k)
                worst = max(worst, metrics.procrustes_error(u_hat, truth.u_k))
        assert worst < 1e-9


class TestProcrustesError:
    def test_exact_match(self):
        u, _ = linalg.qr(np.random.default_rng(41).normal(size=(6, 3)))
        # residual of the numerically aligned copy sits at the rounding floor
        assert metrics.procrustes_error(u, u) < 1e-30

    def test_rotation_absorbed(self):
        rng = np.random.default_rng(42)
        u, _ = linalg.qr(rng.normal(size=(6, 3)))
        q = data.haar_orthogonal(3, RngStream(42))
        assert metrics.procrustes_error(u @ q, u) < 1e-12

    def test_k1_closed_form(self):
        theta = np.pi / 3
        u = np.array([[1.0], [0.0]])
        u_hat = np.array([[np.cos(theta)], [np.sin(theta)]])
        err = metrics.procrustes_error(u_hat, u)
        assert abs(err - 2 * (1 - np.cos(theta))) < 1e-12
        assert abs(err - 1.0) < 1e-12

    def test_orthogonal_complement_saturates(self):
        basis, _ = linalg.qr(np.random.default_rng(43).normal(size=(8, 6)))
        err = metrics.procrustes_error(basis[:, 3:], basis[:, :3])
        assert abs(err - 2.0) < 1e-12

    def test_matches_trace_formula(self):
        # closed form (||U_hat||^2 + K - 2 sum s_i) / K on generic inputs
        rng = np.random.default_rng(44)
        for _ in range(10):
            u_true, _ = linalg.qr(rng.normal(size=(7, 3)))
            u_hat = rng.normal(size=(7, 3))
            _, s, _ = linalg.svd_small(u_hat.T @ u_true)
            expected = (np.sum(u_hat**2) + 3 - 2 * s.sum()) / 3
            assert abs(metrics.procrustes_error(u_hat, u_true) - expected) < 1e-12

    def test_upper_bound(self):
        rng = np.random.default_rng(45)
        u_true, _ = linalg.qr(rng.normal(size=(7, 3)))
        u_hat = 3.0 * rng.normal(size=(7, 3))
        err = metrics.procrustes_error(u_hat, u_true)
        assert 0.0 <= err <= (np.sum(u_hat**2) + 3) / 3

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            metrics.procrustes_error(np.zeros((5, 2)), np.zeros((5, 3)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_inputs_whose_product_overflows(self):
        # u_hat' u_true is (c / max|u_true|) I, above the largest float
        u_true, _ = linalg.qr(np.random.default_rng(46).normal(size=(7, 3)))
        u_hat = 1.7e308 * (u_true / np.abs(u_true).max())
        assert linalg.all_finite(u_hat)
        assert metrics.procrustes_error(u_hat, u_true) == np.inf
        with pytest.raises(ValueError, match="non-finite"):
            metrics.procrustes_error(np.full((7, 3), np.nan), u_true)


class TestLateralDiagnostics:
    def test_near_diagonal_matrix(self):
        m = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.4], [0.0, 0.4, 2.0]])
        ratio, margin = metrics.lateral_diagnostics(m)
        assert ratio == pytest.approx(0.5 * 2**0.5 / 3, rel=1e-15)
        assert margin == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_ratio_finite_where_squares_overflow(self, scale):
        m = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.4], [0.0, 0.4, 2.0]])
        ratio, _ = metrics.lateral_diagnostics(scale * m)
        assert ratio == pytest.approx(metrics.lateral_diagnostics(m)[0], rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("off, expected", [(0.3, np.inf), (0.0, np.nan)])
    def test_zero_diagonal_divides_as_floats_do(self, off, expected):
        ratio, margin = metrics.lateral_diagnostics(np.array([[0.0, off], [off, 0.0]]))
        assert ratio == expected or (np.isnan(expected) and np.isnan(ratio))
        assert margin == -model.DIAGONAL_FLOOR


class TestObjectives:
    def test_psp_zero_embedding(self):
        x = np.random.default_rng(46).normal(size=(3, 5))
        assert metrics.objective_psp(np.zeros((2, 5)), x, np.array([1.0, 0.5])) == 0.0

    def test_psp_axis_aligned_value(self):
        # K=1, unit gain, X = diag(2, 1): optimum (2, 0) scores
        # -2 * 16 + 16 = -16
        x = np.diag([2.0, 1.0])
        y = np.array([[2.0, 0.0]])
        assert metrics.objective_psp(y, x, np.array([1.0])) == pytest.approx(-16.0)

    def test_psp_axis_aligned_grid_search(self):
        # coarse grid over 1x2 embeddings confirms the -16 optimum location
        x = np.diag([2.0, 1.0])
        lam = np.array([1.0])
        best_val, best_y = np.inf, None
        for a in np.linspace(-3, 3, 61):
            for b in np.linspace(-3, 3, 61):
                val = metrics.objective_psp(np.array([[a, b]]), x, lam)
                if val < best_val:
                    best_val, best_y = val, (a, b)
        assert best_val == pytest.approx(-16.0, abs=1e-9)
        assert abs(best_y[0]) == pytest.approx(2.0, abs=1e-9)
        assert best_y[1] == pytest.approx(0.0, abs=1e-9)

    def test_psp_local_minimality(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(4, 6))
        lam = np.array([1.2, 0.9])
        y_opt = metrics.closed_form_optimum(x, lam, Task.PSP)
        base = metrics.objective_psp(y_opt, x, lam)
        for _ in range(100):
            delta = rng.normal(size=y_opt.shape)
            delta *= 1e-2 / np.linalg.norm(delta)
            assert metrics.objective_psp(y_opt + delta, x, lam) >= base - 1e-12

    def test_psw_feasible_has_zero_violation(self):
        rng = np.random.default_rng(48)
        lam = np.array([1.1, 0.8])
        q, _ = linalg.qr(rng.normal(size=(6, 2)))
        y = lam[:, None] * q.T
        x = rng.normal(size=(4, 6))
        _, violation = metrics.objective_psw(y, x, lam)
        assert violation < 1e-12

    def test_psw_optimum_satisfies_constraint(self):
        rng = np.random.default_rng(49)
        x = rng.normal(size=(4, 7))
        lam = np.array([1.1, 0.8])
        y_opt = metrics.closed_form_optimum(x, lam, Task.PSW)
        _, violation = metrics.objective_psw(y_opt, x, lam)
        assert violation < 1e-10

    def test_psw_zero_embedding(self):
        x = np.random.default_rng(50).normal(size=(3, 4))
        lam = np.array([1.0, 0.5])
        value, violation = metrics.objective_psw(np.zeros((2, 4)), x, lam)
        gram = x.T @ x
        assert value == pytest.approx(np.sum(gram * gram))
        assert violation == pytest.approx(np.linalg.norm(np.diag(lam**2)))


class TestClosedFormOptimum:
    def test_axis_aligned_projection(self):
        x = np.diag([2.0, 1.0])
        y = metrics.closed_form_optimum(x, np.array([1.0]), Task.PSP)
        assert np.allclose(np.abs(y), [[2.0, 0.0]], atol=1e-12)

    def test_axis_aligned_whitening(self):
        x = np.diag([2.0, 1.0])
        y = metrics.closed_form_optimum(x, np.array([1.0]), Task.PSW)
        assert np.allclose(np.abs(y), [[1.0, 0.0]], atol=1e-12)

    def test_signs_flip_rows(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(4, 6))
        lam = np.array([1.2, 0.9])
        base = metrics.closed_form_optimum(x, lam, Task.PSP)
        flipped = metrics.closed_form_optimum(x, lam, Task.PSP,
                                              signs=np.array([-1.0, 1.0]))
        assert np.allclose(flipped[0], -base[0], atol=1e-14)
        assert np.allclose(flipped[1], base[1], atol=1e-14)

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(52)
        x = rng.normal(size=(4, 6))
        lam = np.array([1.2, 0.9])
        y_opt = metrics.closed_form_optimum(x, lam, Task.PSP)
        best = metrics.objective_psp(y_opt, x, lam)
        norm = np.linalg.norm(y_opt)
        for _ in range(1000):
            cand = rng.normal(size=y_opt.shape)
            cand *= norm / np.linalg.norm(cand)
            assert metrics.objective_psp(cand, x, lam) >= best - 1e-9

    def test_degenerate_spectrum_rejected(self):
        x = np.diag([1.0, 1.0, 0.5])
        with pytest.raises(DegenerateSpectrumError):
            metrics.closed_form_optimum(x, np.array([1.0]), Task.PSP)
