import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcastream import linalg
from pcastream.errors import (
    NotSymmetricError,
    RankDeficientError,
    ShapeMismatchError,
    SingularMatrixError,
)


def random_matrix(rows, cols, rank, seed, scale):
    """Gaussian matrix of the given rank (almost surely) and scale."""
    gen = np.random.default_rng(seed)
    return scale * gen.normal(size=(rows, rank)) @ gen.normal(size=(rank, cols))


dims = st.integers(1, 64)
seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from([1e-3, 1.0, 1e3])


def triple_loop_matmul(a, b):
    """Independent reference product used to validate reconstruction oracles."""
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestSymEig:
    def test_identity(self):
        w, v = linalg.sym_eig(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_diagonal_case(self):
        w, v = linalg.sym_eig(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(w, [3.0, 2.0, 1.0], atol=1e-14)
        # coordinate eigenvectors up to sign
        assert np.allclose(np.abs(v), np.eye(3), atol=1e-14)

    def test_reconstruction_random_8x8(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        a = 0.5 * (a + a.T)
        w, v = linalg.sym_eig(a)
        recon = v @ np.diag(w) @ v.T
        # the numpy product used by the oracle agrees with a hand-rolled one
        assert np.abs(v @ np.diag(w) - triple_loop_matmul(v, np.diag(w))).max() < 1e-13
        assert np.abs(recon - a).max() < 1e-10

    def test_eigen_residuals_and_order(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(12, 12))
        a = 0.5 * (a + a.T)
        w, v = linalg.sym_eig(a)
        assert (np.diff(w) <= 0).all()
        for i in range(12):
            assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) < 1e-9 * np.linalg.norm(a)

    def test_reconstruction_bound_for_bounded_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(7, 7))
            a = 0.5 * (a + a.T)
            a *= 10.0 / max(np.linalg.norm(a), 10.0)
            w, v = linalg.sym_eig(a)
            assert np.linalg.norm(v @ np.diag(w) @ v.T - a) <= 1e-9

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NotSymmetricError):
            linalg.sym_eig(a)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            linalg.sym_eig(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        a = np.eye(2)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.sym_eig(a)

    @settings(max_examples=60, deadline=None)
    @given(n=dims, rank_frac=st.floats(0, 1), seed=seeds, scale=scales)
    def test_orders_and_reconstructs(self, n, rank_frac, seed, scale):
        # low rank gives repeated (zero) eigenvalues
        b = random_matrix(n, n, round(rank_frac * n), seed, scale)
        a = b + b.T
        w, v = linalg.sym_eig(a)
        assert w.shape == (n,) and v.shape == (n, n)
        assert (np.diff(w) <= 0).all()
        assert np.linalg.norm(v @ np.diag(w) @ v.T - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-12


class TestSvdSmall:
    def test_zero_matrix(self):
        u, s, v = linalg.svd_small(np.zeros((3, 3)))
        assert (s == 0).all()
        assert np.allclose(u.T @ u, np.eye(3), atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_diagonal_case(self):
        u, s, v = linalg.svd_small(np.diag([2.0, 1.0]))
        assert np.allclose(s, [2.0, 1.0], atol=1e-12)
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4), (6, 6), (5, 1)])
    def test_reconstruction(self, shape):
        rng = np.random.default_rng(6)
        a = rng.normal(size=shape)
        u, s, v = linalg.svd_small(a)
        assert (np.diff(s) <= 0).all()
        assert (s >= 0).all()
        assert np.abs(u @ np.diag(s) @ v.T - a).max() < 1e-10 * np.linalg.norm(a)
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-10)

    def test_rank_deficient_input(self):
        rng = np.random.default_rng(7)
        col = rng.normal(size=(5, 1))
        a = np.hstack([col, 2 * col, rng.normal(size=(5, 1))])
        u, s, v = linalg.svd_small(a)
        assert s[-1] < 1e-12
        assert np.abs(u @ np.diag(s) @ v.T - a).max() < 1e-10 * np.linalg.norm(a)
        assert np.allclose(u.T @ u, np.eye(3), atol=1e-9)

    def test_reconstruction_past_64(self):
        # no size cap: a 65 x 65 matrix reconstructs like a small one
        a = np.random.default_rng(12).normal(size=(65, 65))
        u, s, v = linalg.svd_small(a)
        assert (np.diff(s) <= 0).all() and (s >= 0).all()
        assert np.linalg.norm(u @ np.diag(s) @ v.T - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(u.T @ u - np.eye(65)) <= 1e-12
        assert np.linalg.norm(v.T @ v - np.eye(65)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(rows=dims, cols=dims, rank_frac=st.floats(0, 1), seed=seeds, scale=scales)
    def test_reconstructs_random_shapes(self, rows, cols, rank_frac, seed, scale):
        p = min(rows, cols)
        a = random_matrix(rows, cols, round(rank_frac * p), seed, scale)
        u, s, v = linalg.svd_small(a)
        assert u.shape == (rows, p) and s.shape == (p,) and v.shape == (cols, p)
        assert (np.diff(s) <= 0).all() and (s >= 0).all()
        assert np.linalg.norm(u @ np.diag(s) @ v.T - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(u.T @ u - np.eye(p)) <= 1e-12
        assert np.linalg.norm(v.T @ v - np.eye(p)) <= 1e-12


class TestQr:
    def test_identity(self):
        q, r = linalg.qr(np.eye(4))
        assert np.array_equal(q, np.eye(4))
        assert np.array_equal(r, np.eye(4))

    def test_single_column(self):
        q, r = linalg.qr(np.array([[3.0], [4.0]]))
        assert np.allclose(q.ravel(), [0.6, 0.8], atol=1e-15)
        assert np.allclose(r, [[5.0]], atol=1e-15)

    def test_random_orthonormal(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(10, 10))
        q, r = linalg.qr(a)
        assert np.linalg.norm(q.T @ q - np.eye(10)) < 1e-12
        assert np.abs(q @ r - a).max() < 1e-12 * np.linalg.norm(a)
        assert (np.diagonal(r) >= 0).all()
        assert np.allclose(r, np.triu(r))

    def test_bit_identical_runs(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 4))
        q1, r1 = linalg.qr(a)
        q2, r2 = linalg.qr(a.copy())
        assert (q1 == q2).all() and (r1 == r2).all()

    def test_rank_deficient_raises(self):
        a = np.ones((4, 2))
        with pytest.raises(RankDeficientError):
            linalg.qr(a)

    def test_wide_input_rejected(self):
        with pytest.raises(ShapeMismatchError):
            linalg.qr(np.zeros((2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(cols=dims, extra=st.integers(0, 16), seed=seeds, scale=scales)
    def test_sign_convention_and_orthonormality(self, cols, extra, seed, scale):
        rows = cols + extra
        a = scale * np.random.default_rng(seed).normal(size=(rows, cols))
        q, r = linalg.qr(a)
        assert q.shape == (rows, cols) and r.shape == (cols, cols)
        assert (np.diagonal(r) >= 0).all()
        assert np.array_equal(r, np.triu(r))
        assert np.linalg.norm(q.T @ q - np.eye(cols)) <= 1e-12
        assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)


def exact_solve(m, b):
    """The exact solve the learners run."""
    return linalg.lu_solve(linalg.lu_factor(m), b)


class TestLuSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(exact_solve(np.eye(3), b), b)

    def test_diagonal(self):
        x = exact_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-15)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(5, 5))
        m = a @ a.T + np.eye(5)
        b = rng.normal(size=5)
        x = exact_solve(m, b)
        assert np.linalg.norm(m @ x - b) < 1e-10

    def test_indefinite_symmetric(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = exact_solve(m, np.array([2.0, 3.0]))
        assert np.allclose(x, [3.0, 2.0], atol=1e-14)

    def test_singular_raises(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            exact_solve(m, np.array([1.0, 1.0]))

    def test_singular_to_working_precision_raises(self):
        # one ulp from exactly singular: LAPACK's elimination does not fail
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 4e-16]])
        with pytest.raises(SingularMatrixError):
            exact_solve(m, np.array([1.0, 1.0]))

    def test_agrees_with_eig_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.normal(size=(10, 10))
            m = a @ a.T + 0.5 * np.eye(10)
            b = rng.normal(size=10)
            x = exact_solve(m, b)
            w, v = linalg.sym_eig(m)
            assert np.linalg.norm(x - v @ ((v.T @ b) / w)) < 1e-9


def asymmetric_matrix(n, seed, asymmetry):
    """n x n matrix, n >= 2: a symmetric Gaussian one plus ``asymmetry``
    times its norm in entry (0, 1), so that ``||a - a.T|| / ||a||`` is
    at least ``asymmetry / (1 + asymmetry)``, and 0 for 0."""
    b = np.random.default_rng(seed).normal(size=(n, n))
    a = b + b.T
    a[0, 1] += asymmetry * np.linalg.norm(a)
    return a


# squares of entries overflow or underflow at these scales, and no
# RuntimeWarning may say so
class TestFrobenius:
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160, 1e300, 1e-300])
    def test_matches_plain_norm_rescaled(self, scale):
        a = np.arange(1.0, 7.0).reshape(2, 3)
        assert linalg.frobenius(scale * a) == pytest.approx(
            scale * np.linalg.norm(a), rel=1e-15)

    def test_zero_and_nonfinite(self):
        assert linalg.frobenius(np.zeros((3, 3))) == 0.0
        assert linalg.frobenius(np.array([[np.inf, 1.0]])) == np.inf
        assert np.isnan(linalg.frobenius(np.array([[np.nan, 1.0]])))

    def test_asymmetry_found_where_squares_overflow(self):
        assert not linalg.is_symmetric([[1e200, 1e200], [0.0, 1e200]])
        assert linalg.is_symmetric([[1e200, 1e190], [1e190, 1e200]])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.integers(-300, 300))
    def test_norm_scales(self, rows, cols, seed, exponent):
        a = np.random.default_rng(seed).normal(size=(rows, cols))
        s = 10.0 ** exponent
        assert linalg.frobenius(s * a) == pytest.approx(s * linalg.frobenius(a),
                                                        rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 2e-8, 1e-4, 1.0]), st.integers(-300, 300))
    def test_symmetry_decision_scales(self, n, seed, asymmetry, exponent):
        a = asymmetric_matrix(n, seed, asymmetry)
        assert linalg.is_symmetric(10.0 ** exponent * a) == linalg.is_symmetric(a)


class TestPredicates:
    """The one test of each validity rule; NaN and infinity fail them all."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_all_finite(self, bad):
        a = np.full((2, 3), 1e300)  # finite, though its squares overflow
        assert linalg.all_finite(a)
        a[1, 2] = bad
        assert not linalg.all_finite(a)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, np.inf, np.nan]),
                    max_size=4))
    def test_orderings_match_numpy(self, values):
        v = np.array(values, dtype=float)
        finite = bool(np.isfinite(v).all()) and bool((v > 0).all())
        with np.errstate(invalid="ignore"):
            d = np.diff(v)
        assert linalg.is_positive_decreasing(v) == (finite and bool((d < 0).all()))
        assert linalg.is_positive_nonincreasing(v) == (finite and bool((d <= 0).all()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_orthonormal(self, bad):
        q = np.linalg.qr(np.random.default_rng(3).normal(size=(5, 3)))[0]
        assert linalg.is_orthonormal(q)
        assert not linalg.is_orthonormal(q + 1e-9)
        q[4, 0] = bad
        assert not linalg.is_orthonormal(q)


def balanced_matrix(n, seed, log_cond):
    """n x n matrix with singular values spread evenly in log scale from
    10**(-log_cond/2) to 10**(log_cond/2), so that it and its inverse
    both have norms near 1 in log scale."""
    gen = np.random.default_rng(seed)
    u, _ = np.linalg.qr(gen.normal(size=(n, n)))
    v, _ = np.linalg.qr(gen.normal(size=(n, n)))
    return u @ np.diag(np.logspace(-log_cond / 2, log_cond / 2, n)) @ v.T


# squares of entries, or of inverse entries, overflow or underflow here,
# and no RuntimeWarning may say so
class TestLuFactorScale:
    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
    def test_scaled_identity_accepted(self, scale):
        # condition number 3 at any scale
        inv = linalg.lu_factor(scale * np.eye(3))
        assert np.allclose(inv * scale, np.eye(3), rtol=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160, 1e300, 1e-300])
    def test_singular_to_working_precision_rejected(self, scale):
        m = scale * np.array([[1.0, 1.0], [1.0, 1.0 + 4e-16]])
        with pytest.raises(SingularMatrixError, match="condition number"):
            linalg.lu_factor(m)

    def test_message_kept_for_normal_scale(self):
        with pytest.raises(SingularMatrixError, match="9.007e\\+15"):
            linalg.lu_factor(np.array([[1.0, 1.0], [1.0, 1.0 + 4e-16]]))

    def test_stack_decides_per_matrix(self):
        stack = np.stack([np.eye(2), 1e200 * np.eye(2), 2.0 * np.eye(2)])
        assert np.array_equal(linalg.lu_factor(stack)[1], 1e-200 * np.eye(2))

    def test_stack_names_its_near_singular_matrix(self):
        near = np.array([[1.0, 1.0], [1.0, 1.0 + 4e-16]])
        stack = np.stack([np.eye(2), near, 2.0 * np.eye(2)])
        with pytest.raises(SingularMatrixError, match="9.007e\\+15"):
            linalg.lu_factor(stack)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 12.0),
           st.floats(-300.0, 300.0))
    def test_scale_does_not_change_decision(self, n, seed, log_cond, exponent):
        def accepted(m):
            try:
                linalg.lu_factor(m)
            except SingularMatrixError:
                return False
            return True

        a = balanced_matrix(n, seed, log_cond)
        assert accepted(10.0 ** exponent * a) == accepted(a)


def test_import_leaves_scipy_unloaded():
    """The kernels use numpy.linalg only; loading scipy would slow start-up."""
    code = ("import sys, pcastream; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_leaves_pool_and_suite_unloaded():
    """The process pool serves only multi-stack runs and the verification
    suite only ``pcastream verify``; loading either would slow start-up."""
    code = ("import sys, pcastream; print(sorted(m for m in sys.modules if m in "
            "('multiprocessing', 'concurrent.futures', 'pcastream.checks')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
