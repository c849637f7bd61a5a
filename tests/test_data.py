import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcastream import data, linalg
from pcastream.data import (
    Constant,
    CovarianceSpec,
    InverseTime,
    PiecewiseConstant,
    RngStream,
)
from pcastream.errors import MalformedRowError
from pcastream.model import Task


class TestRngStream:
    def test_replay(self):
        a = RngStream(7, 3).generator.standard_normal(100)
        b = RngStream(7, 3).generator.standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(7, 0).generator.standard_normal(100)
        b = RngStream(7, 1).generator.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        a = RngStream(7, 0).generator.standard_normal(4096)
        b = RngStream(7, 1).generator.standard_normal(4096)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


class TestHaarOrthogonal:
    def test_dimension_one(self):
        q = data.haar_orthogonal(1, RngStream(0))
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-12

    def test_orthonormal(self):
        for stream in range(5):
            q = data.haar_orthogonal(7, RngStream(1, stream))
            assert np.linalg.norm(q.T @ q - np.eye(7)) < 1e-10

    def test_column_angle_uniform(self):
        # Kolmogorov-Smirnov against the uniform angle distribution; the
        # 1% critical value for n draws is 1.628 / sqrt(n).
        n = 2000
        rng = RngStream(2)
        angles = np.empty(n)
        for i in range(n):
            q = data.haar_orthogonal(2, rng)
            angles[i] = math.atan2(q[1, 0], q[0, 0])
        u = np.sort((angles + math.pi) / (2 * math.pi))
        grid = np.arange(1, n + 1) / n
        ks = max(np.abs(grid - u).max(), np.abs(u - (grid - 1.0 / n)).max())
        assert ks < 1.628 / math.sqrt(n)


class TestCovariance:
    def test_identity_rotation(self):
        spec = CovarianceSpec(3, np.eye(3), np.array([3.0, 2.0, 1.0]))
        assert np.array_equal(data.build_covariance(spec), np.diag([3.0, 2.0, 1.0]))

    def test_eigenvalues_match_spectrum(self):
        pre = data.small_problem()
        spec = pre.draw_covariance(RngStream(3))
        g = data.build_covariance(spec)
        assert (g == g.T).all()
        w, _ = linalg.sym_eig(g)
        assert np.abs(np.sort(w) - np.sort(pre.spectrum)).max() < 1e-10

    def test_trace_invariant(self):
        pre = data.small_problem()
        spec = pre.draw_covariance(RngStream(4))
        g = data.build_covariance(spec)
        assert abs(np.trace(g) - pre.spectrum.sum()) < 1e-12

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            CovarianceSpec(2, np.array([[1.0, 0.1], [0.0, 1.0]]), np.array([1.0, 0.5]))

    def test_rejects_bad_spectrum(self):
        with pytest.raises(ValueError):
            CovarianceSpec(2, np.eye(2), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            CovarianceSpec(2, np.eye(2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rotation(self, bad):
        rotation = np.eye(2)
        rotation[1, 0] = bad
        with pytest.raises(ValueError, match="^rotation is not orthogonal"):
            CovarianceSpec(2, rotation, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("spectrum", [[np.inf, 1.0], [np.inf, np.inf]])
    def test_rejects_infinite_spectrum(self, spectrum):
        with pytest.raises(ValueError, match="^spectrum must be positive"):
            CovarianceSpec(2, np.eye(2), np.array(spectrum))


class TestSampling:
    def test_unit_rotation_variance(self):
        spec = CovarianceSpec(1, np.eye(1), np.array([4.0]))
        rng = RngStream(5)
        draws = data.sample_block(spec, rng, 10000).ravel()
        assert 3.4 <= draws.var() <= 4.6

    def test_empirical_covariance(self):
        pre = data.small_problem()
        spec = pre.draw_covariance(RngStream(6))
        g = data.build_covariance(spec)
        xs = data.sample_block(spec, RngStream(6, 1), 100000)
        emp = xs.T @ xs / xs.shape[0]
        assert np.abs(emp - g).max() < 0.05

    def test_block_matches_single_draws(self):
        pre = data.small_problem()
        spec = pre.draw_covariance(RngStream(7))
        rng = RngStream(8)
        singles = np.concatenate([data.sample_block(spec, rng, 1) for _ in range(16)])
        block = data.sample_block(spec, RngStream(8), 16)
        assert np.abs(singles - block).max() < 1e-12


class TestSchedules:
    def test_inverse_time_values(self):
        sched = InverseTime(10.0, 250.0)
        assert sched.rate(0) == 0.04
        assert sched.rate(1) == 10.0 / 251.0

    def test_piecewise_boundaries(self):
        sched = PiecewiseConstant(((10000.0, 1.1e-3), (math.inf, 1.0e-4)))
        assert sched.rate(1) == 1.1e-3
        assert sched.rate(10000) == 1.1e-3
        assert sched.rate(10001) == 1.0e-4

    @pytest.mark.parametrize("sched", [
        InverseTime(10.0, 250.0),
        Constant(0.1),
        PiecewiseConstant(((100.0, 1e-2), (math.inf, 1e-3))),
    ])
    def test_nonincreasing(self, sched):
        rates = [sched.rate(t) for t in range(0, 2000, 7)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            Constant(0.0)
        with pytest.raises(ValueError):
            InverseTime(-1.0, 250.0)
        with pytest.raises(ValueError):
            PiecewiseConstant(((100.0, 1e-2), (50.0, 1e-3)))
        with pytest.raises(ValueError):
            PiecewiseConstant(())

    @pytest.mark.parametrize("build", [
        lambda: Constant(math.nan),
        lambda: Constant(math.inf),
        lambda: InverseTime(math.nan, 1.0),
        lambda: InverseTime(1.0, math.inf),
        lambda: PiecewiseConstant(((100.0, math.nan), (math.inf, 1e-3))),
        lambda: PiecewiseConstant(((100.0, 1e-2), (math.inf, math.inf))),
        lambda: PiecewiseConstant(((math.nan, 0.1), (math.inf, 0.2))),
        lambda: PiecewiseConstant(((math.nan, 0.1),)),
        lambda: PiecewiseConstant(((-math.inf, 0.1), (math.inf, 0.2))),
    ], ids=["constant-nan", "constant-inf", "numerator-nan", "offset-inf",
            "piece-rate-nan", "piece-rate-inf", "threshold-nan",
            "only-threshold-nan", "threshold-minus-inf"])
    def test_non_finite_fields_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: Constant(10**400), "alpha must be positive and finite"),
        (lambda: InverseTime(10**400, 250.0), "numerator and offset must be positive and finite"),
        (lambda: InverseTime(10.0, 10**400), "numerator and offset must be positive and finite"),
        (lambda: PiecewiseConstant(((10**400, 1e-3),)),
         "thresholds must lie within the float range"),
        (lambda: PiecewiseConstant(((1.0, 10**400),)), "rates must be positive and finite"),
        (lambda: PiecewiseConstant(((math.inf, 10**400),)), "rates must be positive and finite"),
    ], ids=["constant", "numerator", "offset", "piece-threshold", "piece-rate", "tail-rate"])
    def test_ints_beyond_the_float_range_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_fields_are_floats(self):
        """An int field is its float, so that ``rate`` rounds as ``rates``."""
        for sched, fields in [(Constant(2), (2.0,)),
                              (InverseTime(2**53 + 1, 2**53 + 1), (2.0**53, 2.0**53))]:
            assert all(type(f) is float for f in sched._fields())
            assert sched._fields() == fields
            assert _same_rates(sched, 1, 5)

    def test_value_semantics(self):
        """Equal by type and fields, hashed alike, and shown by field."""
        assert Constant(0.1) == Constant(0.1)
        assert Constant(0.1) != InverseTime(10.0, 250.0)
        assert Constant(0.1) != Constant(0.2)
        assert InverseTime(10.0, 250.0) != InverseTime(10.0, 251.0)
        pieces = ((100.0, 1e-2), (math.inf, 1e-3))
        assert PiecewiseConstant(list(pieces)) == PiecewiseConstant(pieces)
        for a, b in [(Constant(0.1), Constant(0.1)),
                     (InverseTime(10.0, 250.0), InverseTime(10.0, 250.0)),
                     (PiecewiseConstant(pieces), PiecewiseConstant(pieces))]:
            assert hash(a) == hash(b)
        assert len({Constant(0.1), Constant(0.1), InverseTime(10.0, 250.0)}) == 2
        assert repr(Constant(0.1)) == "Constant(alpha=0.1)"
        assert repr(InverseTime(10.0, 250.0)) == "InverseTime(numerator=10.0, offset=250.0)"
        assert (repr(PiecewiseConstant(((100, 0.01), (math.inf, 0.001))))
                == "PiecewiseConstant(pieces=((100.0, 0.01), (inf, 0.001)))")

    @pytest.mark.parametrize("sched, name", [
        (Constant(0.1), "alpha"),
        (InverseTime(10.0, 250.0), "offset"),
        (PiecewiseConstant(((math.inf, 0.1),)), "pieces"),
    ])
    def test_immutable(self, sched, name):
        with pytest.raises(AttributeError):
            setattr(sched, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(sched, name)
        with pytest.raises(AttributeError):
            sched.extra = 1.0
        assert getattr(sched, name) != 1.0

    @pytest.mark.parametrize("sched", [
        Constant(0.1),
        InverseTime(10.0, 250.0),
        PiecewiseConstant(((100.0, 1e-2), (math.inf, 1e-3))),
    ])
    def test_pickle_and_copy_round_trip(self, sched):
        """The process pool pickles each config's schedule."""
        for back in (pickle.loads(pickle.dumps(sched)), copy.copy(sched),
                     copy.deepcopy(sched)):
            assert type(back) is type(sched) and back == sched


def _same_rates(sched, first, count):
    """``rates(first, count)`` against ``rate`` at each of the steps, as the
    float64 bits that the learner's rate table holds."""
    got = np.asarray(sched.rates(first, count), dtype=float)
    want = np.array([sched.rate(t) for t in range(first, first + count)], dtype=float)
    return got.shape == (count,) and got.tobytes() == want.tobytes()


# steps of a run from the start, near a chunk edge and near 1e7
firsts = st.one_of(st.integers(1, 2100), st.integers(10**7 - 2100, 10**7 + 2100))


class TestRates:
    """A chunk's rates from one call equal the per-step rates bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-300, 1e308), firsts, st.integers(1, 1100))
    def test_constant(self, alpha, first, count):
        assert _same_rates(Constant(alpha), first, count)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-300, 1e308),
           st.one_of(st.floats(1e-300, 1e308), st.sampled_from([250.0, 1e16, 1e300, 1e308])),
           firsts, st.integers(1, 1100))
    def test_inverse_time(self, numerator, offset, first, count):
        assert _same_rates(InverseTime(numerator, offset), first, count)

    @pytest.mark.parametrize("first, count", [
        (1, 1024), (1023, 3), (1024, 1), (1025, 1024), (2040, 20), (3000, 7)])
    def test_piecewise_constant_across_chunk_edges(self, first, count):
        sched = PiecewiseConstant(((1024.0, 3e-2), (1025.0, 2e-2), (2048.0, 1e-2),
                                   (math.inf, 1e-3)))
        assert _same_rates(sched, first, count)
        assert _same_rates(PiecewiseConstant(((math.inf, 0.1),)), first, count)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-5, 2200), st.floats(-5.0, 2200.0)),
                    min_size=1, max_size=6, unique=True),
           st.booleans(), st.integers(1, 2100), st.integers(1, 1100), st.data())
    def test_piecewise_constant(self, thresholds, inf_tail, first, count, data_):
        # integer and fractional thresholds on and beside the steps of the
        # run, before it and after it, with or without an inf tail
        thresholds = sorted({float(t) for t in thresholds}) + [math.inf] * inf_tail
        alphas = data_.draw(st.lists(st.floats(1e-300, 1e308), min_size=len(thresholds),
                                     max_size=len(thresholds)))
        assert _same_rates(PiecewiseConstant(zip(thresholds, alphas)), first, count)


class TestPresets:
    def test_small_problem_constants(self):
        pre = data.small_problem()
        assert (pre.n, pre.k) == (10, 3)
        assert np.array_equal(pre.lam, [1.0, 0.85, 0.7])
        assert np.array_equal(pre.spectrum[:3], [1.0, 0.75, 0.5])
        assert (pre.spectrum[3:] == 0.2).all()
        assert pre.tau == {Task.PSP: 0.5, Task.PSW: 1.0}
        assert pre.m_init == {Task.PSP: 1.0, Task.PSW: 0.3}
        assert pre.w_init_std == pytest.approx(1.0 / math.sqrt(10))
        assert pre.offline_schedule == Constant(0.1)
        assert pre.online_schedule[Task.PSP] == InverseTime(10.0, 250.0)

    def test_large_problem_constants(self):
        pre = data.large_problem()
        assert (pre.n, pre.k) == (100, 10)
        assert pre.spectrum[0] == 1.0
        assert pre.spectrum[9] == pytest.approx(0.5)
        assert (pre.spectrum[10:] == 0.02).all()
        assert pre.lam[0] == 1.0
        assert pre.lam[9] == pytest.approx(0.7)
        assert pre.online_schedule[Task.PSW] == Constant(1e-3)
        psp_sched = pre.online_schedule[Task.PSP]
        assert psp_sched.rate(10000) == 1.1e-3
        assert psp_sched.rate(10001) == 1.0e-4

    def test_schedule_dispatch(self):
        pre = data.small_problem()
        assert pre.schedule(Task.PSP, "offline") == Constant(0.1)
        assert pre.schedule(Task.PSP, "online") == InverseTime(10.0, 250.0)


class TestDatasetIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "xs.csv"
        xs = np.random.default_rng(9).normal(size=(10, 4))
        data.write_dataset(path, xs)
        back = data.read_dataset(path)
        assert np.array_equal(back, xs)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MalformedRowError) as err:
            data.read_dataset(path)
        assert err.value.line == 1

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(MalformedRowError) as err:
            data.read_dataset(path)
        assert err.value.line == 2

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,oops\n")
        with pytest.raises(MalformedRowError) as err:
            data.read_dataset(path)
        assert err.value.line == 1

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1.0,2.0\n1.0,inf\n")
        with pytest.raises(MalformedRowError) as err:
            data.read_dataset(path)
        assert err.value.line == 2

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            data.write_dataset(tmp_path / "x.csv", np.zeros((0, 3)))

    def test_write_rejects_nonfinite(self, tmp_path):
        xs = np.ones((2, 2))
        xs[0, 0] = np.inf
        with pytest.raises(ValueError):
            data.write_dataset(tmp_path / "x.csv", xs)
