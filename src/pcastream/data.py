"""Synthetic Gaussian data with rotated diagonal covariances.

Inputs are drawn from N(0, G) with G = R diag(spectrum) R^T, where R is
a uniformly random orthogonal matrix. Also provides the named problem
presets used by the experiment harness, learning-rate schedules, and a
plain-text dataset format (one comma-separated vector per line).
"""

import math

import numpy as np

from . import linalg
from .errors import MalformedRowError, RankDeficientError
from .model import Task

# Reserved stream ids; per-trial streams use the trial index directly.
FIXED_ROTATION_STREAM = 2**32
DATAGEN_STREAM = 2**32 + 1


class RngStream:
    """Counter-based random stream addressed by (seed, stream id).

    Streams are backed by Philox keyed through numpy's SeedSequence with
    the stream id as spawn key, so distinct ids give independent,
    non-overlapping sequences and the same (seed, stream) pair always
    replays the same draws. Bit-exact reproducibility is promised within
    one implementation only. An instance is stateful: concurrent trials
    must each own their own (seed, stream) pair, never share one.
    """

    __slots__ = ("seed", "stream", "_gen")

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = None

    @property
    def generator(self):
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


class CovarianceSpec:
    """Population covariance G = rotation @ diag(spectrum) @ rotation.T."""

    __slots__ = ("n", "rotation", "spectrum")

    def __init__(self, n, rotation, spectrum):
        self.n = n
        self.rotation = np.asarray(rotation, dtype=float)
        self.spectrum = np.asarray(spectrum, dtype=float)
        if self.rotation.shape != (self.n, self.n) or self.spectrum.shape != (self.n,):
            raise ValueError("rotation/spectrum shapes do not match n")
        if not linalg.is_orthonormal(self.rotation):
            raise ValueError("rotation is not orthogonal within 1e-10")
        if not linalg.is_positive_nonincreasing(self.spectrum):
            raise ValueError("spectrum must be positive and nonincreasing")


def haar_orthogonal(n, rng):
    """Uniformly (Haar) distributed n x n orthogonal matrix.

    QR of a standard Gaussian matrix, with the R-diagonal forced
    nonnegative; without that sign convention the distribution would be
    biased. Redraws on the measure-zero rank-deficient event.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = rng.generator
    while True:
        z = gen.standard_normal((n, n))
        try:
            q, _ = linalg.qr(z)
        except RankDeficientError:
            continue
        return q


def build_covariance(spec):
    """Dense covariance matrix for a CovarianceSpec, exactly symmetric."""
    g = (spec.rotation * spec.spectrum[None, :]) @ spec.rotation.T
    return 0.5 * (g + g.T)


def sample_block(spec, rng, count):
    """``count`` consecutive draws from N(0, G), as rows.

    Consumes the same underlying normal draws as ``count`` blocks of one;
    entries agree with those up to the rounding of the batched matrix
    product.
    """
    z = rng.generator.standard_normal((count, spec.n))
    return (z * np.sqrt(spec.spectrum)[None, :]) @ spec.rotation.T


class StepSchedule:
    """Learning rate as a function of the 1-based iteration index.

    A schedule is an immutable value: schedules of one type with equal
    fields are equal and hash alike, and the repr names the fields, as in
    ``Constant(alpha=0.1)``. A subclass lists its fields in ``__slots__``
    and sets each once, in ``__init__``, by ``object.__setattr__``, and
    may vectorize ``rates(first, count)``, ``rate`` at count steps from first.
    """

    __slots__ = ()

    def rate(self, t):
        raise NotImplementedError

    def rates(self, first, count):
        return [self.rate(t) for t in range(first, first + count)]

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickling rebuilds through __init__
        return type(self), self._fields()


def _positive_float(x, message):
    """float(x) if x and its float are positive and finite, else
    ``ValueError(message)``: an int beyond the float range fails here."""
    try:
        if linalg.is_positive_finite(x) and linalg.is_positive_finite(float(x)):
            return float(x)
    except OverflowError:
        pass
    raise ValueError(message)


class Constant(StepSchedule):
    __slots__ = ("alpha",)

    def __init__(self, alpha):
        alpha = _positive_float(alpha, "alpha must be positive and finite")
        object.__setattr__(self, "alpha", alpha)

    def rate(self, t):
        return self.alpha

    def rates(self, first, count):
        return np.full(count, self.alpha, dtype=float)


class InverseTime(StepSchedule):
    """rate(t) = numerator / (offset + t)."""

    __slots__ = ("numerator", "offset")

    def __init__(self, numerator, offset):
        message = "numerator and offset must be positive and finite"
        object.__setattr__(self, "numerator", _positive_float(numerator, message))
        object.__setattr__(self, "offset", _positive_float(offset, message))

    def rate(self, t):
        return self.numerator / (self.offset + t)

    def rates(self, first, count):  # t converts exactly below 2**53
        return self.numerator / (self.offset + np.arange(first, first + count, dtype=float))


class PiecewiseConstant(StepSchedule):
    """rate(t) = alpha_i for the first threshold with t <= t_i.

    ``pieces`` is a sequence of (threshold, alpha); the final threshold
    may be ``math.inf`` to cover the tail. Every rate is positive and
    finite.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("pieces must be nonempty")
        try:
            bounds = [-math.inf] + [float(t) for t, _ in pieces]  # NaN fails each comparison
        except OverflowError:
            raise ValueError("thresholds must lie within the float range") from None
        if not all(a < b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("thresholds must be strictly increasing, above -inf")
        rates = [_positive_float(a, "rates must be positive and finite") for _, a in pieces]
        object.__setattr__(self, "pieces", tuple(zip(bounds[1:], rates)))

    def rate(self, t):
        for threshold, alpha in self.pieces:
            if t <= threshold:
                return alpha
        return self.pieces[-1][1]

    def rates(self, first, count):  # the first threshold >= t, past the last: the last
        thresholds, alphas = np.array(self.pieces).T
        t = np.arange(first, first + count, dtype=float)  # exact below 2**53
        return alphas[np.searchsorted(thresholds, t).clip(max=len(alphas) - 1)]


class ProblemPreset:
    """Named problem: covariance spectrum plus all learner settings.

    The rotation of the covariance is not part of the preset; it is drawn
    per trial (or once, if a fixed rotation is requested). ``tau`` and
    ``m_init`` (the scale of the identity initialization) map each Task to
    a float, ``online_schedule`` each Task to a StepSchedule.
    """

    __slots__ = ("name", "n", "k", "spectrum", "lam", "tau", "m_init",
                 "w_init_std", "online_schedule", "offline_schedule")

    def __init__(self, name, n, k, spectrum, lam, tau, m_init, w_init_std,
                 online_schedule, offline_schedule=Constant(0.1)):
        self.name = name
        self.n = n
        self.k = k
        self.spectrum = spectrum
        self.lam = lam
        self.tau = tau
        self.m_init = m_init
        self.w_init_std = w_init_std
        self.online_schedule = online_schedule
        self.offline_schedule = offline_schedule  # a schedule is immutable: shared safely

    def draw_covariance(self, rng):
        return CovarianceSpec(self.n, haar_orthogonal(self.n, rng), self.spectrum)

    def schedule(self, task, mode):
        return self.online_schedule[task] if mode == "online" else self.offline_schedule


def small_problem():
    """The 10-dimensional, 3-component benchmark problem."""
    spectrum = np.full(10, 0.2)
    spectrum[:3] = (1.0, 0.75, 0.5)
    return ProblemPreset(
        name="small",
        n=10,
        k=3,
        spectrum=spectrum,
        lam=np.array([1.0, 0.85, 0.7]),
        tau={Task.PSP: 0.5, Task.PSW: 1.0},
        m_init={Task.PSP: 1.0, Task.PSW: 0.3},
        w_init_std=1.0 / math.sqrt(10),
        online_schedule={Task.PSP: InverseTime(10.0, 250.0),
                         Task.PSW: InverseTime(10.0, 250.0)},
    )


def large_problem():
    """The 100-dimensional, 10-component benchmark problem."""
    k = 10
    spectrum = np.full(100, 0.02)
    spectrum[:k] = 1.0 - np.arange(k) / (2.0 * (k - 1))
    lam = 1.0 - 3.0 * np.arange(k) / (10.0 * (k - 1))
    return ProblemPreset(
        name="large",
        n=100,
        k=k,
        spectrum=spectrum,
        lam=lam,
        tau={Task.PSP: 0.5, Task.PSW: 1.0},
        m_init={Task.PSP: 1.0, Task.PSW: 0.3},
        w_init_std=1.0 / math.sqrt(100),
        online_schedule={
            Task.PSP: PiecewiseConstant(((10000.0, 1.1e-3), (math.inf, 1.0e-4))),
            Task.PSW: Constant(1.0e-3),
        },
    )


PRESETS = {"small": small_problem, "large": large_problem}


def write_dataset(path, samples):
    """Write row vectors as comma-separated text, 17 significant digits."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("samples must be a nonempty 2-d array")
    linalg.check_finite(samples, "samples")
    with open(path, "w", encoding="utf-8") as fh:
        for row in samples:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def read_dataset(path):
    """Read a dataset written by write_dataset; strict about row shape."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                raise MalformedRowError(lineno, "empty row")
            try:
                row = [float(tok) for tok in text.split(",")]
            except ValueError as exc:
                raise MalformedRowError(lineno, str(exc)) from None
            if not all(math.isfinite(v) for v in row):
                raise MalformedRowError(lineno, "non-finite entry")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise MalformedRowError(
                    lineno, f"expected {width} fields, got {len(row)}")
            rows.append(row)
    if not rows:
        raise MalformedRowError(1, "empty file")
    return np.asarray(rows, dtype=float)
