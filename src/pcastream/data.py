"""Synthetic Gaussian data with rotated diagonal covariances.

Inputs are drawn from N(0, G) with G = R diag(spectrum) R^T, where R is
a uniformly random orthogonal matrix. Also provides the named problem
presets used by the experiment harness, learning-rate schedules, and a
plain-text dataset format (one comma-separated vector per line).
"""

import math
from dataclasses import dataclass, field

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


@dataclass
class CovarianceSpec:
    """Population covariance G = rotation @ diag(spectrum) @ rotation.T."""

    n: int
    rotation: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.spectrum = np.asarray(self.spectrum, dtype=float)
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


def sample(spec, rng):
    """One draw from N(0, G): a block of one."""
    return sample_block(spec, rng, 1)[0]


def sample_block(spec, rng, count):
    """``count`` consecutive draws as rows.

    Consumes the same underlying normal draws as ``count`` calls to
    :func:`sample`; entries agree with those up to the rounding of the
    batched matrix product.
    """
    z = rng.generator.standard_normal((count, spec.n))
    return (z * np.sqrt(spec.spectrum)[None, :]) @ spec.rotation.T


class StepSchedule:
    """Learning rate as a function of the 1-based iteration index."""

    def rate(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(StepSchedule):
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def rate(self, t):
        return self.alpha


@dataclass(frozen=True)
class InverseTime(StepSchedule):
    """rate(t) = numerator / (offset + t)."""

    numerator: float
    offset: float

    def __post_init__(self):
        if self.numerator <= 0 or self.offset <= 0:
            raise ValueError("numerator and offset must be positive")

    def rate(self, t):
        return self.numerator / (self.offset + t)


@dataclass(frozen=True)
class PiecewiseConstant(StepSchedule):
    """rate(t) = alpha_i for the first threshold with t <= t_i.

    ``pieces`` is a sequence of (threshold, alpha); the final threshold
    may be ``math.inf`` to cover the tail.
    """

    pieces: tuple

    def __post_init__(self):
        pieces = tuple((float(t), float(a)) for t, a in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise ValueError("pieces must be nonempty")
        thresholds = [t for t, _ in pieces]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(a <= 0 for _, a in pieces):
            raise ValueError("rates must be positive")

    def rate(self, t):
        for threshold, alpha in self.pieces:
            if t <= threshold:
                return alpha
        return self.pieces[-1][1]


@dataclass
class ProblemPreset:
    """Named problem: covariance spectrum plus all learner settings.

    The rotation of the covariance is not part of the preset; it is drawn
    per trial (or once, if a fixed rotation is requested).
    """

    name: str
    n: int
    k: int
    spectrum: np.ndarray
    lam: np.ndarray
    tau: dict            # Task -> float
    m_init: dict         # Task -> scale of the identity initialization
    w_init_std: float
    online_schedule: dict  # Task -> StepSchedule
    offline_schedule: StepSchedule = field(default_factory=lambda: Constant(0.1))

    def covariance_spec(self, rotation):
        return CovarianceSpec(self.n, rotation, self.spectrum)

    def draw_covariance(self, rng):
        return self.covariance_spec(haar_orthogonal(self.n, rng))

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
