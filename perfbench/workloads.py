"""The benchmark's workloads, their inputs and the correctness gate.

A workload is a fixed *round* of work, repeated with fresh inputs until
the run's time is up. A round is one experiment per task/variant pair
for each of the workload's batteries, as ``pcastream run`` would get
them, plus (on ``offline-certify``) fixed-point and stability
certification of small-preset covariances. Round ``r`` of a run with
seed ``s`` derives every experiment seed and covariance from ``(s, r)``
alone, so the same seed gives the same inputs.

An operation is one trial or one certification instance. It fails if it
diverges, raises, or falls outside the gate: the acceptance bands of
``tests/test_acceptance.py`` and the reference medians recorded at the
seed commit in ``reference.json``.
"""

import json
import math
import os
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from pcastream import data, harness, offline
from pcastream.data import RngStream
from pcastream.model import Task, Variant

PAIRS = tuple((task, variant) for task in Task for variant in Variant)
ITERATION_FREE_PAIRS = tuple(p for p in PAIRS if p[1] is Variant.ITERATION_FREE)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# A pooled median may sit this many standard errors from its reference.
# The standard error of the median of n log-normal draws with log-sd s
# is about 1.2533 s / sqrt(n); at 5 standard errors an unchanged program
# misses with probability below 1e-6 per check, while a learner that
# lost accuracy (or stopped learning) misses by orders of magnitude.
REFERENCE_SIGMAS = 5.0
# Rounding-level stream shifts (another BLAS, a rewritten kernel) move
# deterministic offline medians by far less than this relative amount.
REFERENCE_MIN_TOL = math.log(1.1)
# Errors below this are at the rounding floor, where medians carry no
# accuracy signal; the acceptance bands still apply there.
ROUNDING_FLOOR = 1e-18

RESIDUAL_BAND = 1e-10        # criterion 6
SIGN_MARGIN = 1e-6           # criterion 7
PARITY_BAND = (0.05, 20.0)   # criterion 4
PERMUTED_ORDER = (1, 0, 2)   # criterion 7's mismatched eigenpair order

PROBE_STEPS = 700
# Median machine_probe() time on the reference machine (2-core Xeon,
# Python 3.11.7, numpy 2.4.6, one BLAS thread).
PROBE_REF_S = 0.024


def pair_name(pair):
    task, variant = pair
    return f"{task.value}/{variant.value}"


def derive_seed(*path):
    """A 32-bit experiment seed determined by the integers in ``path``."""
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def tag(text):
    """A stable integer for a name, to mix into derived seeds."""
    return zlib.crc32(text.encode())


@dataclass(frozen=True)
class Battery:
    """One experiment per pair per round."""

    key: str
    preset: str
    mode: str
    pairs: tuple
    trials: int
    t_max: int
    checkpoints: tuple

    def config_text(self, pair, seed):
        task, variant = pair
        return json.dumps({
            "preset": self.preset, "task": task.value,
            "variant": variant.value, "mode": self.mode,
            "trials": self.trials, "seed": seed, "t_max": self.t_max,
            "checkpoints": list(self.checkpoints), "workers": 1,
        })

    def shape(self):
        """What the per-trial error distribution depends on."""
        return {"preset": self.preset, "mode": self.mode,
                "t_max": self.t_max, "checkpoints": list(self.checkpoints)}


@dataclass(frozen=True)
class Certification:
    """Criterion 6 and 7 shapes on small-preset covariances, per round."""

    fixed_point_covariances: int
    stability_covariances: int


@dataclass(frozen=True)
class Workload:
    name: str
    batteries: tuple
    certification: Certification = None


WORKLOADS = {
    # The paper's headline path: per-sample harness loop, forward and
    # plasticity. linalg and metrics run about once per trial.
    "stream-small": Workload("stream-small", (
        Battery("online-small", "small", "online", ITERATION_FREE_PAIRS,
                trials=2, t_max=10000, checkpoints=(10000,)),
    )),
    # Large preset: the exact pairs' LU solves, one 100x100 ground-truth
    # eigensolve per trial and dense checkpoint readouts dominate.
    "large-eval": Workload("large-eval", (
        Battery("online-large", "large", "online", PAIRS,
                trials=1, t_max=4000, checkpoints=tuple(range(400, 4001, 400))),
    )),
    # Averaged dynamics and certification: no samples, no plasticity;
    # neural_filter with a matrix right-hand side many times per iterate.
    # Certification is about a third of a round, so that a 0.2 bound on
    # updates_per_s sees a 2x slowdown of the fixed-point or stability code.
    "offline-certify": Workload("offline-certify", (
        Battery("offline-small", "small", "offline", PAIRS,
                trials=3, t_max=5000, checkpoints=(1000, 5000)),
        Battery("offline-large", "large", "offline", PAIRS,
                trials=1, t_max=5000, checkpoints=(1000, 5000)),
    ), Certification(fixed_point_covariances=200, stability_covariances=6)),
}

# Certification is timed (and rescaled by the machine probe) in chunks of
# this many covariances, about half a second each.
FIXED_POINT_CHUNK = 20
STABILITY_CHUNK = 3

_IFPSP = (Task.PSP, Variant.ITERATION_FREE)
_PSP = (Task.PSP, Variant.EXACT_INVERSE)
_IFPSW = (Task.PSW, Variant.ITERATION_FREE)
_PSW = (Task.PSW, Variant.EXACT_INVERSE)

# Acceptance bands of tests/test_acceptance.py on pooled medians, keyed
# by (battery, pair, checkpoint): criterion 3 at T=1e4 (its T=1e5 band
# needs ten times longer streams), criterion 1 and criterion 2.
BANDS = {
    ("online-small", _IFPSP, 10000): (1e-5, 5e-3),
    ("online-small", _IFPSW, 10000): (1e-3, 1e-1),
    ("offline-small", _IFPSP, 1000): (0.0, 1e-6),
    ("offline-small", _PSP, 1000): (0.0, 1e-6),
    ("offline-small", _IFPSW, 1000): (0.0, 1e-4),
    ("offline-small", _PSW, 1000): (0.0, 1e-4),
    **{("offline-small", p, 5000): (0.0, 1e-10) for p in PAIRS},
    ("offline-large", _IFPSP, 5000): (0.0, 1e-4),
    ("offline-large", _PSP, 5000): (0.0, 1e-6),
    ("offline-large", _IFPSW, 5000): (0.0, 5e-3),
    ("offline-large", _PSW, 5000): (0.0, 5e-3),
}
# Criterion 2 also asks the large offline medians to keep decreasing.
DECREASING = {"offline-large": (1000, 5000)}
# Criterion 4's variant parity, applied to online batteries with both variants.
PARITY = ("online-large",)


@dataclass
class RoundInputs:
    experiments: list     # (battery, pair, ExperimentConfig)
    covariances: list     # small-preset G for fixed-point certification
    stability: list       # small-preset G for stability certification


def build_round(workload, seed, round_index):
    """Parse every config and draw every covariance for one round."""
    experiments = []
    for battery in workload.batteries:
        for i, pair in enumerate(battery.pairs):
            exp_seed = derive_seed(seed, round_index, tag(battery.key), i)
            cfg = harness.parse_config(battery.config_text(pair, exp_seed))
            experiments.append((battery, pair, cfg))
    covariances, stability = [], []
    cert = workload.certification
    if cert is not None:
        preset = data.small_problem()
        cov_seed = derive_seed(seed, round_index, tag("certify"))
        count = cert.fixed_point_covariances + cert.stability_covariances
        gs = [data.build_covariance(preset.draw_covariance(RngStream(cov_seed, i)))
              for i in range(count)]
        covariances = gs[:cert.fixed_point_covariances]
        stability = gs[cert.fixed_point_covariances:]
    return RoundInputs(experiments, covariances, stability)


class RunRecord:
    """Outputs and failures pooled over a run's rounds."""

    def __init__(self):
        self.errors = defaultdict(list)     # (battery key, pair, t) -> e_pro
        self.trials = defaultdict(int)      # (battery key, pair) -> attempted
        self.failed = defaultdict(int)      # (battery key, pair) -> failed
        self.stability = defaultdict(list)  # pair -> (top, top permuted)
        self.cert_ops = 0
        self.cert_failed = 0
        self.misses = []                    # one line per failure
        self.round_s = []
        self.round_updates = []
        self.certify_s = []
        self.round_norm_s = []

    @property
    def attempted(self):
        return sum(self.trials.values()) + self.cert_ops

    @property
    def failed_ops(self):
        return sum(self.failed.values()) + self.cert_failed

    def fail_trials(self, key, count, message):
        self.failed[key] += count
        self.misses.append(f"{key[0]} {pair_name(key[1])}: {message}")

    def fail_cert(self, message):
        self.cert_failed += 1
        self.misses.append(f"certify: {message}")


def run_experiment(cfg):
    """The experiment's report, or the exception it raised."""
    try:
        return harness.run_experiment(cfg, workers=1)
    except Exception as exc:  # a raising experiment is a recorded failure
        return exc


def record_experiments(results, record):
    """Pool a round's reports into ``record``; returns learner updates done."""
    updates = 0
    for battery, pair, cfg, report in results:
        key = (battery.key, pair)
        record.trials[key] += cfg.trials
        if isinstance(report, Exception):
            record.fail_trials(key, cfg.trials, f"raised {report!r}")
            continue
        for out in report.trials:
            if out.status == "completed":
                updates += cfg.t_max
                for t, e in out.rows:
                    record.errors[(battery.key, pair, t)].append(e)
            else:
                updates += out.diverged_at or 0
                record.fail_trials(key, 1, f"trial {out.trial} (seed "
                                   f"{cfg.seed}) diverged at {out.diverged_at}")
    return updates


def certify_fixed_points(covariances, first, record):
    """Criterion 6 on covariances ``first``, ``first + 1``, ...; one op per (G, pair)."""
    lam = data.small_problem().lam
    for i, g in enumerate(covariances, first):
        for task, variant in PAIRS:
            record.cert_ops += 1
            try:
                fp = offline.construct_fixed_point(g, lam, task)
                residual = offline.fixed_point_residual(fp, g, task, variant)
            except Exception as exc:  # a raising instance is a recorded failure
                record.fail_cert(f"G{i} {pair_name((task, variant))} raised {exc!r}")
                continue
            if not residual < RESIDUAL_BAND:
                record.fail_cert(f"G{i} {pair_name((task, variant))} residual "
                                 f"{residual:.3g} >= {RESIDUAL_BAND:g}")


def certify_stability(covariances, first, record):
    """Criterion 7 on covariances ``first``, ``first + 1``, ...; one op per (G, pair)."""
    lam = data.small_problem().lam
    for i, g in enumerate(covariances, first):
        for task, variant in PAIRS:
            record.cert_ops += 1
            try:
                fp = offline.construct_fixed_point(g, lam, task)
                top = offline.jacobian_spectrum(fp, g, task, variant)[0]
                bad = offline.construct_fixed_point(g, lam, task, order=PERMUTED_ORDER)
                top_bad = offline.jacobian_spectrum(bad, g, task, variant)[0]
            except Exception as exc:  # a raising instance is a recorded failure
                record.fail_cert(f"S{i} {pair_name((task, variant))} raised {exc!r}")
                continue
            record.stability[(task, variant)].append((float(top), float(top_bad)))
            if not (top < -SIGN_MARGIN and top_bad > SIGN_MARGIN):
                record.fail_cert(f"S{i} {pair_name((task, variant))} max Re "
                                 f"{top:.3g}/{top_bad:+.3g} breaks the dichotomy")


def certification_chunks(inputs):
    """(function, covariances, index of the first) for each timed chunk."""
    for fn, gs, size in ((certify_fixed_points, inputs.covariances, FIXED_POINT_CHUNK),
                         (certify_stability, inputs.stability, STABILITY_CHUNK)):
        for lo in range(0, len(gs), size):
            yield fn, gs[lo:lo + size], lo


_probe_rng = np.random.default_rng(20181016)
_PROBE_W = _probe_rng.normal(size=(3, 10))
_PROBE_X = _probe_rng.normal(size=(PROBE_STEPS, 10))
_PROBE_V = _probe_rng.normal(size=(2, 100))
_PROBE_M = _probe_rng.normal(size=(10, 10)) + 10.0 * np.eye(10)
_PROBE_RHS = _probe_rng.normal(size=(10, 3))
_PROBE_REST = np.arange(1, 10)
_PROBE_OUT = np.empty((9, 3))


def machine_probe():
    """Seconds taken by a fixed mix of interpreter work and small numpy ops.

    The mix resembles the program's: K x N products and outer-product
    updates as in a learner step, plane rotations of 100-vectors as in a
    Jacobi sweep, and an elimination step of a pivoted solve with a
    matrix right-hand side (fancy-indexed rows, as in Jacobi and LU) as
    in the averaged dynamics. It calls nothing in the program, so only
    the machine's speed at that moment changes its time.
    """
    w = _PROBE_W.copy()
    m = 2.0 * np.eye(3)
    a, b = _PROBE_V
    start = time.perf_counter()
    for x in _PROBE_X:
        y = (w @ x) / m.diagonal()
        w += 1e-3 * (np.outer(y, x) - w)
        m += 1e-3 * (np.outer(y, y) - m)
        a, b = 0.6 * a - 0.8 * b, 0.8 * a + 0.6 * b
        pivot = int(np.argmax(np.abs(_PROBE_M[:, 0])))
        factors = _PROBE_M[_PROBE_REST, 0] / _PROBE_M[pivot, 0]
        np.subtract(_PROBE_RHS[_PROBE_REST], np.outer(factors, _PROBE_RHS[pivot]),
                    out=_PROBE_OUT)
    return time.perf_counter() - start


def run_round(workload, inputs, record):
    """Run and pool one round; returns its wall time, probes excluded.

    The machine probe runs before the first experiment and after every
    experiment and certification chunk. Each of those timed parts is
    also rescaled by PROBE_REF_S over the mean of the two probes around
    it, which cancels most of the machine's speed changes between and
    within runs.
    """
    probe = machine_probe()
    busy = normalized = certify_s = 0.0

    def timed(fn, *args):
        nonlocal probe, busy, normalized
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        after = machine_probe()
        busy += elapsed
        normalized += elapsed * PROBE_REF_S / (0.5 * (probe + after))
        probe = after
        return out, elapsed

    results = []
    for battery, pair, cfg in inputs.experiments:
        report, _ = timed(run_experiment, cfg)
        results.append((battery, pair, cfg, report))
    for fn, covariances, first in certification_chunks(inputs):
        _, elapsed = timed(fn, covariances, first, record)
        certify_s += elapsed
    record.round_updates.append(record_experiments(results, record))
    record.round_s.append(busy)
    record.round_norm_s.append(normalized)
    record.certify_s.append(certify_s)
    return busy


def normalized_updates_per_s(record):
    """Median over rounds of updates per second at the probe's reference speed."""
    return float(np.median([u / s for u, s in zip(record.round_updates,
                                                   record.round_norm_s)]))


def pooled_medians(record):
    """{(battery key, pair, t): median e_pro over the run's completed trials}."""
    return {key: float(np.median(es)) for key, es in record.errors.items() if es}


def load_reference(workload, path=REFERENCE_PATH):
    """Reference medians for the workload's batteries, checked for staleness."""
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    for battery in workload.batteries:
        entry = ref["batteries"].get(battery.key)
        if entry is not None and entry["shape"] != battery.shape():
            raise SystemExit(f"perfbench: reference for {battery.key} was recorded "
                             f"for {entry['shape']}, not {battery.shape()}; "
                             "rerun perfbench/calibrate.py at the seed commit")
    return ref


def gate(workload, record, reference):
    """Score pooled outputs against the bands and the references.

    A missed check on a pair fails every trial of that pair in the run.
    """
    medians = pooled_medians(record)
    for battery in workload.batteries:
        failed_pairs = {}
        for pair in battery.pairs:
            for t in battery.checkpoints:
                band = BANDS.get((battery.key, pair, t))
                med = medians.get((battery.key, pair, t))
                if band is None or med is None:
                    continue
                if not band[0] <= med <= band[1]:
                    failed_pairs[pair] = f"median e_pro {med:.3g} at T={t} outside {band}"
            if battery.key in DECREASING:
                t0, t1 = DECREASING[battery.key]
                m0, m1 = medians.get((battery.key, pair, t0)), medians.get((battery.key, pair, t1))
                if m0 is not None and m1 is not None and not m1 < m0:
                    failed_pairs[pair] = f"median e_pro not decreasing: {m0:.3g} -> {m1:.3g}"
            miss = _reference_miss(battery, pair, medians, record, reference)
            if miss:
                failed_pairs[pair] = miss
        if battery.key in PARITY:
            for task in Task:
                fi, fe = (task, Variant.ITERATION_FREE), (task, Variant.EXACT_INVERSE)
                mi = medians.get((battery.key, fi, battery.t_max))
                me = medians.get((battery.key, fe, battery.t_max))
                if mi is None or me is None:
                    continue
                ratio = mi / me
                if not PARITY_BAND[0] <= ratio <= PARITY_BAND[1]:
                    msg = f"variant parity {ratio:.3g} outside {PARITY_BAND}"
                    failed_pairs[fi] = failed_pairs[fe] = msg
        for pair, message in failed_pairs.items():
            key = (battery.key, pair)
            still_counted = record.trials[key] - record.failed[key]
            record.fail_trials(key, still_counted, message)
    for pair, tops in record.stability.items():
        ref = reference["stability"].get(pair_name(pair))
        if ref is None:
            continue
        for top, top_bad in tops:
            for value, want in ((top, ref["top"]), (top_bad, ref["top_permuted"])):
                if abs(value - want) > ref["tolerance"]:
                    record.fail_cert(f"{pair_name(pair)} max Re {value:.6g} is not "
                                     f"the reference {want:.6g} +- {ref['tolerance']:.1g}")
                    break


def _reference_miss(battery, pair, medians, record, reference):
    entry = reference["batteries"].get(battery.key)
    if entry is None or pair_name(pair) not in entry["pairs"]:
        return None
    ref = entry["pairs"][pair_name(pair)]
    errors = record.errors.get((battery.key, pair, ref["t"]), [])
    if not errors:
        return None
    med = medians[(battery.key, pair, ref["t"])]
    n = len(errors)
    tol = max(REFERENCE_MIN_TOL, REFERENCE_SIGMAS * 1.2533 * ref["log_sd"]
              * math.sqrt(1.0 / n + 1.0 / ref["n"]))
    if abs(math.log(max(med, 1e-300)) - math.log(ref["median"])) > tol:
        return (f"median e_pro {med:.3g} at T={ref['t']} over {n} trials is "
                f"not the reference {ref['median']:.3g} within x{math.exp(tol):.2f}")
    return None


def accuracy_digits(workload, record):
    """Decimal digits of the worst pair's pooled median final error.

    0 when some pair completed no trial (the gate has failed it already).
    """
    medians = pooled_medians(record)
    finals = [medians.get((b.key, p, b.t_max)) for b in workload.batteries for p in b.pairs]
    if None in finals:
        return 0.0
    return -math.log10(max(max(finals), 1e-300))
