"""Configuration-driven experiment runner.

A single JSON config describes one experiment: task (projection or
whitening) x variant (iteration-free or exact inverse) x mode (online
sampling or offline averaged dynamics), plus problem preset, trial
count, seed, horizon and checkpoints. Each trial gets its own random
stream derived from (seed, trial index), so results do not depend on
execution order or worker count, and the run is reproducible bit for
bit (wall-clock fields aside) within one implementation.

The trials that one process runs advance together as a stack of
learners through ``model.advance``, which steps their raw weights along
the online increment on a sample per trial, or the averaged one on each
trial's covariance. Each learner's arithmetic is the same in any stack,
so which trials share a stack (one per worker process) does not change
any result either.
"""

import json
import math
import os
import time
from functools import partial
from itertools import groupby, repeat
from typing import NamedTuple

import numpy as np

from . import data, linalg, metrics, model, offline
from .data import (
    Constant,
    CovarianceSpec,
    FIXED_ROTATION_STREAM,
    InverseTime,
    PiecewiseConstant,
    PRESETS,
    RngStream,
)
from .errors import (
    MODEL_ERRORS,
    ConfigParseError,
    ConfigValidationError,
    NonFiniteReadoutError,
    ReportFormatError,
)
from .model import ModelState, Task, Variant, advance
from .model import online_step  # noqa: F401  (the name perfbench/tracing.py binds)

_KNOWN_KEYS = {
    "task", "variant", "mode", "preset", "n", "k", "lambda", "tau",
    "schedule", "spectrum", "m_init", "w_init_std", "t_max", "checkpoints",
    "trials", "seed", "fixed_rotation", "workers", "output_path",
}
_DEFAULT_T_MAX = {"online": 10000, "offline": 1000}


class ExperimentConfig:
    """Fully resolved experiment description (preset constants expanded)."""

    __slots__ = ("task", "variant", "mode", "preset", "n", "k", "lam", "tau",
                 "schedule", "spectrum", "m_init", "w_init_std", "t_max",
                 "checkpoints", "trials", "seed", "fixed_rotation", "workers",
                 "output_path")

    def __init__(self, task, variant, mode, preset, n, k, lam, tau, schedule,
                 spectrum, m_init, w_init_std, t_max, checkpoints, trials, seed,
                 fixed_rotation=False, workers=1, output_path=None):
        self.task = task
        self.variant = variant
        self.mode = mode
        self.preset = preset
        self.n = n
        self.k = k
        self.lam = lam
        self.tau = tau
        self.schedule = schedule
        self.spectrum = spectrum
        self.m_init = m_init
        self.w_init_std = w_init_std
        self.t_max = t_max
        self.checkpoints = checkpoints
        self.trials = trials
        self.seed = seed
        self.fixed_rotation = fixed_rotation
        self.workers = workers
        self.output_path = output_path

    def eval_points(self):
        return tuple(sorted(set(self.checkpoints) | {self.t_max}))

    def to_json_dict(self):
        return {
            "task": self.task.value,
            "variant": self.variant.value,
            "mode": self.mode,
            "preset": self.preset,
            "n": self.n,
            "k": self.k,
            "lambda": list(self.lam),
            "tau": self.tau,
            "schedule": _schedule_to_json(self.schedule),
            "spectrum": list(self.spectrum),
            "m_init": self.m_init,
            "w_init_std": self.w_init_std,
            "t_max": self.t_max,
            "checkpoints": list(self.checkpoints),
            "trials": self.trials,
            "seed": self.seed,
            "fixed_rotation": self.fixed_rotation,
            "workers": self.workers,
            "output_path": self.output_path,
        }


class EvalPoint(NamedTuple):
    """One trial's readout at one evaluation point: the Procrustes error
    and the off-diagonal ratio and floor margin of M (``None`` in reports
    written before those diagnostics existed)."""

    t: int
    e_pro: float
    offdiag_ratio: float = None
    floor_margin: float = None


class TrialOutcome:
    """One trial's result: its status, "completed" or "diverged"; the
    EvalPoints of a completed trial (a fresh list unless ``points`` is
    given); and the iteration and model error that ended a diverged one."""

    __slots__ = ("trial", "status", "points", "diverged_at", "wall_clock_s", "cause")

    def __init__(self, trial, status, points=None, diverged_at=None,
                 wall_clock_s=0.0, cause=None):
        self.trial = trial
        self.status = status
        self.points = [] if points is None else points
        self.diverged_at = diverged_at
        self.wall_clock_s = wall_clock_s
        self.cause = cause

    @property
    def rows(self):
        """The (t, e_pro) pairs of the points."""
        return [(p.t, p.e_pro) for p in self.points]


_TRIAL_KEYS = ("trial", "status", "diverged_at", "cause", "wall_clock_s")


class SummaryReport:
    """Experiment result: the config and each trial's outcome (TrialOutcome,
    by trial index).

    The rows ((t, trial, e_pro), sorted), the medians (t -> median e_pro
    over completed trials) and the diverged count are derived from the
    trials at construction, so they cannot disagree with them.
    """

    __slots__ = ("config", "trials", "rows", "medians", "diverged", "_points")

    def __init__(self, config, trials):
        self.config = config
        self.trials = trials
        done = [o for o in self.trials if o.status == "completed"]
        # (trial, point) of every completed trial, by (t, trial)
        self._points = sorted(((o.trial, p) for o in done for p in o.points),
                              key=lambda r: (r[1].t, r[0]))
        self.rows = [(p.t, trial, p.e_pro) for trial, p in self._points]
        self.medians = {t: float(np.median([e for _, _, e in group]))
                        for t, group in groupby(self.rows, key=lambda r: r[0])}
        self.diverged = len(self.trials) - len(done)

    def comparable(self):
        """The JSON form without each trial's wall-clock time: what two runs
        of one (config, seed) must agree on."""
        obj = self.to_json_dict()
        for trial in obj["trials"]:
            del trial["wall_clock_s"]
        return obj

    def to_json_dict(self):
        return {
            "config": self.config.to_json_dict(),
            # t and the trial, then the fields of the point that are present
            "rows": [{"t": p.t, "trial": trial, **{
                key: value for key, value in p._asdict().items() if value is not None}}
                for trial, p in self._points],
            "medians": [
                {"t": t, "e_pro": e} for t, e in sorted(self.medians.items())
            ],
            "trials": [{key: getattr(o, key) for key in _TRIAL_KEYS}
                       for o in self.trials],
            "diverged": self.diverged,
        }


def _schedule_to_json(schedule):
    if isinstance(schedule, Constant):
        return {"kind": "constant", "alpha": schedule.alpha}
    if isinstance(schedule, InverseTime):
        return {"kind": "inverse_time", "numerator": schedule.numerator,
                "offset": schedule.offset}
    if isinstance(schedule, PiecewiseConstant):
        pieces = [[None if math.isinf(t) else t, a] for t, a in schedule.pieces]
        return {"kind": "piecewise", "pieces": pieces}
    raise ConfigValidationError(f"unserializable schedule {schedule!r}")


_COERCION_ERRORS = (TypeError, ValueError, OverflowError)


def _number(value):
    """A finite JSON number, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{value!r} is not finite")
    return out


_SCHEDULE_KEYS = {"constant": {"alpha"}, "inverse_time": {"numerator", "offset"},
                  "piecewise": {"pieces"}}


def _schedule_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigValidationError("schedule must be an object with a 'kind'")
    kind = obj["kind"]
    _require(isinstance(kind, str) and kind in _SCHEDULE_KEYS,
             f"unknown schedule kind '{kind}'")
    unknown = sorted(obj.keys() - _SCHEDULE_KEYS[kind] - {"kind"})
    _require(not unknown, f"unknown schedule keys: {unknown}")
    try:
        if kind == "constant":
            return Constant(_number(obj["alpha"]))
        if kind == "inverse_time":
            return InverseTime(_number(obj["numerator"]), _number(obj["offset"]))
        return PiecewiseConstant(tuple(  # a null threshold is the open tail
            (math.inf if t is None else _number(t), _number(a))
            for t, a in obj["pieces"]))
    except (KeyError, *_COERCION_ERRORS) as exc:
        raise ConfigValidationError(f"bad schedule: {exc}") from exc


def _require(condition, message):
    if not condition:
        raise ConfigValidationError(message)


def _numbers(value):
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return np.array([_number(v) for v in value], dtype=float)


def _int(value):
    """A JSON number with no fractional part, as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _ints(value):
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(_int(t) for t in value)


def _bool(value):
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _choice(*options):
    def choose(value):
        if value not in options:
            raise ValueError(f"expected {'|'.join(options)}")
        return value
    return choose


def _coerce(raw, key, convert, default=None):
    """``convert`` applied to ``raw[key]`` (``default`` when absent).

    Every config value of a fixed type passes through here, so that a
    value of the wrong type surfaces as a validation error naming its
    key, never a bare ValueError or TypeError.
    """
    value = raw.get(key, default)
    try:
        return convert(value)
    except _COERCION_ERRORS as exc:
        raise ConfigValidationError(
            f"bad value for '{key}': {value!r} ({exc})") from exc


def _decode(raw):
    """The config that the JSON object ``raw`` describes, under every rule
    of ``parse_config``; each key has one conversion and one set of rules,
    whatever the preset."""
    for req in ("task", "variant", "mode", "preset"):
        _require(req in raw, f"missing required key '{req}'")
    task = Task(_coerce(raw, "task", _choice("psp", "psw")))
    variant = Variant(_coerce(raw, "variant", _choice("iteration_free", "exact")))
    mode = _coerce(raw, "mode", _choice("online", "offline"))
    preset = _coerce(raw, "preset", _choice("small", "large", "custom"))
    fixed = {}
    if preset in PRESETS:  # the JSON values of the keys the preset fixes
        p = PRESETS[preset]()
        fixed = {"n": p.n, "k": p.k, "lambda": p.lam.tolist(), "tau": p.tau[task],
                 "schedule": _schedule_to_json(p.schedule(task, mode)),
                 "spectrum": p.spectrum.tolist(), "m_init": p.m_init[task],
                 "w_init_std": p.w_init_std}
    # a restated value is itself converted below, under the same type rules
    clash = sorted(key for key, value in fixed.items()
                   if raw.get(key, value) != value)
    _require(not clash, f"keys fixed by preset '{preset}': {clash}")
    raw = {**fixed, **raw}
    missing = {"n", "k", "lambda", "tau", "schedule", "spectrum"} - raw.keys()
    _require(not missing, f"custom preset requires keys: {sorted(missing)}")

    n = _coerce(raw, "n", _int)
    k = _coerce(raw, "k", _int)
    lam = _coerce(raw, "lambda", _numbers)
    spectrum = _coerce(raw, "spectrum", _numbers)
    tau = _coerce(raw, "tau", _number)
    schedule = _schedule_from_json(raw["schedule"])
    m_init = _coerce(raw, "m_init", _number, 1.0)
    _require(1 <= k < n, "require 1 <= k < n")
    _require(lam.shape == (k,), "lambda must have length k")
    _require(spectrum.shape == (n,), "spectrum must have length n")
    # after the length rules, which reject an n too large for math.sqrt
    w_init_std = _coerce(raw, "w_init_std", _number, 1.0 / math.sqrt(n))
    _require(linalg.is_positive_decreasing(lam),
             "lambda must be strictly decreasing and positive")
    # lam[0]**2, the largest entry of both lateral targets, must not overflow
    _require(math.isfinite(lam.item(0) * lam.item(0)),
             "lambda[0] squared must be finite")
    _require(linalg.is_positive_nonincreasing(spectrum),
             "spectrum must be positive and nonincreasing")
    # ground_truth needs a unique, ordered leading k-subspace
    _require(metrics.leading_separated(spectrum, k),
             f"leading k+1 spectrum values must differ by more than "
             f"{metrics.GAP_FLOOR:g}")
    _require(linalg.is_positive_finite(tau), "tau must be positive")
    # the initial M must pass ModelState's floor on its diagonal
    _require(m_init > model.DIAGONAL_FLOOR,
             f"m_init must be above {model.DIAGONAL_FLOOR:g}")
    _require(w_init_std > 0, "w_init_std must be positive")

    t_max = _coerce(raw, "t_max", _int, _DEFAULT_T_MAX[mode])
    _require(t_max >= 0, "t_max must be nonnegative")
    checkpoints = _coerce(raw, "checkpoints", _ints, [t_max] if t_max > 0 else [])
    bad = model.outside_horizon(checkpoints, t_max)
    _require(not bad, f"checkpoints outside [1, t_max]: {bad}")
    trials = _coerce(raw, "trials", _int, 1)
    _require(trials >= 1, "trials must be at least 1")
    seed = _coerce(raw, "seed", _int, 0)
    _require(seed >= 0, "seed must be nonnegative")
    workers = _coerce(raw, "workers", _int, 1)
    _require(workers >= 1, "workers must be at least 1")
    fixed_rotation = _coerce(raw, "fixed_rotation", _bool, False)
    output_path = raw.get("output_path")
    _require(output_path is None or isinstance(output_path, str),
             "output_path must be a string")

    return ExperimentConfig(
        task=task, variant=variant, mode=mode, preset=preset,
        n=n, k=k, lam=lam, tau=tau, schedule=schedule, spectrum=spectrum,
        m_init=m_init, w_init_std=w_init_std, t_max=t_max,
        checkpoints=checkpoints, trials=trials, seed=seed,
        fixed_rotation=fixed_rotation, workers=workers,
        output_path=output_path,
    )


def parse_config(text):
    """Parse and validate a JSON experiment config, as text or bytes.

    Unknown keys are rejected by name. A config may omit the keys its
    named preset fixes, or restate them with the preset's values only, so
    a report's config echo is a config; a custom config spells them out.
    """
    # JSONDecodeError is a ValueError, as are integers too long to read
    # and bytes that do not decode; nesting too deep for the decoder raises RecursionError
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError("config must be a JSON object")
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ConfigParseError(f"unknown key '{key}'")
    return _decode(raw)


def load_config(path):
    with open(path, "rb") as fh:
        return parse_config(fh.read())


def _initial_state(config, gen):
    w0 = gen.normal(0.0, config.w_init_std, size=(config.k, config.n))
    # a finite std can still draw a weight that overflows
    _require(linalg.all_finite(w0),
             f"w_init_std {config.w_init_std:g} draws infinite weights")
    m0 = config.m_init * np.eye(config.k)
    return ModelState(m0, w0, config.lam, config.tau)


class _Trial:
    """One trial's random stream, problem and outcome, in either mode.

    The stream provides, in order: the covariance rotation (unless a
    shared one is supplied), the W initialization, and the sample draws
    (online mode only). The covariance ``g`` is what an offline trial
    steps on; ``truth`` scores every checkpoint.
    """

    def __init__(self, config, index, rotation):
        self.config = config
        self.index = index
        self.rng = RngStream(config.seed, index)
        if rotation is None:
            rotation = data.haar_orthogonal(config.n, self.rng)
        self.spec = CovarianceSpec(config.n, rotation, config.spectrum)
        self.g = data.build_covariance(self.spec)
        self.truth = metrics.ground_truth(self.g, config.k)
        self.initial = _initial_state(config, self.rng.generator)
        self.outcome = TrialOutcome(index, "completed")

    def record(self, t, state):
        """Evaluate a snapshot at t; False if a model error, or a readout
        that is not finite, ended the trial."""
        cfg = self.config
        try:
            # finite weights too large to read out overflow here; the
            # finiteness tests name that, so it need not warn
            with np.errstate(over="ignore", invalid="ignore"):
                u_hat = metrics.estimate_subspace(state, cfg.task, cfg.variant,
                                                  self.truth.sigma_k)
                if not linalg.all_finite(u_hat):
                    raise NonFiniteReadoutError("filter is not finite")
                e_pro = metrics.procrustes_error(u_hat, self.truth.u_k)
            if not math.isfinite(e_pro):
                raise NonFiniteReadoutError("Procrustes error is not finite")
        except MODEL_ERRORS as exc:
            self.diverge(t, exc)
            return False
        self.outcome.points.append(
            EvalPoint(t, e_pro, *metrics.lateral_diagnostics(state.m)))
        return True

    def diverge(self, t, exc):
        """End the trial at t; a diverged trial keeps no rows."""
        self.outcome = TrialOutcome(self.index, "diverged", diverged_at=t,
                                    cause=f"{type(exc).__name__}: {exc}")


def _run_stack(config, indices, rotation=None):
    """Outcomes of the trials ``indices``, in order, stepped in lockstep
    by ``model.advance``: along the online increment on one sample per
    trial, drawn from the trial's own stream in the same chunks as when
    run alone, or along the averaged one on the trials' covariances.
    Every trial reports the stack's wall time."""
    start = time.perf_counter()
    trials = [_Trial(config, i, rotation) for i in indices]
    if config.mode == "online":
        def draw(live, count):  # row r holds every live trial's r-th draw
            return np.stack([data.sample_block(trials[p].spec, trials[p].rng, count)
                             for p in live], axis=1)

        increment = model.online_increment
    else:
        def draw(live, count):  # no samples: one row of covariances
            return np.stack([trials[p].g for p in live])[None]

        increment = offline.averaged_increment

    stack = ModelState.stack([trial.initial for trial in trials])
    advance(stack, config.t_max, set(config.eval_points()), config.schedule,
            partial(increment, config.variant,
                    model._Targets(stack.lam, stack.n, config.task)), draw,
            visit=lambda t, p, state: trials[p].record(t, state),
            diverge=lambda t, p, exc: trials[p].diverge(t, exc))
    wall_clock_s = time.perf_counter() - start
    for trial in trials:
        trial.outcome.wall_clock_s = wall_clock_s
    return [trial.outcome for trial in trials]


def trial_stacks(trials, workers):
    """Contiguous ranges of trial indices, one stack per worker.

    There are ``min(workers, trials)`` stacks, so no worker goes without
    a trial; one worker runs every trial in one stack. ``run_experiment``
    runs the stacks on at most ``os.cpu_count()`` processes.
    """
    count = min(workers, trials)
    bounds = [trials * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def run_experiment(config, workers=None):
    """Run all trials of an experiment and assemble the summary report.

    Diverged trials are recorded and excluded from the medians; they are
    not fatal. Trials are independent: the report is a pure function of
    (config, seed) regardless of worker count.
    """
    workers = config.workers if workers is None else workers
    rotation = None
    if config.fixed_rotation:
        rotation = data.haar_orthogonal(
            config.n, RngStream(config.seed, FIXED_ROTATION_STREAM))

    stacks = trial_stacks(config.trials, workers)
    if len(stacks) > 1:
        # loaded here, not at import: a single-stack run never needs it
        from concurrent.futures import ProcessPoolExecutor

        # the pool may start all its processes at once: no more than cores
        processes = min(len(stacks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_run_stack, repeat(config), stacks,
                                  repeat(rotation)))
    else:
        parts = [_run_stack(config, stacks[0], rotation)]
    return SummaryReport(config, [out for part in parts for out in part])


def _fmt(value):
    return f"{value:.17g}"


def emit_report(report, fmt, path):
    """Write a report as CSV (plus a median summary file) or JSON."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,trial,e_pro\n")
        for t, trial, e in report.rows:
            fh.write(f"{t},{trial},{_fmt(e)}\n")
    summary_path = _summary_path(path)
    completed = len(report.trials) - report.diverged
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("t,e_pro_median,completed_trials,diverged_trials\n")
        for t, e in sorted(report.medians.items()):
            fh.write(f"{t},{_fmt(e)},{completed},{report.diverged}\n")


def _summary_path(path):
    path = str(path)
    if path.endswith(".csv"):
        return path[:-4] + "_summary.csv"
    return path + "_summary.csv"


def config_from_json_dict(obj):
    """The config of a report's echo: every key present, every rule kept."""
    keys = set(obj) if isinstance(obj, dict) else set()
    _require(keys == _KNOWN_KEYS,
             f"config echo keys: missing {sorted(_KNOWN_KEYS - keys)}, "
             f"unknown {sorted(keys - _KNOWN_KEYS)}")
    return _decode(obj)


def _trial_from_json(r, t_max):
    """A trial record; only a diverged trial has a 'diverged_at', within
    0 .. t_max, and a 'cause'."""
    status = r["status"]
    _require(status in ("completed", "diverged"), f"bad trial status {status!r}")
    diverged_at = cause = None
    if status == "diverged":
        diverged_at = _coerce(r, "diverged_at", _int)
        _require(0 <= diverged_at <= t_max,
                 f"diverged_at {diverged_at} is outside 0 .. t_max = {t_max}")
        cause = r.get("cause")  # reports written before causes have none
        _require(cause is None or isinstance(cause, str), "cause must be a string")
    else:
        _require(r.get("diverged_at") is None and r.get("cause") is None,
                 "a completed trial has no 'diverged_at' or 'cause'")
    return TrialOutcome(_coerce(r, "trial", _int), status, [], diverged_at,
                        _coerce(r, "wall_clock_s", _number, 0.0), cause)


def _attach_rows(rows, trials, points):
    """Give each completed trial one point per JSON row, with its
    diagnostics where present (reports written before them have none); a
    completed trial has exactly one row at each evaluation point."""
    completed = {out.trial: out for out in trials if out.status == "completed"}
    for r in rows:
        t, trial = _int(r["t"]), _int(r["trial"])
        _require(trial in completed,
                 f"row (t={t}, trial={trial}) is not of a completed trial")
        e_pro = _number(r["e_pro"])
        diagnostics = ((_number(r["offdiag_ratio"]), _number(r["floor_margin"]))
                       if "offdiag_ratio" in r or "floor_margin" in r else ())
        completed[trial].points.append(EvalPoint(t, e_pro, *diagnostics))
    for out in completed.values():
        out.points.sort(key=lambda p: p.t)
        have = [p.t for p in out.points]
        _require(len(set(have)) == len(have), "more than one row for a (t, trial)")
        _require(have == list(points), f"trial {out.trial} has rows at t={have}, "
                 f"not at the evaluation points {list(points)}")


def report_from_json(path):
    """Load the JSON form of a report for CSV re-emission.

    Raises ReportFormatError when the file is not such a report: when its
    config echo breaks a rule of ``parse_config``, its trial records are
    not trials 0 .. trials-1 in order, a trial diverged outside 0 ..
    t_max, a completed trial lacks a row at an evaluation point, or its
    medians or diverged count are not the ones its trials give.
    """
    with open(path, "rb") as fh:  # bytes decode as in parse_config
        try:
            obj = json.loads(fh.read())
            config = config_from_json_dict(obj["config"])
            trials = [_trial_from_json(r, config.t_max) for r in obj["trials"]]
            indices = [out.trial for out in trials]
            _require(len(indices) == config.trials
                     and indices == list(range(len(indices))),
                     f"trial records {indices} are not trials 0 .. {config.trials - 1}"
                     " in order")
            _attach_rows(obj["rows"], trials, config.eval_points())
            report = SummaryReport(config, trials)
            _require(_int(obj["diverged"]) == report.diverged,
                     "trial statuses disagree with 'diverged'")
            medians = {_int(r["t"]): _number(r["e_pro"]) for r in obj["medians"]}
            _require(medians.keys() == report.medians.keys(),
                     f"medians at t={sorted(medians)}, rows at t={sorted(report.medians)}")
            bad = sorted(t for t in medians if medians[t] != report.medians[t])
            _require(not bad, f"medians at t={bad} are not the medians of their rows")
            return report
        except (KeyError, RecursionError, ConfigValidationError,
                *_COERCION_ERRORS) as exc:
            raise ReportFormatError(f"{type(exc).__name__}: {exc}") from exc
