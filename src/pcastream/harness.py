"""Configuration-driven experiment runner.

A single JSON config describes one experiment: task (projection or
whitening) x variant (iteration-free or exact inverse) x mode (online
sampling or offline averaged dynamics), plus problem preset, trial
count, seed, horizon and checkpoints. Each trial gets its own random
stream derived from (seed, trial index), so results do not depend on
execution order or worker count, and the run is reproducible bit for
bit (wall-clock fields aside) within one implementation.

The trials that one process runs advance together as a stack of
learners through one trial loop, one step call per step for all of
them: ``online_step`` on a sample per trial, or ``offline_step`` on
each trial's covariance. Each learner's arithmetic is the same in any
stack, so which trials share a stack (one per worker process) does not
change any result either.
"""

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import data, metrics, offline
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
    ReportFormatError,
)
from .model import ModelState, Task, Variant, online_step

_SAMPLE_CHUNK = 1024

_KNOWN_KEYS = {
    "task", "variant", "mode", "preset", "n", "k", "lambda", "tau",
    "schedule", "spectrum", "m_init", "w_init_std", "t_max", "checkpoints",
    "trials", "seed", "fixed_rotation", "workers", "output_path",
}
_PRESET_FIXED_KEYS = {
    "n", "k", "lambda", "tau", "schedule", "spectrum", "m_init", "w_init_std",
}
_DEFAULT_T_MAX = {"online": 10000, "offline": 1000}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description (preset constants expanded)."""

    task: Task
    variant: Variant
    mode: str
    preset: str
    n: int
    k: int
    lam: np.ndarray
    tau: float
    schedule: object
    spectrum: np.ndarray
    m_init: float
    w_init_std: float
    t_max: int
    checkpoints: tuple
    trials: int
    seed: int
    fixed_rotation: bool = False
    workers: int = 1
    output_path: str = None

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


@dataclass
class TrialOutcome:
    trial: int
    status: str                  # "completed" or "diverged"
    rows: list                   # (t, e_pro) pairs, completed trials only
    diverged_at: int = None
    wall_clock_s: float = 0.0
    cause: str = None            # the model error of a diverged trial
    # (t, off-diagonal ratio, floor margin) per row, completed trials only
    diagnostics: list = field(default_factory=list)


@dataclass
class SummaryReport:
    """Experiment result: per-checkpoint rows, medians, per-trial status."""

    config: ExperimentConfig
    rows: list                   # (t, trial, e_pro), sorted
    medians: dict                # t -> median e_pro over completed trials
    trials: list                 # TrialOutcome, by trial index
    diverged: int
    # (t, trial) -> (off-diagonal ratio, floor margin) of M at that row
    diagnostics: dict = field(default_factory=dict)

    def comparable(self):
        """Everything except wall-clock, for reproducibility comparisons."""
        return {
            "config": self.config.to_json_dict(),
            "rows": self.rows,
            "medians": sorted(self.medians.items()),
            "status": [(t.trial, t.status, t.diverged_at, t.cause)
                       for t in self.trials],
            "diagnostics": sorted(self.diagnostics.items()),
        }

    def _json_row(self, t, trial, e):
        row = {"t": t, "trial": trial, "e_pro": e}
        if (t, trial) in self.diagnostics:
            row["offdiag_ratio"], row["floor_margin"] = self.diagnostics[(t, trial)]
        return row

    def to_json_dict(self):
        return {
            "config": self.config.to_json_dict(),
            "rows": [self._json_row(*row) for row in self.rows],
            "medians": [
                {"t": t, "e_pro": e} for t, e in sorted(self.medians.items())
            ],
            "trials": [
                {
                    "trial": t.trial,
                    "status": t.status,
                    "diverged_at": t.diverged_at,
                    "cause": t.cause,
                    "wall_clock_s": t.wall_clock_s,
                }
                for t in self.trials
            ],
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


def _finite_float(value):
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{value!r} is not finite")
    return out


def _schedule_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigValidationError("schedule must be an object with a 'kind'")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return Constant(_finite_float(obj["alpha"]))
        if kind == "inverse_time":
            return InverseTime(_finite_float(obj["numerator"]),
                               _finite_float(obj["offset"]))
        if kind == "piecewise":
            pieces = tuple(
                (math.inf if t is None else float(t), _finite_float(a))
                for t, a in obj["pieces"])
            return PiecewiseConstant(pieces)
    except (KeyError, *_COERCION_ERRORS) as exc:
        raise ConfigValidationError(f"bad schedule: {exc}") from exc
    raise ConfigValidationError(f"unknown schedule kind '{kind}'")


def _require(condition, message):
    if not condition:
        raise ConfigValidationError(message)


def _finite_floats(value):
    out = np.asarray(value, dtype=float)
    if not np.isfinite(out).all():
        raise ValueError(f"{value!r} has non-finite entries")
    return out


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


def _coerce(raw, key, convert, default=None):
    """``convert`` applied to ``raw[key]`` (``default`` when absent).

    Every numeric or boolean config value passes through here, so that a
    value of the wrong type surfaces as a validation error, never a bare
    ValueError or TypeError.
    """
    value = raw.get(key, default)
    try:
        return convert(value)
    except _COERCION_ERRORS as exc:
        raise ConfigValidationError(f"bad value for '{key}': {value!r}") from exc


def parse_config(text):
    """Parse and validate a JSON experiment config.

    Unknown keys are rejected by name; preset configs reject explicit
    overrides of preset-determined fields; custom configs must spell out
    the whole problem.
    """
    # JSONDecodeError is a ValueError, as are integers too long to read;
    # nesting too deep for the decoder raises RecursionError
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError("config must be a JSON object")
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise ConfigParseError(f"unknown key '{key}'")

    for req in ("task", "variant", "mode", "preset"):
        if req not in raw:
            raise ConfigValidationError(f"missing required key '{req}'")
    try:
        task = Task(raw["task"])
    except ValueError:
        raise ConfigValidationError(f"task must be one of psp|psw, got {raw['task']!r}")
    try:
        variant = Variant(raw["variant"])
    except ValueError:
        raise ConfigValidationError(
            f"variant must be iteration_free|exact, got {raw['variant']!r}")
    mode = raw["mode"]
    _require(mode in ("online", "offline"), f"mode must be online|offline, got {mode!r}")
    preset_name = raw["preset"]
    _require(preset_name in ("small", "large", "custom"),
             f"preset must be small|large|custom, got {preset_name!r}")

    if preset_name in PRESETS:
        clash = _PRESET_FIXED_KEYS & raw.keys()
        _require(not clash,
                 f"keys fixed by preset '{preset_name}': {sorted(clash)}")
        preset = PRESETS[preset_name]()
        n, k = preset.n, preset.k
        lam = preset.lam
        spectrum = preset.spectrum
        tau = preset.tau[task]
        m_init = preset.m_init[task]
        w_init_std = preset.w_init_std
        schedule = preset.schedule(task, mode)
    else:
        missing = {"n", "k", "lambda", "tau", "schedule", "spectrum"} - raw.keys()
        _require(not missing, f"custom preset requires keys: {sorted(missing)}")
        n = _coerce(raw, "n", _int)
        k = _coerce(raw, "k", _int)
        lam = _coerce(raw, "lambda", _finite_floats)
        spectrum = _coerce(raw, "spectrum", _finite_floats)
        tau = _coerce(raw, "tau", _finite_float)
        schedule = _schedule_from_json(raw["schedule"])
        m_init = _coerce(raw, "m_init", _finite_float, 1.0)
        _require(1 <= k < n, "require 1 <= k < n")
        w_init_std = _coerce(raw, "w_init_std", _finite_float, 1.0 / math.sqrt(n))
        _require(lam.shape == (k,), "lambda must have length k")
        _require((lam > 0).all() and (np.diff(lam) < 0).all(),
                 "lambda must be strictly decreasing and positive")
        _require(spectrum.shape == (n,), "spectrum must have length n")
        _require((spectrum > 0).all() and not (np.diff(spectrum) > 0).any(),
                 "spectrum must be positive and nonincreasing")
        # ground_truth needs a unique, ordered leading k-subspace
        _require(metrics.leading_separated(spectrum, k),
                 f"leading k+1 spectrum values must differ by more than "
                 f"{metrics.GAP_FLOOR:g}")
        _require(tau > 0, "tau must be positive")
        _require(m_init > 0, "m_init must be positive")
        _require(w_init_std > 0, "w_init_std must be positive")

    t_max = _coerce(raw, "t_max", _int, _DEFAULT_T_MAX[mode])
    _require(t_max >= 0, "t_max must be nonnegative")
    checkpoints = _coerce(raw, "checkpoints", _ints, [t_max] if t_max > 0 else [])
    bad = [t for t in checkpoints if not 1 <= t <= t_max]
    _require(not bad, f"checkpoints outside [1, t_max]: {sorted(bad)}")
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
        task=task, variant=variant, mode=mode, preset=preset_name,
        n=n, k=k, lam=lam, tau=tau, schedule=schedule, spectrum=spectrum,
        m_init=m_init, w_init_std=w_init_std, t_max=t_max,
        checkpoints=checkpoints, trials=trials, seed=seed,
        fixed_rotation=fixed_rotation, workers=workers,
        output_path=output_path,
    )


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _initial_state(config, gen):
    w0 = gen.normal(0.0, config.w_init_std, size=(config.k, config.n))
    m0 = config.m_init * np.eye(config.k)
    return ModelState(m0, w0, config.lam, config.tau)


class _Trial:
    """One trial's random stream, problem and record, in either mode.

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
        self.rows = []            # (t, e_pro)
        self.diagnostics = []     # (t, off-diagonal ratio, floor margin)
        self.divergence = None    # (t, cause)

    def record(self, t, state):
        """Evaluate a snapshot at t; False if a model error ended the trial."""
        cfg = self.config
        try:
            u_hat = metrics.estimate_subspace(state, cfg.task, cfg.variant,
                                              self.truth.sigma_k)
            e_pro = metrics.procrustes_error(u_hat, self.truth.u_k)
        except MODEL_ERRORS as exc:
            self.diverge(t, exc)
            return False
        self.rows.append((t, e_pro))
        self.diagnostics.append((t, *metrics.lateral_diagnostics(state.m)))
        return True

    def diverge(self, t, exc):
        self.divergence = (t, f"{type(exc).__name__}: {exc}")

    def outcome(self, wall_clock_s):
        if self.divergence is not None:
            t, cause = self.divergence
            return TrialOutcome(self.index, "diverged", [], t, wall_clock_s, cause)
        return TrialOutcome(self.index, "completed", self.rows, None,
                            wall_clock_s, diagnostics=self.diagnostics)


def _replay(live, state, x, t, rate, step):
    """Step ``t`` of the stack, one trial at a time, after it raised.

    A trial whose own step fails is recorded as diverged at t. Returns
    the stack of the other trials' new states (None if there are none)
    and their positions in ``live``.
    """
    kept, steps = [], []
    for j, trial in enumerate(live):
        try:
            steps.append(step(state[j], x[j], rate))
        except MODEL_ERRORS as exc:
            trial.diverge(t, exc)
        else:
            kept.append(j)
    return (ModelState.stack(steps) if steps else None), kept


def _run_stack(config, indices, rotation=None):
    """Outcomes of the trials ``indices``, in order, advanced in lockstep.

    One step call per step moves every trial of the stack: ``online_step``
    on one sample per trial, drawn from the trial's own stream in the
    same chunks as when run alone, or ``offline_step`` on the trials'
    covariances. A trial that diverges, in a step or at a checkpoint,
    leaves the stack and the others go on. A trial's arithmetic is the
    same in any stack, so its outcome does not depend on which trials
    share its stack. Every trial reports the stack's wall time.
    """
    start = time.perf_counter()
    if config.mode == "online":
        def draw(live, count):  # row r holds every live trial's r-th draw
            return np.stack([data.sample_block(trial.spec, trial.rng, count)
                             for trial in live], axis=1)

        def step(state, x, rate):
            return online_step(state, x, rate, config.task, config.variant)[1]
    else:
        def draw(live, count):  # no samples: one row of covariances
            return np.stack([trial.g for trial in live])[None]

        def step(state, g, rate):
            return offline.offline_step(state, g, rate, config.task, config.variant)

    trials = [_Trial(config, i, rotation) for i in indices]
    live = trials
    state = ModelState.stack([trial.initial for trial in live])
    points = set(config.eval_points())
    if config.t_max == 0:  # the initial state is the only snapshot
        for j, trial in enumerate(trials):
            trial.record(0, state[j])
    t = 0
    while t < config.t_max and live:
        count = min(_SAMPLE_CHUNK, config.t_max - t)
        block = draw(live, count)  # (rows, trials, ...)
        for r in range(count):
            t += 1
            x = block[r % len(block)]  # an offline row serves every step
            rate = config.schedule.rate(t)
            try:
                state = step(state, x, rate)
            except MODEL_ERRORS:
                state, kept = _replay(live, state, x, t, rate, step)
                live, block = [live[j] for j in kept], block[:, kept]
            if t in points and live:
                kept = [j for j, trial in enumerate(live) if trial.record(t, state[j])]
                if len(kept) < len(live):
                    live, state, block = ([live[j] for j in kept], state[kept],
                                          block[:, kept])
            if not live:
                break
    wall_clock_s = time.perf_counter() - start
    return [trial.outcome(wall_clock_s) for trial in trials]


def trial_stacks(trials, workers):
    """Contiguous ranges of trial indices, one stack per worker process.

    There are ``min(workers, trials)`` stacks, so no process goes without
    a trial; one worker runs every trial in one stack.
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
        with ProcessPoolExecutor(max_workers=len(stacks)) as pool:
            parts = list(pool.map(_run_stack, repeat(config), stacks,
                                  repeat(rotation)))
    else:
        parts = [_run_stack(config, stacks[0], rotation)]
    return _summarize(config, [out for part in parts for out in part])


def _summarize(config, outcomes):
    """The summary report of an experiment's trial outcomes."""
    outcomes = sorted(outcomes, key=lambda o: o.trial)
    rows = []
    per_point = {}
    diagnostics = {}
    for out in outcomes:
        if out.status != "completed":
            continue
        for t, e in out.rows:
            rows.append((t, out.trial, e))
            per_point.setdefault(t, []).append(e)
        for t, ratio, margin in out.diagnostics:
            diagnostics[(t, out.trial)] = (ratio, margin)
    rows.sort(key=lambda r: (r[0], r[1]))
    medians = {t: float(np.median(es)) for t, es in per_point.items()}
    diverged = sum(1 for o in outcomes if o.status != "completed")
    return SummaryReport(config=config, rows=rows, medians=medians,
                         trials=outcomes, diverged=diverged,
                         diagnostics=diagnostics)


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
    completed = len([o for o in report.trials if o.status == "completed"])
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
    """Rebuild an ExperimentConfig from its own JSON echo (no re-expansion)."""
    return ExperimentConfig(
        task=Task(obj["task"]), variant=Variant(obj["variant"]),
        mode=obj["mode"], preset=obj["preset"], n=_coerce(obj, "n", _int),
        k=_coerce(obj, "k", _int), lam=_coerce(obj, "lambda", _finite_floats),
        tau=_coerce(obj, "tau", _finite_float),
        schedule=_schedule_from_json(obj["schedule"]),
        spectrum=_coerce(obj, "spectrum", _finite_floats),
        m_init=_coerce(obj, "m_init", _finite_float),
        w_init_std=_coerce(obj, "w_init_std", _finite_float),
        t_max=_coerce(obj, "t_max", _int),
        checkpoints=_coerce(obj, "checkpoints", _ints),
        trials=_coerce(obj, "trials", _int), seed=_coerce(obj, "seed", _int),
        fixed_rotation=_coerce(obj, "fixed_rotation", _bool),
        workers=_coerce(obj, "workers", _int), output_path=obj.get("output_path"),
    )


def report_from_json(path):
    """Load the JSON form of a report for CSV re-emission.

    Raises ReportFormatError when the file is not such a report.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            rows = [(_int(r["t"]), _int(r["trial"]), float(r["e_pro"]))
                    for r in obj["rows"]]
            # reports written before the diagnostics existed have none
            diagnostics = {
                (t, trial): (float(r["offdiag_ratio"]), float(r["floor_margin"]))
                for (t, trial, _), r in zip(rows, obj["rows"])
                if "offdiag_ratio" in r or "floor_margin" in r}
            trials = [TrialOutcome(_int(r["trial"]), r["status"], [],
                                   r.get("diverged_at"),
                                   r.get("wall_clock_s", 0.0), r.get("cause"))
                      for r in obj["trials"]]
            statuses, diverged = [t.status for t in trials], _int(obj["diverged"])
            if (not {"completed", "diverged"}.issuperset(statuses)
                    or statuses.count("diverged") != diverged):
                raise ValueError("trial statuses disagree with 'diverged'")
            return SummaryReport(
                config=config_from_json_dict(obj["config"]),
                rows=rows,
                medians={_int(r["t"]): float(r["e_pro"]) for r in obj["medians"]},
                trials=trials, diverged=diverged, diagnostics=diagnostics)
        except (KeyError, RecursionError, ConfigValidationError,
                *_COERCION_ERRORS) as exc:
            raise ReportFormatError(f"{type(exc).__name__}: {exc}") from exc
