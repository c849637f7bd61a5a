import concurrent.futures
import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pcastream
from pcastream import checks, cli, data, harness, linalg, metrics, model, offline
from pcastream.checks import CHECKS, run_verification
from pcastream.errors import (
    ConfigParseError,
    ConfigValidationError,
    DegenerateDiagonalError,
    ReportFormatError,
)
from pcastream.model import ModelState, Task, Variant


def make_config(**overrides):
    base = {
        "preset": "small",
        "task": "psp",
        "variant": "iteration_free",
        "mode": "online",
        "trials": 2,
        "seed": 11,
        "t_max": 200,
        "checkpoints": [100, 200],
    }
    base.update(overrides)
    return json.dumps({k: v for k, v in base.items() if v is not None})


def custom_config(**overrides):
    base = {
        "preset": "custom", "task": "psp", "variant": "exact",
        "mode": "online", "n": 4, "k": 2, "lambda": [1.0, 0.8],
        "tau": 0.5, "spectrum": [1.0, 0.6, 0.3, 0.3],
        "schedule": {"kind": "constant", "alpha": 0.01},
    }
    base.update(overrides)
    return json.dumps(base)


# valid configs at scales where a readout or a norm's squares overflow:
# (config, the cause each trial diverges with, None if it completes),
# by test id
EXTREME_SCALE_CONFIGS = {
    "filter-overflows": (custom_config(t_max=0, w_init_std=1e300, m_init=1e-10),
                         "NonFiniteReadoutError: filter is not finite"),
    "procrustes-overflows": (custom_config(t_max=0, w_init_std=1e160),
                             "NonFiniteReadoutError: Procrustes error is not finite"),
    "procrustes-product-overflows": (
        custom_config(t_max=0, w_init_std=2.07556714115463e307, seed=1,
                      variant="iteration_free", **{"lambda": [1.0, 0.25]}),
        "NonFiniteReadoutError: Procrustes error is not finite"),
    "spectrum-1e300": (custom_config(mode="offline", t_max=3,
                                     spectrum=[1e300, 1e299, 1e298, 1e297]), None),
}


# configs of eight trials some of which diverge, and the step at which
# each of those does, by test id. The PSP case overshoots for three steps
# (alpha / tau > 1), then settles; the outcomes hold for rates moved by
# 1e-9 relative, so they do not hang on the last bit of the arithmetic
MIXED_DIVERGENCE = {
    "psw-iteration_free-constant": (
        custom_config(task="psw", variant="iteration_free", trials=8, seed=1, t_max=200,
                      schedule={"kind": "constant", "alpha": 0.2}),
        {0: 33, 1: 8, 2: 89, 3: 60, 4: 4, 5: 3, 6: 3}),
    "psp-exact-overshoot": (
        custom_config(task="psp", variant="exact", trials=8, seed=1, t_max=200,
                      schedule={"kind": "piecewise", "pieces": [[3, 0.6], [None, 0.05]]}),
        {0: 1, 1: 3, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1}),
    "offline-psw-iteration_free-constant": (
        custom_config(task="psw", variant="iteration_free", mode="offline", trials=8,
                      seed=1, t_max=200, checkpoints=[50],
                      schedule={"kind": "constant", "alpha": 0.5}),
        {1: 11, 4: 2, 5: 11, 6: 2}),
}


@pytest.fixture
def in_process_pool(monkeypatch):
    """Runs a several-stack experiment's stacks in this process, through a
    stand-in for the process pool; gives the list of the pool sizes asked
    for."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


class BadRate(data.StepSchedule):
    """0.01 at every step but ``at``, where the rate is ``bad``."""

    __slots__ = ("bad", "at")

    def __init__(self, bad, at):
        object.__setattr__(self, "bad", bad)
        object.__setattr__(self, "at", at)

    def rate(self, t):
        return self.bad if t == self.at else 0.01


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)


# config echo values that parse_config rejects and a report must not load,
# by test id
BAD_ECHO_VALUES = {
    "fixed_rotation": ("fixed_rotation", "false"), "t_max": ("t_max", 2.7),
    "checkpoints": ("checkpoints", ["x"]), "trials": ("trials", "3"),
    "mode": ("mode", "bogus"), "preset": ("preset", "nope"), "k": ("k", 50),
    "checkpoints-past-t_max": ("checkpoints", [5000]),
    "trials-zero": ("trials", 0), "seed": ("seed", -1),
    "workers": ("workers", 0), "output_path": ("output_path", 5),
}


def _move_rows_off_points(obj):
    for entry in obj["rows"] + obj["medians"]:
        if entry["t"] == 100:
            entry["t"] = 150


# edits of a one-trial report with checkpoints [100, 200] that leave a
# completed trial without a row at each evaluation point, by test id
OFF_POINT_EDITS = {
    "rows-moved": (_move_rows_off_points,
                   "trial 0 has rows at t=\\[150, 200\\], not at the evaluation "
                   "points \\[100, 200\\]"),
    "trial-without-rows": (lambda obj: obj.update(rows=[], medians=[]),
                           "trial 0 has rows at t=\\[\\], not at"),
}

def _keep_rows_of(obj, trials):
    # only the trials ``trials`` keep their rows, and the medians follow
    obj["rows"] = [r for r in obj["rows"] if r["trial"] in trials]
    by_t = {}
    for r in obj["rows"]:
        by_t.setdefault(r["t"], []).append(r["e_pro"])
    obj["medians"] = [{"t": t, "e_pro": float(np.median(es))}
                      for t, es in sorted(by_t.items())]


def _one_record(obj):
    del obj["trials"][1:]
    _keep_rows_of(obj, {0})


def _renumber(obj, offset):
    for entry in obj["trials"] + obj["rows"]:
        entry["trial"] += offset


def _diverged_at(obj, t):
    obj["trials"][0].update(status="diverged", diverged_at=t, cause="x")
    obj["diverged"] = 1
    _keep_rows_of(obj, {1, 2})


# a report of three trials under t_max 50, and edits that leave it
# consistent but for its trial records, by test id
TRIAL_RECORD_CONFIG = make_config(trials=3, t_max=50, checkpoints=[50])
TRIAL_RECORD_EDITS = {
    "one-record": (_one_record, "trial records \\[0\\] are not trials 0 .. 2"),
    "indices-5-6-7": (lambda obj: _renumber(obj, 5),
                      "trial records \\[5, 6, 7\\] are not trials 0 .. 2"),
    "diverged_at-negative": (lambda obj: _diverged_at(obj, -7),
                             "diverged_at -7 is outside 0 .. t_max = 50"),
    "diverged_at-past-t_max": (lambda obj: _diverged_at(obj, 10**6),
                               "diverged_at 1000000 is outside 0 .. t_max = 50"),
    # decided from the records, without a list of 10**15 indices
    "trials-10**15": (lambda obj: obj["config"].update(trials=10**15),
                      "trial records \\[0, 1, 2\\] are not trials 0 .. 999999999999999"),
}


def write_trial_record_report(path, edit):
    """Write the JSON report of TRIAL_RECORD_CONFIG to path, edited."""
    obj = harness.run_experiment(
        harness.parse_config(TRIAL_RECORD_CONFIG)).to_json_dict()
    edit(obj)
    path.write_text(json.dumps(obj))
    return path


# a custom config whose n is too large for a float
HUGE_N_CONFIG = json.dumps({
    "preset": "custom", "task": "psp", "variant": "exact", "mode": "online",
    "n": 10**400, "k": 1, "lambda": [1.0], "tau": 0.5, "spectrum": [1.0, 0.5],
    "schedule": {"kind": "constant", "alpha": 0.01}})


PLAUSIBLE_VALUES = st.sampled_from([
    "small", "large", "custom", "psp", "psw", "iteration_free", "exact",
    "online", "offline", 0, 1, 3, 4, 10, 100, 0.5, 1.0, [1.0, 0.8], [100],
    [1.0, 0.85, 0.7], [1.0, 0.6, 0.3, 0.3], [1.0, 0.5, 0.5, 0.1],
    {"kind": "constant"}, {"kind": "constant", "alpha": 0.1},
    {"kind": "piecewise", "pieces": [[10, 0.1], [None, 0.01]]},
    {"kind": "inverse_time", "numerator": 1, "offset": -1},
    {"kind": "inverse_time", "numerator": 10, "offset": 250},
])


def config_objects():
    """JSON objects near valid configs: known keys with arbitrary values."""
    keys = st.sampled_from(sorted(harness._KNOWN_KEYS) + ["junk"])
    bases = st.sampled_from([json.loads(make_config()), json.loads(custom_config())])
    overrides = st.dictionaries(keys, PLAUSIBLE_VALUES | JSON_VALUES, max_size=5)
    return st.builds(lambda base, extra, drop: {
        k: v for k, v in {**base, **extra}.items() if k not in drop},
        bases, overrides, st.sets(keys, max_size=2))


def tiny_report(cfg):
    """The JSON form of a one-trial report of ``cfg``: e_pro 0.5 at each
    evaluation point."""
    return harness.SummaryReport(cfg, [harness.TrialOutcome(
        0, "completed", [harness.EvalPoint(t, 0.5) for t in cfg.eval_points()])]
    ).to_json_dict()


def report_objects():
    """JSON values near a valid report: its keys with arbitrary values."""
    valid = tiny_report(harness.parse_config(make_config(trials=1)))
    entry = st.dictionaries(st.sampled_from(["t", "trial", "e_pro", "status"]),
                            JSON_VALUES, max_size=4)
    keys = st.sampled_from(sorted(valid))
    overrides = st.dictionaries(keys, JSON_VALUES | st.lists(entry, max_size=3),
                                max_size=3)
    near = st.builds(lambda extra, drop: {
        k: v for k, v in {**valid, **extra}.items() if k not in drop},
        overrides, st.sets(keys, max_size=1))
    return near | JSON_VALUES


def _accepts(build):
    try:
        build()
    except (ValueError, ConfigValidationError):
        return False
    return True


# finite entries only (a config holds no other numbers), ties and zeros and
# negatives included
ENTRIES = st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 2.0]),
                   min_size=1, max_size=4)


class TestConfigRulesMatchConstructors:
    """A config and the objects built from it accept the same values: each
    rule has one implementation."""

    @settings(max_examples=150, deadline=None)
    @given(ENTRIES)
    def test_lambda(self, lam):
        k = len(lam)
        text = custom_config(n=k + 1, k=k, **{"lambda": lam},
                             spectrum=[float(k + 1 - i) for i in range(k + 1)])
        state = lambda: ModelState(np.eye(k), np.zeros((k, k + 1)), lam, 0.5)
        assert _accepts(lambda: harness.parse_config(text)) == _accepts(state)

    @settings(max_examples=150, deadline=None)
    @given(ENTRIES.map(lambda v: v + [0.1]))
    def test_spectrum(self, spectrum):
        n = len(spectrum)
        text = custom_config(n=n, k=1, **{"lambda": [1.0]}, spectrum=spectrum)
        try:
            harness.parse_config(text)
        except ConfigValidationError as exc:  # the spectrum rule, or a later one
            accepted = "spectrum must be positive" not in str(exc)
        else:
            accepted = True
        spec = lambda: data.CovarianceSpec(n, np.eye(n), np.array(spectrum))
        assert accepted == _accepts(spec)

    # any float: json writes NaN and the infinities as NaN and Infinity,
    # which the decoder reads and then rejects
    @settings(max_examples=150, deadline=None)
    @given(st.floats())
    def test_tau(self, tau):
        text = custom_config(tau=tau)
        state = lambda: ModelState(np.eye(2), np.zeros((2, 4)), [1.0, 0.8], tau)
        assert _accepts(lambda: harness.parse_config(text)) == _accepts(state)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(), st.floats() | st.sampled_from([0.0, 0.1, 1.0]))
    @example(math.inf, 0.1)
    @example(-math.inf, 0.1)
    @example(math.nan, 0.1)
    @example(0.1, math.nan)
    @example(0.1, math.inf)
    def test_schedules(self, a, b):
        # a config spells an infinite threshold, the open tail, as null
        threshold = None if a == math.inf else a
        for schedule, build in [
                ({"kind": "constant", "alpha": a}, lambda: data.Constant(a)),
                ({"kind": "inverse_time", "numerator": a, "offset": b},
                 lambda: data.InverseTime(a, b)),
                ({"kind": "piecewise", "pieces": [[threshold, b], [None, 0.1]]},
                 lambda: data.PiecewiseConstant(((a, b), (math.inf, 0.1)))),
                ({"kind": "piecewise", "pieces": [[1.0, 0.1], [threshold, b]]},
                 lambda: data.PiecewiseConstant(((1.0, 0.1), (a, b))))]:
            text = custom_config(schedule=schedule)
            assert _accepts(lambda: harness.parse_config(text)) == _accepts(build)

    @settings(max_examples=150, deadline=None)
    @given(st.floats())
    @example(1e-300)
    @example(model.DIAGONAL_FLOOR)
    @example(2e-12)
    def test_m_init(self, m_init):
        # the decoder's bound is the floor ModelState puts on M's diagonal
        text = custom_config(m_init=m_init)

        def state():
            try:
                ModelState(np.diag([m_init, m_init]), np.zeros((2, 4)), [1.0, 0.8], 0.5)
            except DegenerateDiagonalError as exc:
                raise ValueError("below the floor") from exc

        assert _accepts(lambda: harness.parse_config(text)) == _accepts(state)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 3), st.lists(st.integers(-1, 4), max_size=3))
    def test_checkpoints(self, t_max, checkpoints):
        text = custom_config(mode="offline", t_max=t_max, checkpoints=checkpoints)
        initial = ModelState(np.eye(1), np.ones((1, 2)), [1.0], 1.0)
        run = lambda: offline.run_offline(initial, np.diag([2.0, 1.0]), data.Constant(0.1),
                                          t_max, checkpoints, task=Task.PSP,
                                          variant=Variant.EXACT_INVERSE)
        assert _accepts(lambda: harness.parse_config(text)) == _accepts(run)


class TestParseConfig:
    def test_minimal_small_preset_expands(self):
        cfg = harness.parse_config(json.dumps({
            "preset": "small", "task": "psp", "variant": "iteration_free",
            "mode": "online", "trials": 1, "seed": 7}))
        assert np.array_equal(cfg.lam, [1.0, 0.85, 0.7])
        assert (cfg.n, cfg.k) == (10, 3)
        assert cfg.tau == 0.5
        assert cfg.m_init == 1.0
        assert cfg.t_max == 10000          # online default horizon
        assert cfg.checkpoints == (10000,)
        assert cfg.trials == 1

    def test_offline_schedule_selected(self):
        cfg = harness.parse_config(make_config(mode="offline", t_max=None,
                                               checkpoints=None))
        assert cfg.schedule == data.Constant(0.1)
        assert cfg.t_max == 1000

    def test_whitening_tau_selected(self):
        cfg = harness.parse_config(make_config(task="psw"))
        assert cfg.tau == 1.0
        assert cfg.m_init == 0.3

    def test_unknown_key_named(self):
        with pytest.raises(ConfigParseError, match="taus"):
            harness.parse_config(make_config(taus=0.5))

    def test_invalid_json(self):
        with pytest.raises(ConfigParseError):
            harness.parse_config("{not json")

    def test_zero_checkpoint_rejected(self):
        with pytest.raises(ConfigValidationError):
            harness.parse_config(make_config(checkpoints=[0, 100]))

    def test_checkpoint_beyond_horizon_rejected(self):
        with pytest.raises(ConfigValidationError):
            harness.parse_config(make_config(checkpoints=[500]))

    def test_preset_field_override_rejected(self):
        with pytest.raises(ConfigValidationError, match="fixed by preset"):
            harness.parse_config(make_config(tau=0.7))

    def test_bad_task_value(self):
        with pytest.raises(ConfigValidationError):
            harness.parse_config(make_config(task="pca"))

    def test_custom_requires_full_problem(self):
        with pytest.raises(ConfigValidationError, match="custom preset requires"):
            harness.parse_config(json.dumps({
                "preset": "custom", "task": "psp",
                "variant": "exact", "mode": "online"}))

    CUSTOM_PSW = {
        "preset": "custom", "task": "psw", "variant": "exact",
        "mode": "online", "n": 4, "k": 2, "lambda": [1.0, 0.8],
        "tau": 1.0, "spectrum": [1.0, 0.6, 0.3, 0.3],
        "schedule": {"kind": "inverse_time", "numerator": 5, "offset": 100},
        "trials": 1, "seed": 3, "t_max": 50,
    }

    def test_custom_config_parses(self):
        cfg = harness.parse_config(json.dumps(self.CUSTOM_PSW))
        assert cfg.variant is Variant.EXACT_INVERSE
        assert cfg.schedule.rate(0) == 0.05

    @settings(max_examples=300, deadline=None)
    @given(config_objects())
    @example(CUSTOM_PSW)
    def test_custom_roundtrip(self, obj):
        # every config that parses: its echo reads back, as a report's
        # config and as a config, to the same config
        try:
            cfg = harness.parse_config(json.dumps(obj))
        except (ConfigParseError, ConfigValidationError):
            return
        echo = cfg.to_json_dict()
        assert harness.config_from_json_dict(
            json.loads(json.dumps(echo))).to_json_dict() == echo
        assert harness.parse_config(json.dumps(echo)).to_json_dict() == echo

    def test_preset_fixed_keys_restated(self):
        # a preset's own values may be restated; any other is an override
        cfg = harness.parse_config(make_config(
            task="psw", tau=1, m_init=0.3, k=3, schedule={
                "kind": "inverse_time", "numerator": 10, "offset": 250}))
        assert (cfg.tau, cfg.m_init, cfg.k) == (1.0, 0.3, 3)
        for key, value in [("k", 50), ("m_init", 1.0), ("lambda", [1.0, 0.85]),
                           ("schedule", {"kind": "constant", "alpha": 0.1})]:
            with pytest.raises(ConfigValidationError,
                               match=f"fixed by preset 'small': \\['{key}'\\]"):
                harness.parse_config(make_config(task="psw", **{key: value}))

    def test_schedule_unknown_key_named(self):
        with pytest.raises(ConfigValidationError, match="junk"):
            harness.parse_config(custom_config(
                schedule={"kind": "constant", "alpha": 0.1, "junk": 3}))

    def test_trials_floor(self):
        with pytest.raises(ConfigValidationError):
            harness.parse_config(make_config(trials=0))

    @pytest.mark.parametrize("text", [
        make_config(checkpoints=["x"]),
        make_config(checkpoints="12"),
        make_config(trials=[1]),
        make_config(seed=1e400),
        make_config(seed=-1),
        make_config(output_path=5),
        make_config(fixed_rotation="false"),
        make_config(checkpoints=[1.9, 5]),
        make_config(t_max=5.7, checkpoints=[5]),
        make_config(trials=True),
        make_config(t_max="20", checkpoints=[10]),
        make_config(seed=2.5),
        make_config(workers=1.5),
        custom_config(k=2.5),
        custom_config(n="four"),
        custom_config(tau=float("nan")),
        custom_config(**{"lambda": [1.0, "x"]}),
        custom_config(schedule={"kind": "constant", "alpha": float("inf")}),
        custom_config(tau="0.5"),
        custom_config(tau=True),
        custom_config(m_init="2"),
        custom_config(k=1, **{"lambda": [True]}),
        custom_config(schedule={"kind": "inverse_time", "numerator": True,
                                "offset": 100}),
        custom_config(schedule={"kind": "piecewise",
                                "pieces": [["10", 0.1], [None, 0.01]]}),
        custom_config(schedule={"kind": "piecewise",
                                "pieces": [[float("nan"), 0.1], [None, 0.01]]}),
    ])
    def test_bad_values_rejected(self, text):
        with pytest.raises(ConfigValidationError):
            harness.parse_config(text)

    @pytest.mark.parametrize("m_init, accepted",
                             [(1e-300, False), (1e-12, False), (2e-12, True)])
    def test_m_init_above_diagonal_floor(self, m_init, accepted):
        text = custom_config(m_init=m_init)
        if accepted:
            assert harness.parse_config(text).m_init == m_init
        else:
            with pytest.raises(ConfigValidationError, match="^m_init must be above 1e-12$"):
                harness.parse_config(text)

    @pytest.mark.parametrize("lam, accepted",
                             [([1e200, 1e199], False), ([1e150, 1e149], True)])
    def test_lambda_square_finite(self, lam, accepted):
        # lam[0]**2 is the largest entry of both lateral targets
        text = custom_config(**{"lambda": lam})
        if accepted:
            assert harness.parse_config(text).lam.tolist() == lam
        else:
            with pytest.raises(ConfigValidationError,
                               match=r"^lambda\[0\] squared must be finite$"):
                harness.parse_config(text)

    def test_tie_at_k_rejected(self):
        # the subspace of the top k=2 components is not unique
        with pytest.raises(ConfigValidationError, match="k\\+1"):
            harness.parse_config(custom_config(spectrum=[1.0, 0.5, 0.5, 0.1]))
        harness.parse_config(custom_config(spectrum=[1.0, 0.5, 0.1, 0.1]))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), config_objects().map(json.dumps)))
    @example(HUGE_N_CONFIG)
    def test_any_text_parses_or_raises_config_error(self, text):
        try:
            harness.parse_config(text)
        except (ConfigParseError, ConfigValidationError):
            pass


class TestRunExperiment:
    def test_zero_horizon_reports_initial_error(self):
        cfg = harness.parse_config(make_config(trials=1, t_max=0,
                                               checkpoints=[]))
        report = harness.run_experiment(cfg)
        assert len(report.rows) == 1
        t, trial, e = report.rows[0]
        assert (t, trial) == (0, 0)
        assert e > 0.0
        assert report.medians[0] == e

    def test_rows_per_trial_and_checkpoint(self):
        cfg = harness.parse_config(make_config())
        report = harness.run_experiment(cfg)
        assert len(report.rows) == 4  # 2 trials x 2 checkpoints
        assert sorted({r[0] for r in report.rows}) == [100, 200]
        assert report.diverged == 0
        assert all(t.status == "completed" for t in report.trials)

    def test_reports_reproducible(self):
        cfg = harness.parse_config(make_config())
        r1 = harness.run_experiment(cfg)
        r2 = harness.run_experiment(cfg)
        assert r1.comparable() == r2.comparable()

    @pytest.mark.parametrize("cores, processes", [(2, 2), (None, 1), (8, 5)])
    def test_processes_capped_at_cores(self, monkeypatch, in_process_pool, cores,
                                       processes):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        cfg = harness.parse_config(make_config(trials=5, workers=5, t_max=20,
                                               checkpoints=[20]))
        report = harness.run_experiment(cfg)
        assert in_process_pool == [processes]
        assert report.comparable() == harness.run_experiment(cfg, workers=1).comparable()

    def test_worker_count_invariance(self):
        cfg = harness.parse_config(make_config(trials=3))
        seq = harness.run_experiment(cfg, workers=1)
        par = harness.run_experiment(cfg, workers=2)
        assert seq.comparable() == par.comparable()

    def test_fixed_rotation_shares_covariance(self):
        cfg = harness.parse_config(make_config(fixed_rotation=True, trials=2))
        report = harness.run_experiment(cfg)
        assert report.diverged == 0
        # seeds differ per trial, so errors differ even with a shared basis
        errs = [e for _, _, e in report.rows]
        assert len(set(errs)) == len(errs)

    def test_divergent_trials_recorded_not_fatal(self):
        cfg = harness.parse_config(json.dumps({
            "preset": "custom", "task": "psp", "variant": "iteration_free",
            "mode": "online", "n": 4, "k": 2, "lambda": [1.0, 0.8],
            "tau": 0.5, "spectrum": [1.0, 0.6, 0.3, 0.3],
            "schedule": {"kind": "constant", "alpha": 10.0},
            "trials": 3, "seed": 1, "t_max": 50,
        }))
        report = harness.run_experiment(cfg)
        assert report.diverged == 3
        assert report.rows == []
        assert report.medians == {}
        for outcome in report.trials:
            assert outcome.status == "diverged"
            assert outcome.diverged_at >= 1

    # the first step's products overflow
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["online", "offline"])
    def test_huge_finite_initial_weights_diverge(self, mode):
        report = harness.run_experiment(harness.parse_config(custom_config(
            mode=mode, w_init_std=1e300, trials=2, t_max=5)))
        assert report.diverged == 2
        assert all(o.diverged_at == 1 for o in report.trials)

    def test_largest_gain_whose_square_is_finite_runs(self):
        # no overflow warning: the first step drives M's diagonal below the floor
        report = harness.run_experiment(harness.parse_config(custom_config(
            trials=2, t_max=5, **{"lambda": [1e150, 1e149]})))
        assert [(o.diverged_at, o.cause) for o in report.trials] == [
            (1, "DegenerateDiagonalError: updated lateral diagonal hit the floor")] * 2

    def test_more_than_64_components(self):
        # a 65 x 65 Procrustes SVD at every evaluation point
        cfg = harness.parse_config(custom_config(
            n=66, k=65, spectrum=np.linspace(2.0, 0.7, 66).tolist(), trials=1,
            t_max=3, **{"lambda": np.linspace(1.0, 0.36, 65).tolist()}))
        report = harness.run_experiment(cfg)
        assert report.diverged == 0
        ((t, trial, e_pro),) = report.rows
        assert (t, trial) == (3, 0) and 0.0 < e_pro < 2.0

    def test_json_report_keeps_divergence_cause(self, tmp_path):
        cfg = harness.parse_config(custom_config(
            variant="iteration_free", trials=1, seed=1, t_max=50,
            schedule={"kind": "constant", "alpha": 10.0}))
        path = tmp_path / "out.json"
        harness.emit_report(harness.run_experiment(cfg), "json", path)
        (trial,) = json.loads(path.read_text())["trials"]
        assert trial["status"] == "diverged"
        assert trial["cause"].startswith("DegenerateDiagonalError: ")
        (back,) = harness.report_from_json(path).trials
        assert back.cause == trial["cause"]

    @pytest.mark.parametrize("case", ["psw-iteration_free-constant",
                                      "psp-exact-overshoot"])
    def test_mixed_divergence_outcomes(self, case):
        self._assert_outcomes(*MIXED_DIVERGENCE[case])

    def test_offline_mixed_divergence_outcomes(self):
        self._assert_outcomes(*MIXED_DIVERGENCE["offline-psw-iteration_free-constant"])

    @pytest.mark.parametrize("case", sorted(MIXED_DIVERGENCE))
    def test_replay_and_drops_match_stacks_of_one(self, in_process_pool, case):
        # one stack of eight replays its failing steps trial by trial and
        # drops the trials that end; eight stacks of one do neither
        cfg = harness.parse_config(MIXED_DIVERGENCE[case][0])
        stacked = harness.run_experiment(cfg, workers=1)
        assert harness.run_experiment(cfg, workers=8).comparable() == stacked.comparable()
        assert in_process_pool == [min(8, os.cpu_count() or 1)]

    @pytest.mark.parametrize("bad", [math.nan, -0.01])
    def test_bad_rate_is_an_input_error(self, bad):
        # inside the first chunk of steps, online and averaged
        online = harness.parse_config(make_config(trials=2, t_max=50, checkpoints=[50]))
        online.schedule = BadRate(bad, at=7)
        with pytest.raises(ValueError, match="^alpha must be nonnegative and finite$"):
            harness.run_experiment(online)
        initial = ModelState(np.eye(2), np.full((2, 3), 0.1), np.array([1.0, 0.5]), 0.5)
        for variant in Variant:
            with pytest.raises(ValueError, match="^alpha must be nonnegative and finite$"):
                offline.run_offline(initial, np.diag([2.0, 1.0, 0.5]), BadRate(bad, at=7),
                                    50, task=Task.PSP, variant=variant)

    @staticmethod
    def _assert_outcomes(text, expected):
        cfg = harness.parse_config(text)
        report = harness.run_experiment(cfg)
        floor = "DegenerateDiagonalError: updated lateral diagonal hit the floor"
        assert [(o.status, o.diverged_at, o.cause) for o in report.trials] == [
            ("diverged", expected[i], floor) if i in expected
            else ("completed", None, None) for i in range(8)]
        assert sorted(trial for _, trial, _ in report.rows) == sorted(
            list(set(range(8)) - set(expected)) * len(cfg.eval_points()))

    @pytest.mark.parametrize("task, variant", [
        ("psp", "iteration_free"), ("psp", "exact"),
        ("psw", "iteration_free"), ("psw", "exact")])
    def test_offline_rows_match_single_trajectories(self, task, variant):
        # the lockstep stack against a plain offline_step loop, trial by trial
        cfg = harness.parse_config(make_config(
            task=task, variant=variant, mode="offline", trials=3, t_max=300,
            checkpoints=[1, 50, 100, 300]))
        report = harness.run_experiment(cfg)
        expected = []
        for i in range(cfg.trials):
            trial = harness._Trial(cfg, i, None)
            state = trial.initial
            for t in range(1, cfg.t_max + 1):
                state = offline.offline_step(state, trial.g, cfg.schedule.rate(t),
                                             cfg.task, cfg.variant)
                if t in cfg.checkpoints:
                    u_hat = metrics.estimate_subspace(state, cfg.task, cfg.variant,
                                                      trial.truth.sigma_k)
                    expected.append(
                        (t, i, metrics.procrustes_error(u_hat, trial.truth.u_k)))
        assert report.diverged == 0
        assert report.rows == sorted(expected)
        assert len(report.rows) == 12

    @pytest.mark.parametrize("task, variant", [
        ("psp", "iteration_free"), ("psp", "exact"),
        ("psw", "iteration_free"), ("psw", "exact")])
    def test_online_rows_match_single_trajectories(self, task, variant):
        # the lockstep stack against a plain online_step loop, trial by
        # trial, on samples drawn in the same chunks of steps: the points
        # lie inside the first chunk, at its last step and past its edge
        cfg = harness.parse_config(make_config(
            task=task, variant=variant, trials=3, t_max=1100,
            checkpoints=[1, 500, 1024, 1025, 1100]))
        report = harness.run_experiment(cfg)
        expected = []
        for i in range(cfg.trials):
            trial = harness._Trial(cfg, i, None)
            state = trial.initial
            for start in range(0, cfg.t_max, model._SAMPLE_CHUNK):
                count = min(model._SAMPLE_CHUNK, cfg.t_max - start)
                for t, x in enumerate(data.sample_block(trial.spec, trial.rng, count),
                                      start + 1):
                    _, state = model.online_step(state, x, cfg.schedule.rate(t),
                                                 cfg.task, cfg.variant)
                    if t in cfg.checkpoints:
                        u_hat = metrics.estimate_subspace(state, cfg.task, cfg.variant,
                                                          trial.truth.sigma_k)
                        expected.append(
                            (t, i, metrics.procrustes_error(u_hat, trial.truth.u_k)))
        assert report.diverged == 0
        assert report.rows == sorted(expected)
        assert len(report.rows) == 15

    def test_medians_over_completed_only(self):
        cfg = harness.parse_config(make_config(trials=3))
        report = harness.run_experiment(cfg)
        for t in (100, 200):
            vals = [e for tt, _, e in report.rows if tt == t]
            assert report.medians[t] == np.median(vals)


class TestTrialStacks:
    def test_one_worker_runs_one_stack(self):
        assert harness.trial_stacks(8, 1) == [range(0, 8)]

    def test_no_more_stacks_than_trials(self):
        assert harness.trial_stacks(1, 4) == [range(0, 1)]
        assert harness.trial_stacks(3, 8) == [range(0, 1), range(1, 2), range(2, 3)]

    @given(st.integers(1, 60), st.integers(1, 64))
    def test_stacks_split_trials_contiguously_and_evenly(self, trials, workers):
        stacks = harness.trial_stacks(trials, workers)
        assert len(stacks) == min(trials, workers)
        assert [i for stack in stacks for i in stack] == list(range(trials))
        sizes = [len(stack) for stack in stacks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


class TestEmitReport:
    def _report(self, **overrides):
        cfg = harness.parse_config(make_config(**overrides))
        return harness.run_experiment(cfg)

    def test_csv_single_row(self, tmp_path):
        report = self._report(trials=1, checkpoints=[200])
        path = tmp_path / "out.csv"
        harness.emit_report(report, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,trial,e_pro"
        assert len(lines) == 2

    def test_csv_summary_medians_recompute(self, tmp_path):
        report = self._report(trials=3)
        path = tmp_path / "out.csv"
        harness.emit_report(report, "csv", path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        by_t = {}
        for row in rows:
            by_t.setdefault(int(row["t"]), []).append(float(row["e_pro"]))
        with open(tmp_path / "out_summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 2
        for row in summary:
            t = int(row["t"])
            assert float(row["e_pro_median"]) == np.median(by_t[t])

    def test_json_roundtrip(self, tmp_path):
        report = self._report(trials=2)
        path = tmp_path / "out.json"
        harness.emit_report(report, "json", path)
        back = harness.report_from_json(path)
        assert back.rows == report.rows
        assert back.medians == report.medians
        assert back.config.to_json_dict() == report.config.to_json_dict()

    def test_json_rows_carry_lateral_diagnostics(self, tmp_path):
        report = self._report(trials=2, t_max=0, checkpoints=[])
        path = tmp_path / "out.json"
        harness.emit_report(report, "json", path)
        rows = json.loads(path.read_text())["rows"]
        # M starts at the identity: diagonal, a distance 1 above the floor
        assert [(r["offdiag_ratio"], r["floor_margin"]) for r in rows] == [
            (0.0, 1.0 - 1e-12)] * 2
        back = harness.report_from_json(path)
        assert [o.points for o in back.trials] == [o.points for o in report.trials]
        assert [p.offdiag_ratio for o in back.trials for p in o.points] == [0.0] * 2

    def test_json_report_without_diagnostics_loads(self, tmp_path):
        report = self._report(trials=2)
        obj = report.to_json_dict()
        for row in obj["rows"]:
            del row["offdiag_ratio"], row["floor_margin"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(obj))
        back = harness.report_from_json(path)
        assert back.rows == report.rows
        assert {(p.offdiag_ratio, p.floor_margin)
                for o in back.trials for p in o.points} == {(None, None)}

    def test_rows_keep_the_shapes_the_benchmark_reads(self):
        # perfbench unpacks a trial's rows as (t, e_pro) and a report's as
        # (t, trial, e_pro)
        report = self._report(trials=2, checkpoints=[100, 200])
        for out in report.trials:
            assert [t for t, _ in out.rows] == [100, 200]
            assert out.rows == [(p.t, p.e_pro) for p in out.points]
        assert report.rows == [(t, out.trial, e) for t in (100, 200)
                               for out in report.trials for tt, e in out.rows if tt == t]
        assert all(len(row) == 3 for row in report.rows)

    def test_each_outcome_owns_its_points(self):
        # a trial's record appends to its outcome's points in place
        a, b = harness.TrialOutcome(0, "completed"), harness.TrialOutcome(0, "completed")
        a.points.append(harness.EvalPoint(1, 0.5))
        assert a.points is not b.points and b.points == []

    @pytest.mark.parametrize("kind", ["diagnostics", "no-diagnostics", "diverged"])
    def test_json_reemission_is_byte_identical(self, tmp_path, kind):
        if kind == "diverged":
            report = harness.run_experiment(harness.parse_config(custom_config(
                task="psw", variant="iteration_free", trials=8, seed=1, t_max=200,
                schedule={"kind": "constant", "alpha": 0.2})))
            assert 0 < report.diverged < 8
        else:
            report = self._report(trials=3)
        path = tmp_path / "in.json"
        harness.emit_report(report, "json", path)
        if kind == "no-diagnostics":  # as written before diagnostics existed
            obj = json.loads(path.read_text())
            for row in obj["rows"]:
                del row["offdiag_ratio"], row["floor_margin"]
            path.write_text(json.dumps(obj, indent=2) + "\n")
        again = tmp_path / "again.json"
        harness.emit_report(harness.report_from_json(path), "json", again)
        assert again.read_bytes() == path.read_bytes()

    def _edited_report(self, tmp_path, edit, trials=2):
        obj = self._report(trials=trials).to_json_dict()
        edit(obj)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("key, value", BAD_ECHO_VALUES.values(),
                             ids=list(BAD_ECHO_VALUES))
    def test_config_echo_values_checked(self, tmp_path, key, value):
        path = self._edited_report(
            tmp_path, lambda obj: obj["config"].update({key: value}))
        with pytest.raises(ReportFormatError, match=key):
            harness.report_from_json(path)

    def test_config_echo_missing_key_rejected(self, tmp_path):
        path = self._edited_report(tmp_path, lambda obj: obj["config"].pop("workers"))
        with pytest.raises(ReportFormatError, match="missing \\['workers'\\]"):
            harness.report_from_json(path)

    def test_config_echo_extra_key_rejected(self, tmp_path):
        path = self._edited_report(
            tmp_path, lambda obj: obj["config"].update(junk=1))
        with pytest.raises(ReportFormatError, match="unknown \\['junk'\\]"):
            harness.report_from_json(path)

    def test_report_config_reruns(self):
        # a report's config echo is a config, and it reproduces the run
        report = self._report(trials=2, mode="offline", fixed_rotation=True)
        echo = json.dumps(report.to_json_dict()["config"])
        rerun = harness.run_experiment(harness.parse_config(echo))
        assert rerun.comparable() == report.comparable()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([make_config(trials=1), custom_config(trials=1),
                            make_config(preset="large", mode="offline",
                                        task="psw", variant="exact")]),
           st.sampled_from(sorted(harness._KNOWN_KEYS)),
           PLAUSIBLE_VALUES | JSON_VALUES)
    def test_config_echo_checked_like_a_config(self, tmp_path, text, key, value):
        # one validator: an edited echo loads exactly when it parses as a
        # config, and then to the same config
        obj = tiny_report(harness.parse_config(text))
        obj["config"][key] = value
        path = tmp_path / "edited.json"
        try:
            expected = harness.parse_config(json.dumps(obj["config"]))
        except (ConfigParseError, ConfigValidationError):
            path.write_text(json.dumps(obj))
            with pytest.raises(ReportFormatError):
                harness.report_from_json(path)
            return
        # rows at the evaluation points of the edited config
        obj.update({k: tiny_report(expected)[k] for k in ("rows", "medians")})
        path.write_text(json.dumps(obj))
        if expected.trials != 1:  # then the one trial record is too few
            with pytest.raises(ReportFormatError, match="trial records"):
                harness.report_from_json(path)
            return
        back = harness.report_from_json(path).config
        assert back.to_json_dict() == expected.to_json_dict()

    @staticmethod
    def _diverge(obj, **fields):
        # trial 0 of two diverged: its rows go, and each median is trial 1's row
        obj["diverged"] = 1
        obj["trials"][0].update({"status": "diverged", "diverged_at": 3,
                                 "cause": "DegenerateDiagonalError: x", **fields})
        obj["rows"] = [r for r in obj["rows"] if r["trial"] == 1]
        obj["medians"] = [{"t": r["t"], "e_pro": r["e_pro"]} for r in obj["rows"]]

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["trials"][0].update(status="bogus"),
        lambda obj: obj["trials"][0].update(trial="1"),
        lambda obj: obj.update(diverged="lots"),
        lambda obj: obj.update(diverged=1),
        lambda obj: obj["trials"][0].update(status="diverged"),
        lambda obj: TestEmitReport._diverge(obj, diverged_at="x"),
        lambda obj: TestEmitReport._diverge(obj, cause=5),
        lambda obj: obj["trials"][0].update(diverged_at=3),
        lambda obj: obj["trials"][0].update(cause="x"),
        lambda obj: obj["trials"][0].update(wall_clock_s="slow"),
        lambda obj: obj["rows"][0].update(e_pro="0.5"),
        lambda obj: obj["rows"][0].update(e_pro=True),
        lambda obj: obj["rows"][0].update(offdiag_ratio="0"),
        lambda obj: obj["medians"][0].update(e_pro=None),
    ], ids=["status", "trial", "diverged-type", "diverged-count",
            "diverged-status-count", "diverged_at-type", "cause-type",
            "completed-diverged_at", "completed-cause", "wall_clock_s",
            "e_pro-string", "e_pro-bool", "offdiag_ratio", "median-e_pro"])
    def test_trial_records_checked(self, tmp_path, edit):
        path = self._edited_report(tmp_path, edit)
        with pytest.raises(ReportFormatError):
            harness.report_from_json(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj["medians"][0].update(e_pro=123.0),
         "medians at t=\\[100\\] are not"),
        (lambda obj: obj["medians"][0].update(
            e_pro=float(np.nextafter(obj["medians"][0]["e_pro"], 1.0))),
         "medians at t=\\[100\\] are not"),
        (lambda obj: obj["rows"].append({**obj["rows"][0], "trial": 7}),
         "row \\(t=100, trial=7\\) is not of a completed trial"),
        (lambda obj: obj["rows"].append(dict(obj["rows"][0])), "more than one row"),
        (lambda obj: obj["medians"].pop(), "medians at t=\\[100\\], rows at"),
        (lambda obj: obj["medians"].append({"t": 300, "e_pro": 0.5}),
         "medians at t=\\[100, 200, 300\\], rows at"),
        (lambda obj: (obj["trials"][0].update(
            status="diverged", diverged_at=3, cause="x"), obj.update(diverged=1)),
         "row \\(t=100, trial=0\\) is not of a completed trial"),
    ], ids=["median-value", "median-ulp", "row-of-unknown-trial", "duplicate-row",
            "median-missing", "median-extra", "row-of-diverged-trial"])
    def test_rows_checked_against_trials(self, tmp_path, edit, message):
        path = self._edited_report(tmp_path, edit, trials=1)
        with pytest.raises(ReportFormatError, match=message):
            harness.report_from_json(path)

    @pytest.mark.parametrize("edit, message", TRIAL_RECORD_EDITS.values(),
                             ids=list(TRIAL_RECORD_EDITS))
    def test_trial_records_checked_against_config(self, tmp_path, edit, message):
        path = write_trial_record_report(tmp_path / "edited.json", edit)
        with pytest.raises(ReportFormatError, match=message):
            harness.report_from_json(path)

    @pytest.mark.parametrize("t", [0, 50])
    def test_divergence_at_either_end_of_the_run_loads(self, tmp_path, t):
        path = write_trial_record_report(tmp_path / "edited.json",
                                         lambda obj: _diverged_at(obj, t))
        back = harness.report_from_json(path)
        assert (back.trials[0].diverged_at, back.diverged) == (t, 1)

    @pytest.mark.parametrize("edit, message", OFF_POINT_EDITS.values(),
                             ids=list(OFF_POINT_EDITS))
    def test_rows_checked_against_evaluation_points(self, tmp_path, edit, message):
        path = self._edited_report(tmp_path, edit, trials=1)
        with pytest.raises(ReportFormatError, match=message):
            harness.report_from_json(path)

    @pytest.mark.parametrize("text", [
        custom_config(task="psw", variant="iteration_free",
                      schedule={"kind": "constant", "alpha": 0.2},
                      trials=8, seed=1, t_max=200),
        custom_config(task="psw", variant="iteration_free", mode="offline",
                      schedule={"kind": "constant", "alpha": 0.5},
                      trials=8, seed=1, t_max=200, checkpoints=[50]),
        custom_config(task="psw", variant="iteration_free",  # rows, then divergence
                      schedule={"kind": "constant", "alpha": 0.2},
                      trials=8, seed=1, t_max=200, checkpoints=[5, 50, 200]),
    ], ids=["online", "offline", "online-early-checkpoints"])
    def test_report_with_diverged_trials_loads(self, tmp_path, text):
        report = harness.run_experiment(harness.parse_config(text))
        assert 0 < report.diverged < 8
        path = tmp_path / "out.json"
        harness.emit_report(report, "json", path)
        back = harness.report_from_json(path)
        assert back.comparable() == report.comparable()

        def fields(trials):
            return [(o.trial, o.status, o.diverged_at, o.cause, o.points)
                    for o in trials]
        assert fields(back.trials) == fields(report.trials)

    def test_diverged_trial_records_load(self, tmp_path):
        (back, _) = harness.report_from_json(self._edited_report(
            tmp_path, TestEmitReport._diverge)).trials
        assert (back.status, back.diverged_at, back.cause) == (
            "diverged", 3, "DegenerateDiagonalError: x")
        # reports written before causes were recorded have none
        (back, _) = harness.report_from_json(self._edited_report(
            tmp_path, lambda obj: (TestEmitReport._diverge(obj),
                                   obj["trials"][0].pop("cause")))).trials
        assert (back.diverged_at, back.cause) == (3, None)

    def test_unknown_format_rejected(self, tmp_path):
        report = self._report(trials=1)
        with pytest.raises(ValueError):
            harness.emit_report(report, "xml", tmp_path / "out.xml")

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(report_objects())
    def test_any_json_converts_or_raises_report_error(self, tmp_path, obj):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        try:
            report = harness.report_from_json(path)
        except ReportFormatError:
            return
        harness.emit_report(report, "csv", tmp_path / "out.csv")


# (check, module, function, a fake that puts a NaN into what the check
# measures): a check that measures NaN must fail
NAN_MEASUREMENTS = [
    ("linalg.sym_eig_reconstruction", linalg, "sym_eig",
     lambda a: (np.full(len(a), np.nan), np.eye(len(a)))),
    ("linalg.svd_ordering", linalg, "svd_small",
     lambda a: (np.full((a.shape[0], min(a.shape)), np.nan),
                np.linalg.svd(a)[1], np.eye(a.shape[1], min(a.shape)))),
    ("linalg.solve_matches_eig_inverse", linalg, "lu_solve",
     lambda factors, b: np.full_like(b, np.nan)),
    ("model.two_step_equivalence", model, "forward",
     lambda state, x, variant: np.full(state.k, np.nan)),
    ("offline.fixed_point_certification", offline, "fixed_point_residual",
     lambda *args: np.nan),
    ("offline.linearization_agreement", offline, "jacobian_spectrum",
     lambda *args: np.full(3, np.nan)),
    ("offline.lateral_decay", metrics, "lateral_diagnostics",  # NaN after one run
     lambda m, calls=itertools.count(): (np.nan if next(calls) else 0.0, 1.0)),
    ("offline.monotone_tail", metrics, "procrustes_error", lambda *args: np.nan),
    ("data.stream_determinism", data, "sample_block",
     lambda spec, rng, count: np.full((count, spec.n), np.nan)),
    ("metrics.estimator_consistency", metrics, "procrustes_error",
     lambda *args: np.nan),
    ("metrics.closed_form_stationarity", metrics, "objective_psp",
     lambda *args: np.nan),
    ("metrics.closed_form_optimality", metrics, "objective_psp",
     lambda *args: np.nan),
]


class TestVerificationSuite:
    def test_filter_selects_checks(self):
        results = run_verification("linalg")
        assert results
        assert all(r.name.startswith("linalg.") for r in results)
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("check", [c for _, c in CHECKS],
                             ids=[name for name, _ in CHECKS])
    def test_check_passes(self, check):
        passed, detail = check()
        assert passed, detail

    @pytest.mark.parametrize("name, module, attr, fake", NAN_MEASUREMENTS,
                             ids=[case[0] for case in NAN_MEASUREMENTS])
    def test_nan_measurement_fails(self, monkeypatch, name, module, attr, fake):
        monkeypatch.setattr(module, attr, fake)
        [result] = run_verification(name)
        assert not result.passed, result.detail
        assert not result.detail.startswith("raised"), result.detail

    def test_verify_through_cli_main(self, capsys):
        assert cli.main(["verify", "--filter", "linalg"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("[PASS] linalg.") for line in lines[:-1])
        assert re.match(r"(\d+)/\1 checks passed", lines[-1])


class TestPackageNames:
    """``pcastream`` loads the verification suite on first use of
    ``run_verification``; every exported name still resolves."""

    def test_run_verification_is_the_suite_function(self):
        from pcastream import run_verification as lazy
        assert lazy is pcastream.run_verification is checks.run_verification

    def test_every_exported_name_resolves(self):
        namespace = {}
        exec("from pcastream import *", namespace)
        for name in pcastream.__all__:
            assert namespace[name] is getattr(pcastream, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pcastream.no_such_name
        with pytest.raises(ImportError):
            from pcastream import no_such_name  # noqa: F401


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pcastream.cli", *args],
        capture_output=True, text=True)


class TestCli:
    def test_run_loads_pool_only_for_several_workers(self, tmp_path):
        # cli.main in a fresh interpreter; prints its exit code and which of
        # the modules that slow start-up it loaded
        code = ("import sys; from pcastream import cli; code = cli.main(sys.argv[1:]); "
                "print(code, sorted(m for m in sys.modules if m in "
                "('multiprocessing', 'concurrent.futures.process', 'pcastream.checks')))")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_config(trials=2))
        loaded = {}
        for workers in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code, "run", "--config", str(cfg_path),
                 "--out", str(tmp_path / f"w{workers}.csv"), "--workers", workers],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            loaded[workers] = proc.stdout.splitlines()[-1]
        assert loaded["1"] == "0 []"
        assert loaded["2"] == "0 ['concurrent.futures.process', 'multiprocessing']"
        assert (tmp_path / "w1.csv").read_text() == (tmp_path / "w2.csv").read_text()

    def test_run_writes_reports(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_config(trials=1))
        out = tmp_path / "res.csv"
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert (tmp_path / "res_summary.csv").exists()
        assert "median_e_pro" in proc.stdout

    def test_run_json_report(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_config(trials=1))
        out = tmp_path / "res.json"
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(out),
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["diverged"] == 0

    @pytest.mark.parametrize("out", ["cfg.json", "cfg", "output_path"])
    def test_run_never_overwrites_config(self, tmp_path, out):
        cfg_path = tmp_path / ("cfg_summary.csv" if out == "cfg" else "cfg.json")
        text = make_config(trials=1, output_path=str(cfg_path)
                           if out == "output_path" else None)
        cfg_path.write_text(text)
        args = [] if out == "output_path" else ["--out", str(tmp_path / out)]
        proc = run_cli("run", "--config", str(cfg_path), "--format", "json", *args)
        assert proc.returncode == 2
        assert "refusing to overwrite the config" in proc.stderr
        assert "median_e_pro" not in proc.stdout  # refused before the run
        assert [p.name for p in tmp_path.iterdir()] == [cfg_path.name]
        assert cfg_path.read_text() == text

    def test_run_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_config(taus=1.0))
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "taus" in proc.stderr

    def test_run_non_numeric_value_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_config(checkpoints=["x"]))
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "checkpoints" in proc.stderr and "Traceback" not in proc.stderr

    def test_run_fractional_integer_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_config(t_max=5.7, checkpoints=[5]))
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "t_max" in proc.stderr and "Traceback" not in proc.stderr

    def test_m_init_at_floor_exits_2(self, tmp_path):
        # run and report alike: a named config error, not the traceback of
        # the initial state's floor test
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(custom_config(m_init=1e-300, t_max=2))
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "config error: m_init" in proc.stderr and "Traceback" not in proc.stderr
        obj = harness.run_experiment(harness.parse_config(
            custom_config(m_init=2e-12, t_max=2))).to_json_dict()
        obj["config"]["m_init"] = 1e-300
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("report", "--in", str(path))
        assert proc.returncode == 2
        assert "m_init must be above" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_w_init_std_drawing_infinite_weights_exits_2(self, tmp_path, workers):
        # the decoder cannot know the draws: the run ends in a named config error
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(custom_config(w_init_std=1e308, trials=2, t_max=2))
        out = tmp_path / "out.json"
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(out),
                       "--format", "json", "--workers", workers)
        assert proc.returncode == 2
        # with two stacks, the other one may step (and warn) before this ends
        assert proc.stderr.endswith("config error: w_init_std 1e+308 draws infinite weights\n")
        assert "Traceback" not in proc.stderr and not out.exists()

    def test_gain_whose_square_overflows_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(custom_config(**{"lambda": [1e200, 1e199]}))
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert proc.stderr == "config error: lambda[0] squared must be finite\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.floats(1e-300, 1.7e308),
           st.lists(st.floats(1e-300, 1.7e308), min_size=2, max_size=2, unique=True),
           st.sampled_from(["psp", "psw"]), st.sampled_from(["iteration_free", "exact"]),
           st.sampled_from(["online", "offline"]), st.integers(0, 5))
    @example(1e308, [1.0, 0.8], "psp", "exact", "online", 2)
    @example(1.0, [1e200, 1e199], "psp", "exact", "online", 2)
    def test_run_at_any_scale_ends_in_an_exit_code(self, tmp_path, w_init_std, lam, task,
                                                   variant, mode, t_max):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(custom_config(
            w_init_std=w_init_std, task=task, variant=variant, mode=mode, t_max=t_max,
            trials=2, **{"lambda": sorted(lam, reverse=True)}))
        assert cli.main(["run", "--config", str(cfg_path)]) in (0, 1, 2)

    @pytest.mark.parametrize("content", [
        HUGE_N_CONFIG.encode(), b"\xff\xfe" + make_config().encode(),
        make_config().encode().replace(b"small", b"sm\xe4ll")],
        ids=["huge-n", "utf-16-bom", "latin-1"])
    def test_run_unreadable_config_exits_2(self, tmp_path, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "Traceback" not in proc.stderr

    def test_missing_config_exits_2(self):
        proc = run_cli("run", "--config", "/nonexistent/cfg.json")
        assert proc.returncode == 2

    def test_gen_data_roundtrip(self, tmp_path):
        out = tmp_path / "xs.csv"
        proc = run_cli("gen-data", "--preset", "small", "--samples", "20",
                       "--seed", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        xs = data.read_dataset(out)
        assert xs.shape == (20, 10)
        out2 = tmp_path / "xs2.csv"
        run_cli("gen-data", "--preset", "small", "--samples", "20",
                "--seed", "5", "--out", str(out2))
        assert out.read_text() == out2.read_text()

    def test_verify_filter(self):
        proc = run_cli("verify", "--filter", "schedule_values")
        assert proc.returncode == 0, proc.stdout
        assert "[PASS] data.schedule_values" in proc.stdout

    def test_verify_unmatched_filter_exits_2(self):
        proc = run_cli("verify", "--filter", "no_such_check")
        assert proc.returncode == 2

    def test_report_conversion(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_config(trials=1))
        json_path = tmp_path / "res.json"
        run_cli("run", "--config", str(cfg_path), "--out", str(json_path),
                "--format", "json")
        proc = run_cli("report", "--in", str(json_path), "--out",
                       str(tmp_path / "res.csv"))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "res.csv").read_text().splitlines()
        assert lines[0] == "t,trial,e_pro"
        assert len(lines) == 3

    @pytest.mark.parametrize("text", [
        custom_config(task="psw", variant="iteration_free", mode="offline",
                      schedule={"kind": "constant", "alpha": 0.5},
                      trials=8, seed=1, t_max=200, checkpoints=[50]),
        make_config(trials=2, t_max=0, checkpoints=[]),
    ], ids=["offline-diverged", "t_max-0"])
    def test_report_writes_the_csv_of_run(self, tmp_path, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        for fmt in ("csv", "json"):
            proc = run_cli("run", "--config", str(cfg_path), "--format", fmt,
                           "--out", str(tmp_path / f"run.{fmt}"))
            assert proc.returncode == 0, proc.stderr
        proc = run_cli("report", "--in", str(tmp_path / "run.json"), "--out",
                       str(tmp_path / "report.csv"))
        assert proc.returncode == 0, proc.stderr
        for suffix in (".csv", "_summary.csv"):
            assert ((tmp_path / f"report{suffix}").read_bytes()
                    == (tmp_path / f"run{suffix}").read_bytes())

    @pytest.mark.parametrize("text, cause", EXTREME_SCALE_CONFIGS.values(),
                             ids=list(EXTREME_SCALE_CONFIGS))
    def test_extreme_scales_report_reads_run(self, tmp_path, text, cause):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "run.json"
        proc = run_cli("run", "--config", str(cfg_path), "--format", "json",
                       "--out", str(out))
        # a run without a completed trial exits 1
        assert proc.returncode == (1 if cause else 0), proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

        def refuse(constant):
            raise ValueError(f"{constant} in the report")

        obj = json.loads(out.read_text(), parse_constant=refuse)
        assert [(trial["diverged_at"], trial["cause"]) for trial in obj["trials"]] == [
            (0 if cause else None, cause)]
        proc = run_cli("report", "--in", str(out))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("edit, _", OFF_POINT_EDITS.values(),
                             ids=list(OFF_POINT_EDITS))
    def test_report_rows_off_evaluation_points_exit_2(self, tmp_path, edit, _):
        obj = harness.run_experiment(
            harness.parse_config(make_config(trials=1))).to_json_dict()
        edit(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("report", "--in", str(path))
        assert proc.returncode == 2
        assert "evaluation points" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit, message", TRIAL_RECORD_EDITS.values(),
                             ids=list(TRIAL_RECORD_EDITS))
    def test_report_bad_trial_records_exit_2(self, tmp_path, edit, message):
        path = write_trial_record_report(tmp_path / "bad.json", edit)
        proc = run_cli("report", "--in", str(path))
        assert proc.returncode == 2
        assert re.search(message, proc.stderr) and "Traceback" not in proc.stderr

    def _json_report(self, path):
        obj = harness.run_experiment(
            harness.parse_config(make_config(trials=1))).to_json_dict()
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(obj))
        return path.read_text()

    def test_report_default_out_beside_input(self, tmp_path):
        self._json_report(tmp_path / "runs.d" / "out")
        proc = run_cli("report", "--in", str(tmp_path / "runs.d" / "out"))
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (tmp_path / "runs.d").iterdir()) == [
            "out", "out.csv", "out_summary.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.d"]

    @pytest.mark.parametrize("out", [None, "res.csv", "res"])
    def test_report_never_overwrites_input(self, tmp_path, out):
        # a JSON report under a .csv name is its own default output
        path = tmp_path / "res.csv"
        text = self._json_report(path)
        if out == "res":  # the summary of res would be ..._summary.csv
            path = path.rename(tmp_path / "res_summary.csv")
        args = ["--out", str(tmp_path / out)] if out else []
        proc = run_cli("report", "--in", str(path), *args)
        assert proc.returncode == 2
        assert "input report" in proc.stderr and "Traceback" not in proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_text() == text

    def test_usage_error_exits_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    @pytest.mark.parametrize("text", ['{"rows": 1}', "not json"])
    def test_report_bad_input_exits_2(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        proc = run_cli("report", "--in", str(path))
        assert proc.returncode == 2
        assert "cannot read report" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, value", BAD_ECHO_VALUES.values(),
                             ids=list(BAD_ECHO_VALUES))
    def test_report_bad_config_echo_exits_2(self, tmp_path, key, value):
        obj = harness.run_experiment(
            harness.parse_config(make_config(trials=1))).to_json_dict()
        obj["config"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("report", "--in", str(path))
        assert proc.returncode == 2
        assert key in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("samples, seed, flag", [
        ("0", "5", "--samples"), ("-1", "5", "--samples"), ("20", "-1", "--seed")])
    def test_gen_data_out_of_range_flag_exits_2(self, tmp_path, samples, seed,
                                                flag):
        out = tmp_path / "xs.csv"
        proc = run_cli("gen-data", "--preset", "small", "--samples", samples,
                       "--seed", seed, "--out", str(out))
        assert proc.returncode == 2
        assert flag in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_run_negative_workers_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(make_config(trials=1))
        proc = run_cli("run", "--config", str(cfg_path), "--workers", "-3")
        assert proc.returncode == 2
        assert "--workers" in proc.stderr and "Traceback" not in proc.stderr
