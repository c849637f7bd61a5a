"""Acceptance suite.

Each test enforces one numbered acceptance criterion at its stated
tolerance and prints one pass/fail line. Criteria 1-4 run experiment
batteries through the harness; the expensive simulation fixtures are
shared across them, and their build time is what the runtime budgets
are checked against. Criteria 5-10 call the checks of
``pcastream.checks``, the same functions ``pcastream verify`` runs, at
the criteria's own seeds.
"""

import json
import time

import pytest

from pcastream import checks, harness
from pcastream.checks import ALL_PAIRS, pair_label
from pcastream.model import Task, Variant


def _criterion(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _check_criterion(number, seed, *check_funcs, budget=None):
    """Criterion ``number``: every check passes at ``seed``, and all of
    them together within ``budget`` seconds when one is given."""
    start = time.perf_counter()
    results = [check(seed) for check in check_funcs]
    elapsed = time.perf_counter() - start
    ok = all(passed for passed, _ in results)
    detail = "; ".join(d for _, d in results)
    if budget is not None:
        ok = ok and elapsed < budget
        detail += f"; runtime {elapsed:.1f}s<{budget:g}s"
    _criterion(number, ok, detail)


def _experiment(preset, mode, task, variant, trials, t_max, checkpoints, seed):
    cfg = harness.parse_config(json.dumps({
        "preset": preset, "task": task.value, "variant": variant.value,
        "mode": mode, "trials": trials, "seed": seed, "t_max": t_max,
        "checkpoints": list(checkpoints),
    }))
    return harness.run_experiment(cfg)


@pytest.fixture(scope="module")
def offline_small():
    start = time.perf_counter()
    reports = {}
    for pair in ALL_PAIRS:
        reports[pair] = _experiment("small", "offline", *pair, trials=3,
                                    t_max=5000, checkpoints=(100, 1000, 5000),
                                    seed=29)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def offline_large():
    start = time.perf_counter()
    reports = {}
    for pair in ALL_PAIRS:
        reports[pair] = _experiment("large", "offline", *pair, trials=1,
                                    t_max=5000, checkpoints=(1000, 5000),
                                    seed=31)
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def online_small():
    reports = {}
    elapsed = {}
    for pair in ALL_PAIRS:
        start = time.perf_counter()
        reports[pair] = _experiment("small", "online", *pair, trials=25,
                                    t_max=100000,
                                    checkpoints=(10000, 100000), seed=7)
        elapsed[pair] = time.perf_counter() - start
    return reports, elapsed


def test_criterion_01_offline_small_convergence(offline_small):
    reports, elapsed = offline_small
    limits_1000 = {
        (Task.PSP, Variant.ITERATION_FREE): 1e-6,
        (Task.PSP, Variant.EXACT_INVERSE): 1e-6,
        (Task.PSW, Variant.ITERATION_FREE): 1e-4,
        (Task.PSW, Variant.EXACT_INVERSE): 1e-4,
    }
    parts = []
    ok = elapsed < 5.0
    parts.append(f"runtime {elapsed:.1f}s<5s:{'yes' if ok else 'NO'}")
    for pair, report in reports.items():
        e1000 = report.medians[1000]
        e5000 = report.medians[5000]
        good = e1000 <= limits_1000[pair] and e5000 <= 1e-10
        ok &= good
        parts.append(f"{pair_label(*pair)} T1000={e1000:.1e} T5000={e5000:.1e}")
    _criterion(1, ok, "; ".join(parts))


def test_criterion_02_offline_large_convergence(offline_large):
    reports, elapsed = offline_large
    limits_5000 = {
        (Task.PSP, Variant.ITERATION_FREE): 1e-4,
        (Task.PSP, Variant.EXACT_INVERSE): 1e-6,
        (Task.PSW, Variant.ITERATION_FREE): 5e-3,
        (Task.PSW, Variant.EXACT_INVERSE): 5e-3,
    }
    ok = elapsed < 120.0
    parts = [f"runtime {elapsed:.1f}s<120s:{'yes' if ok else 'NO'}"]
    for pair, report in reports.items():
        e5000 = report.medians[5000]
        trend = report.medians[5000] < report.medians[1000]
        good = e5000 <= limits_5000[pair] and trend
        ok &= good
        parts.append(f"{pair_label(*pair)} T5000={e5000:.1e} decreasing:{trend}")
    _criterion(2, ok, "; ".join(parts))


def test_criterion_03_online_small_medians(online_small):
    reports, elapsed = online_small
    if_psp = reports[(Task.PSP, Variant.ITERATION_FREE)]
    if_psw = reports[(Task.PSW, Variant.ITERATION_FREE)]
    med_psp_1e4 = if_psp.medians[10000]
    med_psp_1e5 = if_psp.medians[100000]
    med_psw_1e4 = if_psw.medians[10000]
    runtime = elapsed[(Task.PSP, Variant.ITERATION_FREE)] + \
        elapsed[(Task.PSW, Variant.ITERATION_FREE)]
    diverged = if_psp.diverged + if_psw.diverged
    ok = (1e-5 <= med_psp_1e4 <= 5e-3
          and 1e-3 <= med_psw_1e4 <= 1e-1
          and med_psp_1e5 <= 1e-3
          and diverged == 0
          and runtime < 300.0)
    _criterion(3, ok,
               f"ifPSP T1e4={med_psp_1e4:.2e} in [1e-5,5e-3]; "
               f"ifPSW T1e4={med_psw_1e4:.2e} in [1e-3,1e-1]; "
               f"ifPSP T1e5={med_psp_1e5:.2e}<=1e-3; "
               f"diverged={diverged}; runtime {runtime:.0f}s<300s")


def test_criterion_04_online_variant_parity(online_small):
    reports, _ = online_small
    ratios = {}
    for task in Task:
        med_if = reports[(task, Variant.ITERATION_FREE)].medians[100000]
        med_ex = reports[(task, Variant.EXACT_INVERSE)].medians[100000]
        ratios[task] = med_if / med_ex
    diverged = sum(r.diverged for r in reports.values())
    ok = all(0.05 <= r <= 20.0 for r in ratios.values()) and diverged == 0
    _criterion(4, ok,
               f"ifPSP/PSP={ratios[Task.PSP]:.2f}, "
               f"ifPSW/PSW={ratios[Task.PSW]:.2f} in [0.05,20]; "
               f"diverged={diverged}")


def test_criterion_05_taylor_error_order():
    _check_criterion(5, 500, checks.check_approximation_order)


def test_criterion_06_fixed_point_certification():
    _check_criterion(6, 600, checks.check_fixed_point_certification,
                     budget=10.0)


def test_criterion_07_stability_dichotomy():
    _check_criterion(7, 700, checks.check_stability_dichotomy, budget=30.0)


def test_criterion_08_closed_form_optimum_oracles():
    _check_criterion(8, 800, checks.check_closed_form_stationarity,
                     checks.check_closed_form_optimality)


def test_criterion_09_procrustes_metric_suite():
    _check_criterion(9, 900, checks.check_procrustes_invariances)


def test_criterion_10_lateral_weight_decay():
    _check_criterion(10, 1000, checks.check_lateral_decay)
