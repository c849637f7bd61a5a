"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import dataclasses
import json
import os
import time

import pytest

import run
import tracing
import workloads
from workloads import Battery, Certification, RunRecord

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def tiny(workload):
    """The workload's round shape at a size that runs in about a second."""
    batteries = tuple(
        dataclasses.replace(b, key="tiny-" + b.key, preset="small", trials=1,
                            t_max=200, checkpoints=(100, 200))
        for b in workload.batteries)
    cert = Certification(1, 1) if workload.certification else None
    return dataclasses.replace(workload, batteries=batteries, certification=cert)


@pytest.fixture(scope="module")
def bench():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def workload(request):
    return workloads.WORKLOADS[request.param]


def test_benchmark_json_lists_the_workloads(bench):
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_fast_correct_and_prints_listed_metrics(bench, workload, trace):
    start = time.perf_counter()
    result, info = run.measure(tiny(workload), seed=3, seconds=0.01,
                               trace=bool(trace), import_probes=1)
    assert time.perf_counter() - start < 30.0
    assert result["correct"], info["misses"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == listed


def test_traced_run_restores_bindings_and_bounds_self_time(workload):
    before = [(m, a, getattr(m, a)) for m, a, _ in tracing.BINDINGS]
    tracer = tracing.Tracer()
    inputs = workloads.build_round(tiny(workload), 5, 0)
    with tracing.traced(tracer):
        assert all(getattr(m, a) is not fn for m, a, fn in before)
        wall = workloads.run_round(tiny(workload), inputs, RunRecord())
    assert all(getattr(m, a) is fn for m, a, fn in before)
    assert tracer.calls and all(s >= 0.0 for s in tracer.self_s.values())
    assert sum(tracer.self_s.values()) <= wall
    assert set(tracer.calls) <= set(tracing.SPANS)


def test_bindings_restored_when_a_traced_call_raises():
    before = [(m, a, getattr(m, a)) for m, a, _ in tracing.BINDINGS]
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(getattr(m, a) is fn for m, a, fn in before)


def test_same_seed_same_inputs_and_rounds_differ(workload):
    a = workloads.build_round(workload, 11, 0)
    b = workloads.build_round(workload, 11, 0)
    c = workloads.build_round(workload, 11, 1)
    dump = [cfg.to_json_dict() for _, _, cfg in a.experiments]
    assert dump == [cfg.to_json_dict() for _, _, cfg in b.experiments]
    assert dump != [cfg.to_json_dict() for _, _, cfg in c.experiments]
    assert all(cfg.workers == 1 for _, _, cfg in a.experiments)


def test_reference_covers_every_battery_and_matches_its_shape(workload):
    ref = workloads.load_reference(workload)
    for battery in workload.batteries:
        assert set(ref["batteries"][battery.key]["pairs"]) == {
            workloads.pair_name(p) for p in battery.pairs}


def _record_with(battery, pair, errors):
    record = RunRecord()
    record.trials[(battery.key, pair)] = len(errors)
    record.errors[(battery.key, pair, battery.t_max)] = list(errors)
    return record


def test_gate_fails_every_trial_of_a_pair_outside_its_band():
    battery = workloads.WORKLOADS["stream-small"].batteries[0]
    workload = workloads.Workload("probe", (battery,))
    pair = battery.pairs[0]
    reference = {"batteries": {}, "stability": {}}
    ok = _record_with(battery, pair, [1e-3] * 5)
    workloads.gate(workload, ok, reference)
    assert ok.failed_ops == 0
    bad = _record_with(battery, pair, [1e-1] * 5)
    workloads.gate(workload, bad, reference)
    assert bad.failed_ops == 5 and "outside" in bad.misses[0]


def test_gate_scores_against_the_reference_median():
    battery = Battery("probe", "small", "online", workloads.PAIRS[:1], 1, 100, (100,))
    workload = workloads.Workload("probe", (battery,))
    pair = battery.pairs[0]
    reference = {"stability": {}, "batteries": {"probe": {"pairs": {
        workloads.pair_name(pair): {"t": 100, "median": 1e-3, "log_sd": 0.3, "n": 100}}}}}
    near = _record_with(battery, pair, [1.2e-3] * 10)
    workloads.gate(workload, near, reference)
    assert near.failed_ops == 0
    far = _record_with(battery, pair, [5e-3] * 10)
    workloads.gate(workload, far, reference)
    assert far.failed_ops == 10 and "reference" in far.misses[0]


def test_raising_experiment_counts_every_trial_failed():
    battery = workloads.WORKLOADS["stream-small"].batteries[0]
    cfg = workloads.build_round(workloads.WORKLOADS["stream-small"], 1, 0).experiments[0][2]
    record = RunRecord()
    workloads.record_experiments([(battery, battery.pairs[0], cfg, ValueError("x"))], record)
    assert record.failed_ops == cfg.trials == record.attempted
    assert workloads.accuracy_digits(workloads.Workload("probe", (battery,)), record) == 0.0


def test_gate_misses_count_in_completed_frac_and_correct(monkeypatch):
    workload = tiny(workloads.WORKLOADS["stream-small"])
    battery = workload.batteries[0]
    for pair in battery.pairs:
        monkeypatch.setitem(workloads.BANDS, (battery.key, pair, 200), (0.0, 1e-300))
    result, info = run.measure(workload, seed=3, seconds=0.01, trace=False, import_probes=1)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert result["metrics"]["completed_frac"]["value"] == 0.0
    assert all("outside" in line for line in info["misses"])
