"""pcastream benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload stream-small --seed 1 --seconds 25 --trace 0

Runs rounds of the workload (see ``workloads.py``) in this process with
``workers=1`` until ``--seconds`` have passed, checks every output, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` reruns each round with per-layer
spans installed and reports the per-layer metrics instead. Exits 1 if
any operation failed or if the program in ``src/`` cannot be imported
(without a result line), 2 on a usage error.
"""

import benchenv  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

benchenv.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

IMPORT_PROBES = 7
# Criterion 1 scores medians at T=1000 whose trials spread over orders
# of magnitude; with at least 9 pooled offline-small trials a correct
# program misses the band with probability below 1e-4 per pair.
MIN_ROUNDS = 3
# numpy is imported before the clock starts: its import is the same on
# both sides of any comparison and would hide the program's own set-up.
_PROBE = ("import sys, time, numpy; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
          "import pcastream; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
          "import workloads; print(t, workloads.machine_probe())")


def _at_reference_speed(seconds, probe_s):
    return seconds * workloads.PROBE_REF_S / probe_s


def import_seconds(count=IMPORT_PROBES):
    """Median time to import the program in a fresh interpreter with numpy loaded.

    Each import is rescaled by the machine probe run right after it.
    """
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", _PROBE, benchenv.SRC, HERE],
                             capture_output=True, text=True, timeout=120, check=True)
        seconds, probe_s = map(float, out.stdout.split())
        times.append(_at_reference_speed(seconds, probe_s))
    return statistics.median(times)


def _run_rounds(workload, seed, seconds, body):
    """Build and run rounds until ``seconds`` have passed and MIN_ROUNDS ran.

    Returns each round's build time, rescaled by a probe run just before.
    """
    start = time.perf_counter()
    build_s = []
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        probe_s = workloads.machine_probe()
        t0 = time.perf_counter()
        inputs = workloads.build_round(workload, seed, r)
        build_s.append(_at_reference_speed(time.perf_counter() - t0, probe_s))
        body(r, inputs)
        r += 1
    return build_s


def measure(workload, seed, seconds, trace, import_probes=IMPORT_PROBES):
    """Run one ``workloads.Workload``; returns (result dict, info dict)."""
    reference = workloads.load_reference(workload)
    record = workloads.RunRecord()
    info = {"workload": workload.name, "seed": seed}
    if not trace:
        build_s = _run_rounds(workload, seed, seconds,
                              lambda r, inputs: workloads.run_round(workload, inputs, record))
        workloads.gate(workload, record, reference)
        setup_import = import_seconds(import_probes) if import_probes else 0.0
        metrics = {
            "setup_s": (setup_import + statistics.median(build_s), "s"),
            "updates_per_s": (workloads.normalized_updates_per_s(record), "1/s"),
            "e_pro_digits_min": (workloads.accuracy_digits(workload, record), "digits"),
            "completed_frac": (1.0 - record.failed_ops / record.attempted, "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        info["import_s"] = setup_import
        info["build_s_median"] = statistics.median(build_s)
        info["raw_updates_per_s"] = statistics.median(
            u / s for u, s in zip(record.round_updates, record.round_s))
    else:
        tracer = tracing.Tracer()
        shadow = workloads.RunRecord()
        wall = {"plain": 0.0, "traced": 0.0}

        def body(r, inputs):
            # alternate which copy runs first so neither always gets warm caches
            for kind in ("plain", "traced") if r % 2 == 0 else ("traced", "plain"):
                if kind == "traced":
                    with tracing.traced(tracer):
                        wall[kind] += workloads.run_round(workload, inputs, shadow)
                else:
                    wall[kind] += workloads.run_round(workload, inputs, record)

        _run_rounds(workload, seed, seconds, body)
        if shadow.errors != record.errors or shadow.stability != record.stability:
            record.fail_cert("traced rounds produced different outputs than untraced ones")
        workloads.gate(workload, record, reference)
        rounds = len(record.round_s)
        metrics = {}
        for span in tracing.SPANS:
            metrics[f"{span}.calls"] = (tracer.calls[span] / rounds, "count/round")
            metrics[f"{span}.self_s"] = (tracer.self_s[span] / rounds, "s/round")
        for module in tracing.MODULES:
            metrics[f"{module}.self_share"] = (tracer.module_self_s(module) / wall["traced"], "1")
        metrics["trace.overhead"] = (wall["traced"] / wall["plain"], "1")
        info["traced_wall_s"] = wall["traced"]
        info["untraced_wall_s"] = wall["plain"]
    info["rounds"] = len(record.round_s)
    info["certify_s_median"] = statistics.median(record.certify_s)
    info["e_pro_medians"] = {
        f"{key} {workloads.pair_name(pair)} T={t}": med
        for (key, pair, t), med in sorted(
            workloads.pooled_medians(record).items(),
            key=lambda kv: (kv[0][0], workloads.pair_name(kv[0][1]), kv[0][2]))}
    info["misses"] = record.misses
    result = {
        "correct": record.failed_ops == 0,
        "attempted": record.attempted,
        "failed": record.failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    print("# env: " + json.dumps(benchenv.environment()), flush=True)
    result, info = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in info.pop("misses"):
        print("# miss: " + line)
    print("# info: " + json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
