"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads stream-small ...]
                                [--trace 0|1] [--out FILE]

Each run is ``perfbench/run.py`` in a fresh interpreter, one after the
other, for ``run_seconds`` of ``BENCHMARK.json``. For every metric, and
for the raw (not probe-rescaled) throughput and the certification time
of the ``# info:`` line, the summary gives the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median next to the metric's bound in ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()

    def tagged(tag):
        return next((json.loads(ln[len(tag):]) for ln in lines if ln.startswith(tag)), None)

    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed,
            "result": result, "env": tagged("# env: "), "info": tagged("# info: "),
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


INFO_FIGURES = ("raw_updates_per_s", "certify_s_median")


def figures(run):
    """{name: value} of a run's metrics and of its INFO_FIGURES as info.<name>."""
    out = {}
    if run["result"]:
        out.update((k, m["value"]) for k, m in run["result"]["metrics"].items())
    if run["info"]:
        out.update((f"info.{k}", run["info"][k]) for k in INFO_FIGURES if k in run["info"])
    return out


def summarize(runs, bounds):
    summary = {}
    per_run = [figures(r) for r in runs]
    for name in sorted({k for f in per_run for k in f}):
        values = [f[name] for f in per_run if name in f]
        med = statistics.median(values)
        entry = {"n": len(values), "median": med, "min": min(values), "max": max(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        if name in bounds:
            entry["bound"] = bounds[name]
        summary[name] = entry
    return summary


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    report = {"command": ["python3"] + sys.argv, "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, seconds, args.trace)
            runs.append(run)
            status = "ok" if run["exit"] == 0 else f"EXIT {run['exit']}"
            print(f"{workload} seed {seed}: {status} in {run['elapsed_s']:.1f}s", flush=True)
        summary = summarize(runs, bounds)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            if name in bounds or name == "info.raw_updates_per_s":
                spread = s.get("spread")
                print(f"  {name:18s} median {s['median']:.6g}  spread "
                      f"{spread if spread is None else round(spread, 4)}  bound {s.get('bound')}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
