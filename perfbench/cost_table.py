"""Per-step cost table from traced online stepping.

    python3 perfbench/cost_table.py [--seed 1] [--out FILE]

For each preset and variant, runs one traced online experiment per task
(``workers=1``) with the spans of ``tracing.py`` installed, and divides
the inclusive time of the ``model.online_step``, ``model.forward.*`` and
``model.plasticity`` spans by their call counts. Checkpoint evaluation is
the inclusive time of ``metrics.estimate_subspace`` plus
``metrics.procrustes_error`` per checkpoint. Each row's times are
rescaled to the machine probe's reference speed with the mean of the
probes run just before and after it, as the benchmark's throughput is.
The four combinations run round-robin REPEATS times; each cell is the
median over repeats and its ``spread`` the (max - min) / median over
repeats, the noise against which a comparison is judged. Inclusive
times contain the wrappers of nested spans, so a step reads about a
microsecond high.
"""

import benchenv  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import json
import statistics
import sys

benchenv.import_program()

from pcastream import harness  # noqa: E402
from pcastream.model import Task, Variant  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

STEPS = {"small": 20000, "large": 3000}
CHECKPOINTS = 10
REPEATS = 5
FIELDS = ("step_us", "forward_us", "plasticity_us", "checkpoint_ms")
COMBOS = tuple((preset, variant) for preset in ("small", "large") for variant in Variant)


def cost_row(preset, variant, seed):
    steps = STEPS[preset]
    tracer = tracing.Tracer()
    probe_before = workloads.machine_probe()
    with tracing.traced(tracer):
        for task in Task:
            cfg = harness.parse_config(json.dumps({
                "preset": preset, "task": task.value, "variant": variant.value,
                "mode": "online", "trials": 1, "seed": seed, "t_max": steps,
                "checkpoints": list(range(steps // CHECKPOINTS, steps + 1,
                                          steps // CHECKPOINTS)),
            }))
            harness.run_experiment(cfg, workers=1)
    speed = workloads.PROBE_REF_S / (0.5 * (probe_before + workloads.machine_probe()))
    steps_done = tracer.calls["model.online_step"]
    per_step = {
        "step_us": tracer.total_s["model.online_step"],
        "forward_us": tracer.total_s[f"model.forward.{variant.value}"],
        "plasticity_us": tracer.total_s["model.plasticity"],
    }
    row = {"preset": preset, "variant": variant.value, "steps": steps_done}
    row.update({k: v * speed / steps_done * 1e6 for k, v in per_step.items()})
    evals = tracer.calls["metrics.procrustes_error"]
    row["checkpoint_ms"] = (tracer.total_s["metrics.estimate_subspace"]
                            + tracer.total_s["metrics.procrustes_error"]) * speed / evals * 1e3
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = [[cost_row(preset, variant, args.seed) for preset, variant in COMBOS]
            for _ in range(REPEATS)]
    rows = []
    for combo_runs in zip(*runs):
        row = dict(combo_runs[0])
        row["spread"] = {}
        for field in FIELDS:
            values = [r[field] for r in combo_runs]
            row[field] = statistics.median(values)
            row["spread"][field] = (max(values) - min(values)) / row[field]
        rows.append(row)
    print("| preset | variant | step | forward | plasticity | checkpoint |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        cells = [f"{r[f]:.2f}" if f == "checkpoint_ms" else f"{r[f]:.0f}" for f in FIELDS]
        print(f"| {r['preset']} | {r['variant']} | " + " | ".join(
            f"{cell} {'ms' if f == 'checkpoint_ms' else 'µs'} ±{r['spread'][f] / 2:.0%}"
            for f, cell in zip(FIELDS, cells)) + " |")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"command": ["python3"] + sys.argv, "repeats": REPEATS,
                       "environment": benchenv.environment(), "rows": rows},
                      fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
