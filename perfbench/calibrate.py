"""Record the reference medians of the correctness gate.

    python3 perfbench/calibrate.py [--out perfbench/reference.json]

Run at the seed commit only: the point of the references is that later
commits are scored against what the seed commit computed. For each
battery of every workload and each pair, one large experiment gives the
pooled median Procrustes error at the reference checkpoint (the last one
above the rounding floor) and the per-trial spread of its logarithm,
which sets the gate's tolerance. The stability spectra are the same for
every rotation of a preset's covariance, so their references are means
over a few covariances. Calibration seeds are derived from
``CALIBRATION_SEED``, which no tuning or held-out run uses.
"""

import benchenv  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import dataclasses
import json
import time

import numpy as np

benchenv.import_program()

from pcastream import data, harness, offline  # noqa: E402

import workloads  # noqa: E402

CALIBRATION_SEED = 1_000_000
TRIALS = {"online-small": 120, "online-large": 24,
          "offline-small": 24, "offline-large": 12}
STABILITY_COVARIANCES = 8
# Across rotations these finite-difference eigenvalues agree to about
# 3e-12 (recorded as "spread"); 1e-6 leaves room for rounding-level
# kernel changes and still pins each value to four digits.
STABILITY_TOLERANCE = 1e-6


def calibrate_battery(battery):
    big = dataclasses.replace(battery, trials=TRIALS[battery.key])
    pairs = {}
    for i, pair in enumerate(battery.pairs):
        seed = workloads.derive_seed(CALIBRATION_SEED, workloads.tag(battery.key), i)
        report = harness.run_experiment(
            harness.parse_config(big.config_text(pair, seed)), workers=1)
        if report.diverged:
            raise SystemExit(f"{battery.key} {workloads.pair_name(pair)}: "
                             f"{report.diverged} trials diverged")
        usable = [t for t in battery.checkpoints
                  if report.medians[t] > workloads.ROUNDING_FLOOR]
        t = max(usable)
        errors = np.array([e for tt, _, e in report.rows if tt == t])
        pairs[workloads.pair_name(pair)] = {
            "t": t, "median": float(np.median(errors)),
            "log_sd": float(np.std(np.log(errors), ddof=1)), "n": int(errors.size),
        }
        print(battery.key, workloads.pair_name(pair), pairs[workloads.pair_name(pair)],
              flush=True)
    return {"shape": battery.shape(), "seed": CALIBRATION_SEED, "pairs": pairs}


def calibrate_stability():
    preset = data.small_problem()
    out = {}
    for task, variant in workloads.PAIRS:
        tops, bads = [], []
        for i in range(STABILITY_COVARIANCES):
            g = data.build_covariance(preset.draw_covariance(
                data.RngStream(CALIBRATION_SEED, i)))
            fp = offline.construct_fixed_point(g, preset.lam, task)
            tops.append(offline.jacobian_spectrum(fp, g, task, variant)[0])
            bad = offline.construct_fixed_point(g, preset.lam, task,
                                                order=workloads.PERMUTED_ORDER)
            bads.append(offline.jacobian_spectrum(bad, g, task, variant)[0])
        spread = max(np.ptp(tops), np.ptp(bads))
        if spread > STABILITY_TOLERANCE / 10:
            raise SystemExit(f"stability spectra vary by {spread:.3g} across rotations")
        out[workloads.pair_name((task, variant))] = {
            "top": float(np.mean(tops)), "top_permuted": float(np.mean(bads)),
            "spread": float(spread), "tolerance": STABILITY_TOLERANCE,
        }
        print("stability", workloads.pair_name((task, variant)),
              out[workloads.pair_name((task, variant))], flush=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=workloads.REFERENCE_PATH)
    args = parser.parse_args()
    start = time.perf_counter()
    stability = calibrate_stability()
    batteries = {}
    for workload in workloads.WORKLOADS.values():
        for battery in workload.batteries:
            batteries[battery.key] = calibrate_battery(battery)
    reference = {
        "environment": benchenv.environment(),
        "batteries": batteries,
        "stability": stability,
        "elapsed_s": time.perf_counter() - start,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
