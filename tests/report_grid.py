"""The committed report grid: one sha256 per report's ``comparable()`` JSON.

The grid runs every preset, mode, task and variant at 1 and 3 trials on 1
and 2 workers, with evaluation points at 1, inside the first chunk of
steps, at both edges of the chunk (1024 and 1025) and at t_max; runs of
t_max 0; and the custom configs whose trials diverge, each at several
worker counts. ``tests/test_report_grid.py`` runs this script in one
subprocess with BLAS pinned to one thread and compares its digests with
``tests/report_digests.json``, which records the numpy version, the BLAS
library and the thread count the digests were made with.

    python tests/report_grid.py            # print the digests as JSON
    python tests/report_grid.py --write    # regenerate report_digests.json

Run it with ``src`` on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1``
(and ``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``): large-preset reports
differ in their last bits at other thread counts.
"""

import hashlib
import itertools
import json
import os
import sys

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_digests.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
T_MAX = {"online": 2500, "offline": 1500}
CHECKPOINTS = [1, 400, 1024, 1025]


def _custom(**overrides):
    return {"preset": "custom", "task": "psp", "variant": "exact", "mode": "online",
            "n": 4, "k": 2, "lambda": [1.0, 0.8], "tau": 0.5,
            "spectrum": [1.0, 0.6, 0.3, 0.3],
            "schedule": {"kind": "constant", "alpha": 0.01}, **overrides}


# custom configs of which some or all trials diverge, or whose readouts
# overflow, by name; each runs at every worker count listed
DIVERGING = {
    "mixed-psw-iteration_free": _custom(
        task="psw", variant="iteration_free", trials=8, seed=1, t_max=200,
        schedule={"kind": "constant", "alpha": 0.2}),
    "mixed-psp-exact-overshoot": _custom(
        trials=8, seed=1, t_max=200,
        schedule={"kind": "piecewise", "pieces": [[3, 0.6], [None, 0.05]]}),
    "mixed-offline-psw-iteration_free": _custom(
        task="psw", variant="iteration_free", mode="offline", trials=8, seed=1,
        t_max=200, checkpoints=[50], schedule={"kind": "constant", "alpha": 0.5}),
    "all-diverge-alpha10": _custom(
        variant="iteration_free", trials=3, seed=1, t_max=50,
        schedule={"kind": "constant", "alpha": 10.0}),
    "filter-overflows": _custom(t_max=0, w_init_std=1e300, m_init=1e-10, trials=2),
    "procrustes-overflows": _custom(t_max=0, w_init_std=1e160, trials=2),
    "procrustes-product-overflows": _custom(
        t_max=0, w_init_std=2.07556714115463e307, seed=1, variant="iteration_free",
        trials=2, **{"lambda": [1.0, 0.25]}),
    "spectrum-1e300": _custom(mode="offline", t_max=3, trials=2,
                              spectrum=[1e300, 1e299, 1e298, 1e297]),
    "online-w_init_std-1e300": _custom(w_init_std=1e300, trials=2, t_max=5),
    "offline-w_init_std-1e300": _custom(mode="offline", w_init_std=1e300, trials=2,
                                        t_max=5),
    "gain-1e150": _custom(trials=2, t_max=5, **{"lambda": [1e150, 1e149]}),
}


def grid():
    """(name, config JSON) of every report in the grid, in a fixed order."""
    for preset, mode, task, variant, trials, workers in itertools.product(
            ("small", "large"), ("online", "offline"), ("psp", "psw"),
            ("iteration_free", "exact"), (1, 3), (1, 2)):
        cfg = {"preset": preset, "mode": mode, "task": task, "variant": variant,
               "trials": trials, "workers": workers, "seed": 3,
               "t_max": T_MAX[mode], "checkpoints": CHECKPOINTS}
        yield f"{preset}-{mode}-{task}-{variant}-trials{trials}-workers{workers}", cfg
    for preset, mode, workers in itertools.product(("small", "large"),
                                                   ("online", "offline"), (1, 2)):
        cfg = {"preset": preset, "mode": mode, "task": "psw", "variant": "exact",
               "trials": 3, "workers": workers, "seed": 4, "t_max": 0}
        yield f"{preset}-{mode}-t_max0-workers{workers}", cfg
    for (name, cfg), workers in itertools.product(DIVERGING.items(), (1, 2, 4)):
        yield f"{name}-workers{workers}", {**cfg, "workers": workers}


def build():
    """What the digests depend on besides the code: numpy, its BLAS and
    the BLAS thread count, as pinned through the environment."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def digests():
    from pcastream import harness

    out = {}
    for name, cfg in grid():
        report = harness.run_experiment(harness.parse_config(json.dumps(cfg)))
        text = json.dumps(report.comparable(), sort_keys=True)
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main(argv):
    result = {**build(), "digests": digests()}
    if argv[1:] == ["--write"]:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(result, sys.stdout, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
