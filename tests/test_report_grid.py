"""Every report of the committed grid (``tests/report_grid.py``) still has
its committed digest: a change that claims byte-identical reports cites
this test. The digests hold for one numpy and BLAS build at one BLAS
thread; on another build the test skips and says why."""

import json
import os
import subprocess
import sys

import pytest
import report_grid  # next to this file, which pytest puts on sys.path


def test_grid_reports_match_committed_digests():
    with open(report_grid.DIGESTS, encoding="utf-8") as fh:
        committed = json.load(fh)
    src = os.path.join(os.path.dirname(os.path.dirname(report_grid.DIGESTS)), "src")
    env = {**os.environ, **{var: "1" for var in report_grid.THREAD_VARS},
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, report_grid.__file__], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    now = json.loads(proc.stdout)
    build = {key: now[key] for key in ("numpy", "blas", "blas_threads")}
    made = {key: committed[key] for key in build}
    if build != made:
        pytest.skip(f"digests were made on {made}, this is {build}")
    assert now["digests"].keys() == committed["digests"].keys()
    changed = sorted(name for name, digest in now["digests"].items()
                     if digest != committed["digests"][name])
    assert not changed, f"reports changed: {changed}"


def test_grid_covers_what_it_promises():
    names = [name for name, _ in report_grid.grid()]
    assert len(names) == len(set(names)) == 64 + 8 + 3 * len(report_grid.DIVERGING)
    configs = dict(report_grid.grid())
    assert {c["t_max"] for c in configs.values()} >= {0, 2500, 1500}
    assert {1, 1024, 1025} <= set(report_grid.CHECKPOINTS)
    assert configs["offline-w_init_std-1e300-workers2"]["w_init_std"] == 1e300
