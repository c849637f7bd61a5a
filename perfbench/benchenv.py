"""Import this first: it pins BLAS to one thread before numpy loads.

Every entry script of the benchmark imports this module before anything
that imports numpy, so both sides of a comparison run the dense kernels
single-threaded. On a 2-core machine the default two BLAS threads made
large-preset runs slower and more variable than one thread. The
program's own threading (``workers``) is left alone; the benchmark
always passes ``workers=1``.
"""

import os
import platform
import subprocess
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import ``pcastream`` from this checkout's ``src`` and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import pcastream
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pcastream from {SRC}: {exc}")
    found = os.path.realpath(pcastream.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: pcastream imported from {found}, not {SRC}")
    return pcastream


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment():
    """Python, numpy, BLAS library and threads, cores, CPU and commit."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }
