"""The names that the benchmark's tracer binds resolve in the package.

``perfbench/tracing.py`` wraps each entry of its ``BINDINGS`` at the name
its callers look it up, with ``getattr``; a refactor that drops one of
those names (``linalg.lu_solve``, or ``harness``'s import of
``online_step``) would otherwise break only traced benchmark runs, which
no test under ``tests`` starts.
"""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_every_bound_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # imports only the package and the standard library
    assert tracing.BINDINGS
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.BINDINGS
               if not callable(getattr(module, attr, None))]
    assert missing == []
