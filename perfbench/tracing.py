"""Per-layer spans recorded from outside the program.

The program under test is not instrumented. Instead, while a traced
round runs, each public function listed in ``BINDINGS`` is replaced by a
timing wrapper at the exact name its callers look it up (for example
``harness.online_step``, which ``harness`` imported from ``model``, or
``offline.neural_filter``), and every original is put back afterwards.

A span's self time is its duration minus the durations of the spans it
directly caused, so the self times of one call tree add up to at most
the wall time of that tree.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from pcastream import data, harness, linalg, metrics, model, offline
from pcastream.model import Variant


def _forward_span(state, x, variant):
    if variant is Variant.EXACT_INVERSE:
        return "model.forward.exact"
    return "model.forward.iteration_free"


# (module holding the binding, attribute, span name or function of the
# call's arguments returning the span name)
BINDINGS = (
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "online_step", "model.online_step"),
    (model, "forward", _forward_span),
    (model, "plasticity", "model.plasticity"),
    (offline, "neural_filter", "model.neural_filter"),
    (data, "sample_block", "data.sample_block"),
    (data, "haar_orthogonal", "data.haar_orthogonal"),
    (metrics, "ground_truth", "metrics.ground_truth"),
    (metrics, "estimate_subspace", "metrics.estimate_subspace"),
    (metrics, "procrustes_error", "metrics.procrustes_error"),
    (linalg, "sym_eig", "linalg.sym_eig"),
    (linalg, "qr", "linalg.qr"),
    (linalg, "svd_small", "linalg.svd_small"),
    (linalg, "lu_factor", "linalg.lu_factor"),
    (linalg, "lu_solve", "linalg.lu_solve"),
    (offline, "run_offline", "offline.run_offline"),
    (offline, "offline_step", "offline.offline_step"),
    (offline, "construct_fixed_point", "offline.construct_fixed_point"),
    (offline, "fixed_point_residual", "offline.fixed_point_residual"),
    (offline, "jacobian_spectrum", "offline.jacobian_spectrum"),
)

SPANS = tuple(sorted(
    {name for _, _, name in BINDINGS if isinstance(name, str)}
    | {"model.forward.iteration_free", "model.forward.exact"}))

MODULES = ("harness", "data", "model", "linalg", "metrics", "offline")


class Tracer:
    """In-memory span totals: call count, self time and inclusive time."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._open = []  # child time accumulated by each open span

    def wrap(self, name, fn):
        open_spans = self._open

        def span(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = open_spans.pop()
                self.calls[label] += 1
                self.total_s[label] += elapsed
                self.self_s[label] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        span.__wrapped__ = fn
        return span

    def module_self_s(self, module):
        prefix = module + "."
        return sum(s for k, s in self.self_s.items() if k.startswith(prefix))


@contextmanager
def traced(tracer):
    """Install ``tracer``'s wrappers on every binding; restore on exit."""
    originals = []
    try:
        for module, attr, name in BINDINGS:
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
