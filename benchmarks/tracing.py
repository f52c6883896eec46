"""Span recorder for the traced benchmark run.

The tracer wraps public names of ``smoothcdf`` from outside: each wrapped
call records one span (id, name, start, end, parent, thread).  Spans stay
in memory until the run ends.  A call made on a worker thread that has no
open span of its own is parented to the innermost open span of the thread
that installed the wrappers: the benchmark is one closed-loop client, so
any worker-thread call was caused by that span.
"""

import dataclasses
import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, thread]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, name, start, end, parent, threading.get_ident()])

    def wrap(self, name, fn):
        """``fn`` with every call recorded; ``name`` may be a function of the args."""
        naming = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(naming(*args, **kwargs), fn, *args, **kwargs)

        return traced

    def patch(self, owner, attr, name):
        """Replace ``owner.attr`` by its traced form until ``restore``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self):
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def traced_distribution(tracer, dist):
    """A copy of ``dist`` whose quantile function records spans."""
    return dataclasses.replace(dist, quantile=tracer.wrap("models.quantile", dist.quantile))


def install(tracer, sc):
    """Wrap the public names of every layer the benchmark measures."""
    models, simulation, estimators = sc.models, sc.simulation, sc.estimators
    theory, cli = sc.theory, sc.cli

    tracer.patch(models, "sample", "models.sample")
    tracer.patch(simulation, "samples_matrix", "simulation.samples_matrix")
    tracer.patch(simulation, "hermite_basis", "special.hermite_basis")
    tracer.patch(estimators, "hermite_basis", "special.hermite_basis")
    tracer.patch(simulation, "fit_from_spec", "estimators.fit_from_spec")
    tracer.patch(simulation, "parameter_sweep",
                 lambda cfg, *a, **k: f"simulation.sweep:{cfg.estimator_family}")
    tracer.patch(simulation, "mise_monte_carlo",
                 lambda cfg, *a, **k: f"simulation.sweep:{cfg.estimator_family}")
    tracer.patch(simulation, "normality_experiment", "simulation.normality_experiment")
    for fit_name in ("edf_fit", "szasz_fit", "bernstein_fit", "kernel_fit",
                     "hermite_half_fit", "hermite_half_standardized_fit"):
        tracer.patch(estimators, fit_name, "estimators.fit")
    for cls in (estimators.EmpiricalCDF, estimators.SzaszEstimator,
                estimators.BernsteinEstimator, estimators.KernelCDF,
                estimators.HermiteHalfEstimator):
        for method in ("evaluate", "quantile", "density"):
            if hasattr(cls, method):
                tracer.patch(cls, method,
                             lambda self, *a, _m=method, **k: f"estimators.{self.kind}.{_m}")
    tracer.patch(theory, "szasz_exact_moments", "theory.szasz_exact_moments")
    tracer.patch(theory, "run_theory_checks", "theory.run_theory_checks")
    tracer.patch(cli, "run_theory_checks", "theory.run_theory_checks")
    tracer.patch(cli, "main", lambda argv=None, *a, **k: f"cli.main:{argv[0] if argv else ''}")


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTable:
    """Durations and self times of one batch of spans."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                self.children[s[4]].append(s)

    def named(self, predicate):
        return [s for s in self.by_id.values() if predicate(s[1])]

    def duration(self, predicate, outermost=False):
        """Summed duration of the spans whose name satisfies ``predicate``.

        With ``outermost`` a span nested under another span of the
        same layer (the first dotted component of its name) is skipped,
        so a quantile's internal evaluations are not counted twice.
        """
        total = 0.0
        for s in self.named(predicate):
            if outermost and self._nested_in_layer(s):
                continue
            total += s[3] - s[2]
        return total

    def self_time(self, predicate):
        """Summed duration minus the union of each span's child intervals."""
        total = 0.0
        for s in self.named(predicate):
            kids = [(max(c[2], s[2]), min(c[3], s[3])) for c in self.children[s[0]]]
            total += (s[3] - s[2]) - _union_length([k for k in kids if k[1] > k[0]])
        return total

    def _nested_in_layer(self, span):
        layer = span[1].split(".", 1)[0]
        parent = self.by_id.get(span[4])
        return parent is not None and parent[1].split(".", 1)[0] == layer
