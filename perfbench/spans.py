"""Timing spans around semismi's public functions, for traced runs only.

The package binds its functions with from-imports, so one function is
reachable under several module namespaces (``semismi.estimator`` calls
``sinkhorn_solve`` through its own global, the CLI calls ``fit`` through
``semismi.cli.fit``, and so on).  ``Tracer.install`` therefore replaces
every binding of each target function in every loaded ``semismi``
module with one wrapper, and ``Tracer.uninstall`` puts the original
objects back, so an untraced run calls exactly the functions the
package defines.

Spans stay in memory; ``Tracer.spans`` is written out once by the
caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (module, function) pairs timed in a traced run.  The span name is
#: ``"<module>.<function>"``; the module is the layer.
TARGETS = (
    ("kernels", "sample_basis"),
    ("kernels", "feature_columns"),
    ("density_ratio", "quadratic_term"),
    ("density_ratio", "mixed_linear_term"),
    ("density_ratio", "solve_alpha"),
    ("transport", "cost_matrix"),
    ("transport", "sinkhorn_solve"),
    ("transport", "plan_entropy"),
    ("estimator", "fit"),
    ("estimator", "objective"),
    ("estimator", "smi_estimate"),
    ("model_selection", "cross_validate"),
    ("model_selection", "holdout_error"),
    ("matching", "plan_to_assignment"),
    ("matching", "topk_accuracy"),
    ("data", "generate"),
    ("data", "load_table"),
    ("cli", "main"),
)

LAYERS = tuple(dict.fromkeys(module for module, _ in TARGETS))

#: Name of the root span that covers one whole operation.
OP = "op"


def _plan_counts(plan) -> dict:
    return {"sweeps": plan.iterations, "cap_hits": int(not plan.converged)}


def _fit_counts(result) -> dict:
    return {"outer_iters": result.iterations_run, "fits_converged": int(result.converged)}


def _cv_counts(report) -> dict:
    return {"grid_points": len(report.scores)}


#: Counts read off the object a traced function returns.
COUNTERS = {
    "transport.sinkhorn_solve": _plan_counts,
    "estimator.fit": _fit_counts,
    "model_selection.cross_validate": _cv_counts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals; overlaps count once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(spans[i])
    out = []
    for i, span in enumerate(spans):
        covered = covered_length(
            (max(c.start, span.start), min(c.end, span.end)) for c in children[i]
        )
        out.append(span.duration - covered)
    return out


def _semismi_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "semismi" or name.startswith("semismi."))]


def original_functions() -> dict:
    """The package's own function objects, keyed by span name."""
    return {
        f"{module}.{fn}": getattr(importlib.import_module(f"semismi.{module}"), fn)
        for module, fn in TARGETS
    }


class Tracer:
    """Records spans while installed; restores the package on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self._op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, original in original_functions().items():
            wrapper = self._wrap(name, original)
            for module in _semismi_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation; every span inside carries ``op_id``."""
        if self._stack:
            raise RuntimeError("operations cannot nest")
        self._op = op_id
        span = Span(OP, 0.0, 0.0, None, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._op = None


def wrapped_names() -> list[str]:
    """Bindings in loaded semismi modules that are still tracing wrappers."""
    return [
        f"{module.__name__}.{attr}"
        for module in _semismi_modules()
        for attr, value in list(vars(module).items())
        if getattr(value, "__perfbench_wrapper__", False)
    ]


def op_breakdown(spans) -> dict[int, dict]:
    """Per operation: total, self time and call count per span name, plus counts.

    Returns ``{op_id: {"wall": s, "unattributed": s, "total": {...},
    "self": {...}, "calls": {...}, "counts": {...}}}``.  The op root's
    self time is the unattributed remainder, so for properly nested
    spans ``unattributed + sum(self.values()) == wall``.
    """
    selfs = self_times(spans)
    ops: dict[int, dict] = {}
    for span, own in zip(spans, selfs):
        if span.name == OP:
            entry = ops.setdefault(span.op, _empty_op())
            entry["wall"] = span.duration
            entry["unattributed"] = own
    for span, own in zip(spans, selfs):
        if span.name == OP:
            continue
        entry = ops.setdefault(span.op, _empty_op())
        entry["total"][span.name] += span.duration
        entry["self"][span.name] += own
        entry["calls"][span.name] += 1
        for key, value in span.counts.items():
            entry["counts"][key] += value
    return ops


def _empty_op() -> dict:
    return {
        "wall": 0.0,
        "unattributed": 0.0,
        "total": defaultdict(float),
        "self": defaultdict(float),
        "calls": defaultdict(int),
        "counts": defaultdict(int),
    }
