"""Span tracing of anisoline's layers, installed from outside the program.

`Tracer` replaces each function or method in `TRACED` with a wrapper that
records one span per call: (name, start, end, parent index).  A
module-level function is rebound in every loaded anisoline module that
holds it, because `from .refine import refine` copies the name into
`fitting` and `solver`.  Leaving the `with` block puts every original back.

Spans stay in memory; `self_times` folds them into per-name self time
(duration minus the time covered by child spans) and call counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (span name, defining module, attribute; "Class.method" for methods).
# Span names are "<layer module>.<function>"; a constructor is named after
# its class.
TRACED = (
    ("tmesh.TMesh", "anisoline.tmesh", "TMesh.__init__"),
    ("tmesh.locate_cell", "anisoline.tmesh", "TMesh.locate_cell"),
    ("tmesh.split_cell", "anisoline.tmesh", "TMesh.split_cell"),
    ("tmesh.copy", "anisoline.tmesh", "TMesh.copy"),
    ("refine.refine", "anisoline.refine", "refine"),
    ("space.build_initial_space", "anisoline.space", "build_initial_space"),
    ("space.advance_level", "anisoline.space", "advance_level"),
    ("space.transfer_field", "anisoline.space", "transfer_field"),
    ("space.collocation_block", "anisoline.space", "collocation_block"),
    ("space.basis_on_cell", "anisoline.space", "SplineSpace.basis_on_cell"),
    ("space.eval_on_cell", "anisoline.space", "SplineField.eval_on_cell"),
    ("space.eval_many", "anisoline.space", "SplineField.eval_many"),
    ("geometry.derivatives_on_cell", "anisoline.geometry", "Geometry.derivatives_on_cell"),
    ("geometry.physical_diameter", "anisoline.geometry", "Geometry.physical_diameter"),
    ("solver.assemble", "anisoline.solver", "assemble"),
    ("solver.impose_boundary_conditions", "anisoline.solver", "impose_boundary_conditions"),
    ("solver.solve_linear", "anisoline.solver", "solve_linear"),
    ("solver.error_indicators", "anisoline.solver", "error_indicators"),
    ("solver.label_by_solution", "anisoline.solver", "label_by_solution"),
    ("solver.exact_error_norms", "anisoline.solver", "exact_error_norms"),
    ("fitting.assign_cells", "anisoline.fitting", "ParamPointSet.assign_cells"),
    ("fitting.update_cells", "anisoline.fitting", "ParamPointSet.update_cells"),
    ("fitting.estimate_vertex_controls", "anisoline.fitting", "estimate_vertex_controls"),
    ("fitting.label_by_curvature", "anisoline.fitting", "label_by_curvature"),
)

TRACED_NAMES = tuple(name for name, _, _ in TRACED)


class Tracer:
    """Records spans while installed; `observers` maps a span name to a
    callable that receives each return value of that function."""

    def __init__(self, observers=None):
        self.spans = []                  # [name, start, end, parent index]
        self.observers = dict(observers or {})
        self._stack = []
        self._saved = []                 # (owner, attribute, original)

    def __enter__(self):
        try:
            for name, module, attr in TRACED:
                self._install(name, importlib.import_module(module), attr)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name, fn):
        # kept flat: the wrapper runs once per call of the wrapped function,
        # tens of thousands of times per repetition for locate_cell
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _install(self, name, module, attr):
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, self._wrap(name, original))
            self._saved.append((owner, meth, original))
            return
        original = getattr(module, attr)
        wrapped = self._wrap(name, original)
        holders = [m for key, m in sorted(sys.modules.items())
                   if key.split(".")[0] == "anisoline" and m is not None
                   and vars(m).get(attr) is original]
        for holder in holders:
            setattr(holder, attr, wrapped)
            self._saved.append((holder, attr, original))

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """name -> (self seconds, calls), from a list of spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - covered[i], calls + 1)
    return out
