"""Per-layer tracing from outside the program.

The tracer rebinds the public functions of every ``almostiso`` module to
span-recording wrappers, including the names other modules imported (for
example ``symmetry.triangular_batch`` and ``cli.almost_killing_dimension``),
so calls between layers are seen too.  Norm, metric and one-form fields
handed to the program are wrapped in counting evaluators.  Spans stay in
memory; :meth:`Tracer.metrics` reduces them to the per-layer metrics and
:meth:`Tracer.dump` writes them out.

A span's self time is its duration minus the time covered by its child
spans and by field evaluations made while it was the innermost span.
Field evaluations are too frequent (tens of thousands per distance solve)
to keep one span each; they are summed instead.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
import types

import numpy as np

LAYERS = ("metric", "geodesic", "chart", "symmetry", "duality", "curvature",
          "gallery", "cli", "report")

# Private functions the benchmark itself calls into, traced like public ones.
EXTRA = {"cli": ("_betterment_recovery",)}
# Called once per norm evaluation; covered by the counting norm wrapper.
HOT = {"metric.randers_eval"}


def _rows(a) -> int:
    a = np.atleast_2d(a)
    return a.size // a.shape[-1]


# Work sizes recorded on a span, from the call's arguments.
SIZERS = {
    "geodesic.distance_batch": lambda args, kw: _rows(args[1] if len(args) > 1 else kw["starts"]),
    "duality.dual_norm_eval": lambda args, kw: _rows(args[1] if len(args) > 1 else kw["xi"])
    * (args[2] if len(args) > 2 else kw["grid"]).m,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, child_s, size]
        self._stack = []
        self.field_s = 0.0
        self.f_calls = 0
        self.f_rows = 0
        self.solver_rows = 0
        self._in_field = False
        self._solver_depth = 0
        self._installed = []

    # -- spans ------------------------------------------------------------
    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        sizer = SIZERS.get(name)
        solver = name == "geodesic.distance_batch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            size = sizer(args, kwargs) if sizer else 0
            rec = [name, time.perf_counter(), 0.0, parent, 0.0, size]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            if solver:
                self._solver_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if solver:
                    self._solver_depth -= 1
                self._stack.pop()
                rec[2] = time.perf_counter()
                if parent >= 0:
                    self.spans[parent][4] += rec[2] - rec[1]

        return traced

    def install(self, package) -> None:
        """Rebind public functions of every layer module, everywhere imported.

        Also makes fields built inside the program count their evaluations:
        ``randers_metric`` results are wrapped wherever the name was
        imported, and ``build_gallery_entry`` results get counting g and tau.
        """
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                if f"{layer}.{attr}" in HOT:
                    continue
                wrappers[obj] = self._wrap(layer, obj)
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for mod in list(modules.values()) + [package]:
            for attr, make in (("randers_metric", self.norm), ("build_gallery_entry", self.entry)):
                traced = vars(mod).get(attr)
                if traced is None:
                    continue

                def counting(*a, _traced=traced, _make=make, **kw):
                    return _make(_traced(*a, **kw))

                self._installed.append((mod, attr, traced))
                setattr(mod, attr, functools.wraps(traced)(counting))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    # -- counting field wrappers ------------------------------------------
    def _timed_field(self, fn, is_norm: bool):
        def counted(x, *rest):
            if self._in_field:
                return fn(x, *rest)
            self._in_field = True
            t0 = time.perf_counter()
            try:
                return fn(x, *rest)
            finally:
                dt = time.perf_counter() - t0
                self._in_field = False
                self.field_s += dt
                if self._stack:
                    self.spans[self._stack[-1]][4] += dt
                if is_norm:
                    y = rest[0]          # MetricField.__call__ passes arrays
                    rows = y.size // y.shape[-1]
                    self.f_calls += 1
                    self.f_rows += rows
                    if self._solver_depth:
                        self.solver_rows += rows

        return counted

    def norm(self, F):
        """A counting copy of a ``MetricField``."""
        return dataclasses.replace(F, length_rate=self._timed_field(F.length_rate, True))

    def field(self, fld):
        """A counting copy of a ``RiemannianField``/``OneFormField``."""
        return dataclasses.replace(fld, components=self._timed_field(fld.components, False))

    def entry(self, entry):
        """A gallery entry whose g and tau count their evaluations."""
        return dataclasses.replace(entry, g=self.field(entry.g), tau=self.field(entry.tau))

    # -- reduction --------------------------------------------------------
    def _outermost(self, names) -> float:
        """Summed duration of spans in ``names`` not nested in another such span."""
        total = 0.0
        inside = set()
        for i, (name, t0, t1, parent, _, _) in enumerate(self.spans):
            if name not in names:
                continue
            p = parent
            nested = False
            while p >= 0:
                if p in inside:
                    nested = True
                    break
                p = self.spans[p][3]
            inside.add(i)
            if not nested:
                total += t1 - t0
        return total

    def _self(self, layer) -> float:
        return sum(t1 - t0 - child for name, t0, t1, _, child, _ in self.spans
                   if name.split(".")[0] == layer)

    def _count(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def _size(self, name) -> int:
        return sum(s[5] for s in self.spans if s[0] == name)

    def metrics(self) -> dict:
        problems = self._size("geodesic.distance_batch")
        gallery = {s[0] for s in self.spans if s[0].startswith("gallery.")}
        return {
            "metric.eval_s": (self.field_s, "s"),
            "metric.f_calls": (self.f_calls, "count"),
            "metric.f_rows": (self.f_rows, "count"),
            "geodesic.solve_s": (self._self("geodesic"), "s"),
            "geodesic.calls": (self._count("geodesic.distance_batch"), "count"),
            "geodesic.problems": (problems, "count"),
            "geodesic.rows_per_problem": (self.solver_rows / problems if problems else 0.0, "count"),
            "chart.flow_s": (self._outermost({"chart.flow_map"}), "s"),
            "symmetry.residual_s": (self._outermost({"symmetry.build_residual"}), "s"),
            "symmetry.nullspace_s": (self._outermost({"symmetry.nullspace_dimension"}), "s"),
            "symmetry.nullspace_calls": (self._count("symmetry.nullspace_dimension"), "count"),
            "duality.betterment_s": (self._outermost({"duality.betterment_covector"}), "s"),
            "duality.dual_products": (self._size("duality.dual_norm_eval"), "count"),
            "curvature.sweep_s": (self._outermost({"curvature.curvature_sweep"}), "s"),
            "curvature.planes": (self._count("curvature.sectional_curvature"), "count"),
            "gallery.build_s": (self._outermost(gallery), "s"),
            "cli.self_s": (self._self("cli"), "s"),
            "report.self_s": (self._self("report"), "s"),
        }

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": [
                {"name": n, "start": t0, "end": t1, "parent": p, "child_s": c, "size": b}
                for n, t0, t1, p, c, b in self.spans]}, fh)
