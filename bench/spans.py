"""Spans around the package's public functions, installed from outside.

``Tracer.install()`` replaces each traced function or method, wherever a
``preproj`` module binds it, by a wrapper that records a span: name, job,
start, end and parent span. ``SparseRref.add_row`` is too frequent for a
span per call; its calls, zero rows and time are added to the innermost
open span instead, so counts raised at the field boundary land where the
work happens. Spans stay in memory until the run ends.
"""

import sys
from time import perf_counter

# (module, attribute, span name): the layer boundaries that are spans
SPANS = [
    ("preproj.cli", "main", "cli.main"),
    ("preproj.quiver", "parse_quiver", "quiver.parse"),
    ("preproj.algebra", "GradedEngine.series", "algebra.series"),
    ("preproj.series", "closed_form", "series.closed_form"),
    ("preproj.series", "termwise_compare", "series.termwise_compare"),
    ("preproj.koszul", "golod_shafarevich_check", "koszul.gs"),
    ("preproj.koszul", "tor_dimensions", "koszul.tor"),
    ("preproj.torsion", "torsion_check", "torsion.check"),
    ("preproj.field", "smith_normal_form", "field.smith"),
]

# per-layer metric name -> unit, in the order they are reported
METRICS = {
    "quiver.parse_s": "s",
    "algebra.series_s": "s",
    "algebra.series_calls": "count",
    "algebra.basis_paths": "count",
    "algebra.echelon_rows": "count",
    "series.closed_form_s": "s",
    "koszul.gs_s": "s",
    "koszul.tor_s": "s",
    "koszul.tor_echelon_rows": "count",
    "koszul.tor_zero_rows": "count",
    "torsion.check_s": "s",
    "torsion.self_s": "s",
    "torsion.blocks": "count",
    "torsion.partial_blocks": "count",
    "torsion.fallback_rows": "count",
    "field.smith_s": "s",
    "field.smith_calls": "count",
    "field.smith_cells": "count",
    "field.add_row_s.q": "s",
    "field.add_row_s.gf": "s",
    "field.add_row_calls": "count",
    "field.pivot_ratio": "ratio",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
}


class Span:
    __slots__ = ("name", "job", "start", "end", "parent", "child_s",
                 "rows", "zero_rows", "rows_q_s", "rows_gf_s", "info")

    def __init__(self, name, job, parent):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0  # time in child spans and add_row calls
        self.rows = self.zero_rows = 0
        self.rows_q_s = self.rows_gf_s = 0.0
        self.info = {}

    def record(self):
        return {"name": self.name, "job": self.job, "start": self.start,
                "end": self.end, "parent": self.parent, "rows": self.rows,
                "zero_rows": self.zero_rows, "rows_q_s": self.rows_q_s,
                "rows_gf_s": self.rows_gf_s, **self.info}


def _bindings(target):
    """Every (owner, attribute) under preproj that binds target."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if name == "preproj" or name.startswith("preproj."):
            for attr, val in vars(mod).items():
                if val is target:
                    out.append((mod, attr))
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.stdout_bytes = 0

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.job, None if parent is None else parent[0])
        idx = len(self.spans)
        self.spans.append(span)
        self.stack.append((idx, span))
        span.start = perf_counter()
        return span

    def _close(self, span):
        span.end = perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1][1].child_s += span.end - span.start

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._annotate(span, args, kwargs, out)
            return out

        return traced

    def _annotate(self, span, args, kwargs, out):
        """Size counters read from a span's arguments and result, outside
        the timed interval."""
        if span.name == "algebra.series":
            engine = args[0]
            N = args[1] if len(args) > 1 else kwargs["N"]
            span.info["basis_paths"] = sum(len(engine.basis(d))
                                           for d in range(N + 1))
        elif span.name == "field.smith":
            m = args[0] if args else kwargs["m"]
            span.info["cells"] = m.rows * m.cols
        elif span.name == "torsion.check":
            span.info["blocks"] = len(out.entries)
            span.info["partial_blocks"] = len(out.partial_blocks)

    def wrap_add_row(self, fn):
        stack = self.stack

        def add_row(rref, *args, **kwargs):
            t0 = perf_counter()
            out = fn(rref, *args, **kwargs)
            dt = perf_counter() - t0
            if stack:
                span = stack[-1][1]
                span.rows += 1
                span.child_s += dt
                if out[0] is None:
                    span.zero_rows += 1
                if rref.field.p is None:
                    span.rows_q_s += dt
                else:
                    span.rows_gf_s += dt
            return out

        return add_row

    def install(self):
        import preproj.cli  # noqa: F401  (loads every module of the package)
        from preproj.field import SparseRref
        for modname, attr, name in SPANS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            fn = getattr(mod, attr)
            wrapped = self.wrap(name, fn)
            for owner, key in _bindings(fn):
                setattr(owner, key, wrapped)
        SparseRref.add_row = self.wrap_add_row(SparseRref.add_row)

    def metrics(self):
        """Per-layer totals over every span recorded so far."""
        total = {k: 0 for k in METRICS}
        rows = pivots = 0
        for s in self.spans:
            dur, info = s.end - s.start, s.info  # info is empty if s raised
            total["field.add_row_s.q"] += s.rows_q_s
            total["field.add_row_s.gf"] += s.rows_gf_s
            rows += s.rows
            pivots += s.rows - s.zero_rows
            if s.name == "quiver.parse":
                total["quiver.parse_s"] += dur
            elif s.name == "algebra.series":
                total["algebra.series_s"] += dur
                total["algebra.series_calls"] += 1
                total["algebra.basis_paths"] += info.get("basis_paths", 0)
                total["algebra.echelon_rows"] += s.rows
            elif s.name.startswith("series."):
                total["series.closed_form_s"] += dur
            elif s.name == "koszul.gs":
                total["koszul.gs_s"] += dur
            elif s.name == "koszul.tor":
                total["koszul.tor_s"] += dur
                total["koszul.tor_echelon_rows"] += s.rows
                total["koszul.tor_zero_rows"] += s.zero_rows
            elif s.name == "torsion.check":
                total["torsion.check_s"] += dur
                total["torsion.self_s"] += dur - s.child_s
                total["torsion.blocks"] += info.get("blocks", 0)
                total["torsion.partial_blocks"] += info.get(
                    "partial_blocks", 0)
                total["torsion.fallback_rows"] += s.rows
            elif s.name == "field.smith":
                total["field.smith_s"] += dur
                total["field.smith_calls"] += 1
                total["field.smith_cells"] += info.get("cells", 0)
            elif s.name == "cli.main":
                total["cli.self_s"] += dur - s.child_s
        total["field.add_row_calls"] = rows
        total["field.pivot_ratio"] = pivots / rows if rows else 0.0
        total["cli.stdout_bytes"] = self.stdout_bytes
        return total

    def records(self):
        return [s.record() for s in self.spans]
