"""Span tracer for calls into ambigcolor's public functions.

``Tracer.install()`` replaces each traced function by a wrapper in every
ambigcolor module namespace that binds it, so that calls between modules
(``maximality`` calling ``count_colorings``) are seen as well as the
benchmark's own calls.  Each call becomes one span (name, start, end,
parent, raised) kept in flat arrays in memory and written out at the end;
a generator yields one span per ``next()``.  ``is_perfect`` is recorded
per method, as ``perfection.is_perfect.definition`` and ``.holes``.
``aggregate()`` turns the spans into per-function call counts, inclusive
time and self time (inclusive time minus that of child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

MODULES = ("ambigcolor", "ambigcolor.graphcore", "ambigcolor.coloring",
           "ambigcolor.matrix", "ambigcolor.maximality", "ambigcolor.extremal",
           "ambigcolor.perfection", "ambigcolor.dfold", "ambigcolor.cli")

TRACED = {
    "graphcore": ("enumerate_graphs", "canonical_form", "are_isomorphic",
                  "build_graph", "clique_number"),
    "coloring": ("count_colorings", "enumerate_colorings", "chromatic_number"),
    "matrix": ("enumerate_desirable", "classify", "is_fully_indecomposable"),
    "maximality": ("verify_theorem1", "is_maximal_ambiguous",
                   "reconstruct_matrix"),
    "extremal": ("verify_turan_theorem", "brute_force_max_edges",
                 "enumerate_extremal"),
    "perfection": ("is_perfect",),
    "cli": ("main",),
}

IS_PERFECT = "perfection.is_perfect"
PERFECT_METHODS = ("definition", "holes")


def span_names():
    """Every span name the tracer can record, in report order."""
    out = []
    for mod, fns in TRACED.items():
        for fn in fns:
            base = f"{mod}.{fn}"
            if base == IS_PERFECT:
                out += [f"{base}.{m}" for m in PERFECT_METHODS]
            else:
                out.append(base)
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        from ambigcolor.errors import ResourceLimitError
        self._clock = clock
        self._limit_error = ResourceLimitError
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        # generators: name id -> invocations; and values yielded by
        # enumerate_desirable
        self.invocations = {}
        self.desirable_items = 0
        self._stack = [-1]
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(self._clock())
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, exc=None):
        self.end[idx] = self._clock()
        if isinstance(exc, self._limit_error):
            self.raised[idx] = 1
        self._stack.pop()

    def _wrap(self, base, fn):
        tracer = self
        if base == IS_PERFECT:
            sig = inspect.signature(fn)

            def pick(args, kwargs):
                method = sig.bind(*args, **kwargs).arguments.get(
                    "method", sig.parameters["method"].default)
                return tracer._ids[f"{base}.{method}"]
        else:
            name_id = self._ids[base]

            def pick(args, kwargs):
                return name_id

        if inspect.isgeneratorfunction(fn):
            counts_items = base == "matrix.enumerate_desirable"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                nid = pick(args, kwargs)
                tracer.invocations[nid] = tracer.invocations.get(nid, 0) + 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException as exc:
                        tracer._close(idx, exc)
                        raise
                    tracer._close(idx)
                    tracer.desirable_items += counts_items
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(pick(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, exc)
                raise
            tracer._close(idx)
            return out
        return wrapper

    def install(self):
        mods = [importlib.import_module(m) for m in MODULES]
        for short, fns in TRACED.items():
            home = importlib.import_module(f"ambigcolor.{short}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{short}.{fn_name}", original)
                for mod in mods:
                    if mod.__dict__.get(fn_name) is original:
                        self._saved.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapped)

    def uninstall(self):
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()

    # -- reporting ----------------------------------------------------------

    @property
    def span_count(self):
        return len(self.name_id)

    def aggregate(self):
        """{name: {"calls", "s", "self_s", "failed"}} over all spans.  A
        generator's calls count its invocations and its times sum its
        next() spans."""
        n = len(self.names)
        calls = [0] * n
        incl = [0.0] * n
        child = [0.0] * n
        failed = [0] * n
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        for idx in range(len(name_id)):
            nid = name_id[idx]
            dur = end[idx] - start[idx]
            calls[nid] += 1
            incl[nid] += dur
            failed[nid] += self.raised[idx]
            p = parent[idx]
            if p >= 0:
                child[name_id[p]] += dur
        for i, count in self.invocations.items():
            calls[i] = count
        return {name: {"calls": calls[i], "s": incl[i],
                       "self_s": incl[i] - child[i], "failed": failed[i]}
                for i, name in enumerate(self.names)}

    def write(self, path):
        """Spans to `path` (JSON header: names, count, field layout) and
        `path` + ".spans" (the raw arrays, in that order and byte order)."""
        fields = ("name_id", "parent", "start", "end", "raised")
        arrays = [getattr(self, f) for f in fields]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.span_count,
                       "fields": [[f, a.typecode]
                                  for f, a in zip(fields, arrays)],
                       "byteorder": sys.byteorder,
                       "clock": "seconds, perf_counter less the host-speed "
                                "samples"}, fh, indent=1)
        with open(f"{path}.spans", "wb") as fh:
            for a in arrays:
                a.tofile(fh)
