"""Span tracing around the public functions of each opgeom layer module.

While installed, every function listed in a layer module's ``__all__`` is
replaced, wherever any module of the package holds a reference to it, by a
wrapper that records one span per call: name, layer, start, end, parent
span and operation id.  Calls between functions of one module and across
modules are therefore caught.  ``State.eval_matrix`` is recorded as an
algebra span.  Chart maps and connection callables are the benchmark's own
inputs; they are counted, not spanned.

Spans are recorded only between ``begin`` and ``end``, so checks that call
the library after an operation leave no trace.  Spans stay in memory until
``write`` stores them once, at the end of the run.  Importing this module
loads neither numpy nor opgeom, so the run's set-up timing is unaffected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass

LAYERS = ("algebra", "projection", "uncertainty", "hypersurface", "transport", "cli")
SPAN_FIELDS = ("name", "layer", "start_us", "end_us", "parent", "op")


@dataclass
class OpTrace:
    """What one traced operation did."""

    calls: dict          # layer -> span count
    self_s: dict         # layer -> span time minus child span time
    state_evals: int
    chart_evals: int
    distinct_points: int
    path_samples: int
    grams: list          # GramMatrix results of projection.gram


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._first = 0
        self.recording = False
        self._reset_counts()
        self._patches = self._collect()

    def _reset_counts(self):
        self.chart_evals = 0
        self.path_samples = 0
        self.points = set()
        self.kept = []

    def _collect(self) -> list:
        pkg = importlib.import_module("opgeom")
        modules = [importlib.import_module(f"opgeom.{m}") for m in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    keep = (layer, name) == ("projection", "gram")
                    wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}", layer, keep))
        patches = []
        for mod in modules + [pkg]:
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    patches.append((mod, attr, val, hit[1]))
        state = modules[0].State
        orig = state.__dict__["eval_matrix"]
        patches.append((state, "eval_matrix", orig,
                        self._wrap(orig, "algebra.State.eval_matrix", "algebra", False)))
        return patches

    def _wrap(self, fn, name, layer, keep):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, layer, perf(), 0.0, stack[-1] if stack else -1, tracer._op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf()
            if keep:
                tracer.kept.append(out)
            return out

        return traced

    # -- input callables ------------------------------------------------------

    def chart(self, fn):
        """Chart map that counts its calls and distinct points (bit for bit)."""
        import numpy as np

        def counted(u):
            if self.recording:
                self.chart_evals += 1
                self.points.add(np.asarray(u, dtype=float).tobytes())
            return fn(u)
        return counted

    def path(self, fn):
        """Connection callable that counts its calls."""
        def counted(*args):
            if self.recording:
                self.path_samples += 1
            return fn(*args)
        return counted

    # -- lifecycle --------------------------------------------------------------

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def begin(self, op_id: int):
        self._op = op_id
        self._first = len(self.spans)
        self._reset_counts()
        self.recording = True

    def end(self) -> OpTrace:
        self.recording = False
        spans = self.spans[self._first:]
        own = [s[3] - s[2] for s in spans]
        for s in spans:
            if s[4] >= self._first:
                own[s[4] - self._first] -= s[3] - s[2]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        state_evals = 0
        for s, t in zip(spans, own):
            calls[s[1]] += 1
            self_s[s[1]] += t
            state_evals += s[0] == "algebra.State.eval_matrix"
        return OpTrace(calls, self_s, state_evals, self.chart_evals, len(self.points),
                       self.path_samples, self.kept)

    def write(self, path, header: dict):
        """Store every span, times in microseconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], s[1], round((s[2] - t0) * 1e6, 3), round((s[3] - t0) * 1e6, 3), s[4], s[5]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, fields=list(SPAN_FIELDS), spans=rows), fh, separators=(",", ":"))
            fh.write("\n")
