"""In-memory spans around the public casimirdiff callables.

The tracer wraps library functions from the benchmark's own files: inside
``Tracer.installed()`` each public callable is swapped, in every casimirdiff
module that holds it, for a recording wrapper; on exit the originals are put
back.  Nothing under ``src/`` changes.

A span is (name, start, end, parent, request).  ``PermittivityModel.eval``
is a leaf called thousands of times per request, so it is not recorded as a
span per call: each call adds to a call count and busy time on the innermost
open span, which keeps the trace small and the wrapper cheap.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

import casimirdiff
from casimirdiff import cli, experiment, lifshitz, materials

# (module, public callable) pairs recorded as spans, named "<module>.<callable>"
SPAN_TARGETS = (
    (materials, "build_material"),
    (lifshitz, "difference_force_curve"),
    (lifshitz, "difference_pressure_curve"),
    (lifshitz, "difference_force"),
    (lifshitz, "difference_pressure"),
    (experiment, "five_point_gradient"),
    (experiment, "resonance_shift"),
    (experiment, "pressure_from_force_gradient"),
    (cli, "main"),
)
MODULES = (casimirdiff, cli, experiment, lifshitz, materials)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "eval_calls", "eval_s")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.eval_calls = 0
        self.eval_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[int] = []

    # --- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.request))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _count_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self._stack:
                    span = self.spans[self._stack[-1]]
                    span.eval_calls += 1
                    span.eval_s += perf_counter() - t0

        return counted

    # --- patching --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Record spans while inside; the original callables are back after."""
        patches = []
        for home, attr in SPAN_TARGETS:
            original = getattr(home, attr)
            wrapped = self._span_wrapper(f"{home.__name__.rsplit('.', 1)[-1]}.{attr}", original)
            for module in MODULES:
                if getattr(module, attr, None) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapped)
        model = materials.PermittivityModel
        patches.append((model, "eval", model.eval))
        model.eval = self._count_wrapper(model.eval)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # --- analysis --------------------------------------------------------

    def child_time(self) -> list[float]:
        """Per span: time covered by its direct child spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None and span.end is not None:
                covered[span.parent] += span.duration
        return covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                    "eval_calls": span.eval_calls,
                    "eval_s": span.eval_s,
                }) + "\n")
