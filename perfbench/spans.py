"""Spans around the public functions of ``prolate``, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper, on every module that holds a reference to it, so calls
from one module into another are caught as well as calls from the
benchmark.  Spans are kept in memory and written once, at the end of a
run.  The benchmark is single-threaded, so spans nest strictly and a
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id); start and end in perf_counter seconds.
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _open(self) -> tuple[int, int | None, float]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, span_id, name, parent, start) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span_id, parent, start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span_id, name, parent, start)

    def wrap(self, name: str, fn, counts=None):
        """Wrap ``fn`` so each call records a span; ``counts(args, kwargs)`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts is not None:
                for key, value in counts(args, kwargs).items():
                    self.counters[key] += value
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, modules: dict, holders: list, counts: dict) -> None:
        """Wrap the functions in each module's ``__all__`` that the module defines.

        ``modules`` maps a layer name ("core") to its module; ``holders`` are
        every module whose attributes may refer to those functions.
        """
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                replacement = self.wrap(name, fn, counts.get(name))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, replacement)

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in sorted(self.spans)
            ],
            "counters": dict(self.counters),
            "summary": self.summary(),
        }
