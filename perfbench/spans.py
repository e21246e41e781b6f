"""In-memory spans recorded from outside the package.

A span is (name, start_ns, end_ns, parent, unit): ``parent`` is the index
of the enclosing span in the same list (or None) and ``unit`` identifies
the work unit (replicate, model or path) the span belongs to.  Spans are
kept in a list while the run lasts and written out once at the end.

Package functions are traced by temporarily replacing a module attribute
with a wrapper; the package's files are never modified, and the original
attribute is restored when the ``patched`` block exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, unit=None):
        parent = self._stack[-1] if self._stack else None
        if unit is None and parent is not None:
            unit = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent, unit])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Trace ``targets``: (dotted module, attribute, span name) triples."""
        saved = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_ns(self) -> list:
        """Duration of each span minus the duration of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def durations_ms(self, name: str) -> list:
        return [(e - s) / 1e6 for n, s, e, _, _ in self.spans if n == name]

    def dump(self, filename) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "unit")
        own = self.self_ns()
        with open(filename, "w", encoding="utf-8") as handle:
            for span, self_time in zip(self.spans, own):
                record = dict(zip(keys, span))
                record["self_ns"] = self_time
                handle.write(json.dumps(record) + "\n")
