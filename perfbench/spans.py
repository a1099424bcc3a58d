"""Spans recorded around the benchmark's calls into the library.

A span is [layer, name, start, end, parent, op]: parent is the index of
the enclosing span (None for an op's root span) and op the index of the
op's root span, so spans of one op share it.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

from time import perf_counter


class SpanTracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def call(self, layer, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self._stack[0] if self._stack else index
        span = [layer, name, perf_counter(), 0.0, parent, op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict:
        """layer -> total self time: span time minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for i, (layer, name, start, end, parent, op) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def to_json(self) -> dict:
        return {"fields": ["layer", "name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans}
