"""In-memory span recorder used by the traced runs.

Spans are recorded by the benchmark around its calls into perisurf's public
functions; nothing inside the program is instrumented.  A span is
``(name, start_ns, end_ns, parent, item)``; ``parent`` is the index of the
enclosing span or -1.  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class NullRecorder:
    """Tracing off: calls go straight through, nothing is kept."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, item=None):
        yield

    def count(self, name, k=1):
        pass

    def last_ns(self) -> int:
        return 0


class Recorder:
    """Tracing on: every ``call`` and ``span`` becomes a recorded span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._item = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._item)

    @contextmanager
    def span(self, name, item=None):
        """An enclosing span, such as one item; ``item`` tags the spans
        recorded inside it."""
        outer = self._item
        if item is not None:
            self._item = item
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._item)
            self._item = outer

    def count(self, name, k=1):
        self.counters[name] += k

    def last_ns(self) -> int:
        """Duration of the span recorded last, e.g. a ``call`` with no
        spans inside it that has just returned."""
        _, start, end, _, _ = self.spans[-1]
        return end - start

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover
        (children of one span never overlap: the run is single-threaded)."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls and self time (ms) per span name."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_ms": 0.0})
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name]["calls"] += 1
            out[name]["busy_ms"] += own / 1e6
        return dict(out)

    def coverage(self, is_layer) -> float:
        """Share of the time inside root spans (items) that outermost layer
        spans -- those with no layer span above them -- cover."""
        layer = [is_layer(s[0]) for s in self.spans]
        covered = roots = 0
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent < 0:
                roots += end - start
            if not layer[i]:
                continue
            p = parent
            while p >= 0 and not layer[p]:
                p = self.spans[p][3]
            if p < 0:
                covered += end - start
        return covered / roots if roots else 0.0

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "item"],
                       "spans": self.spans,
                       "counters": self.counters}, fh)


def paired(k: int, untraced, traced):
    """Run both callables once, the untraced one first when ``k`` is even,
    so that drift on the host falls on both sides alike.  Returns (untraced
    result, traced result, untraced ns, traced ns)."""
    out, ns = {}, {}
    for fn in ((untraced, traced) if k % 2 == 0 else (traced, untraced)):
        start = perf_counter_ns()
        out[fn] = fn()
        ns[fn] = perf_counter_ns() - start
    return out[untraced], out[traced], ns[untraced], ns[traced]
