"""Span tracer that wraps the package's entry points from outside.

Nothing in the package is edited: the caller swaps module and class
attributes for the wrappers made here, and a ``Patcher`` puts the
originals back.

Coarse calls (a CLI command, one sort, one exact_F) each record a span:
name, id, parent id, start, end and self time. Hot boundaries that run
millions of times per run (``PosSequence.get``, ``less``,
``binary_insert``, ...) keep only a call count and summed inclusive and
self time per enclosing coarse span, so memory stays flat. Everything
stays in memory until ``dump`` writes it out.

Self time is a call's duration minus the time of the traced calls made
inside it, so the self times of all spans and hot calls add up to the
root span's duration. For a recursive function only the outermost call
adds to the inclusive time, so that time is never counted twice.
"""

from __future__ import annotations

import json
import time


class Patcher:
    """Sets attributes and puts the old values back on exit."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        # span record: [name, id, parent id, start, end, self_s, nested]
        self.spans: list[list] = []
        # hot aggregates: name -> {enclosing span id: [calls, inclusive_s, self_s]}
        self.hot: dict[str, dict[int, list]] = {}
        self.counters: dict[str, float] = {}
        # frame: [time spent in traced children, id of the enclosing coarse span]
        self._stack: list[list] = [[0.0, 0]]

    def coarse(self, name: str, fn):
        stack, spans, clock = self._stack, self.spans, self.clock
        depth = [0]

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) + 1
            record = [name, span_id, parent[1], 0.0, 0.0, 0.0, depth[0] > 0]
            spans.append(record)
            frame = [0.0, span_id]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[0] -= 1
                stack.pop()
                parent[0] += end - start
                record[3] = start
                record[4] = end
                record[5] = end - start - frame[0]

        return traced

    def hot_wrap(self, name: str, fn):
        stack, clock = self._stack, self.clock
        by_parent = self.hot.setdefault(name, {})
        depth = [0]

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                stack.pop()
                parent[0] += elapsed
                agg = by_parent.get(frame[1])
                if agg is None:
                    agg = by_parent[frame[1]] = [0, 0.0, 0.0]
                agg[0] += 1
                if not depth[0]:
                    agg[1] += elapsed
                agg[2] += elapsed - frame[0]

        return traced

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def calls(self, name: str) -> int:
        """Calls of a hot boundary, summed over enclosing spans."""
        return sum(agg[0] for agg in self.hot.get(name, {}).values())

    def totals(self) -> dict[str, list]:
        """name -> [calls, inclusive_s, self_s] over spans and hot calls."""
        out: dict[str, list] = {}
        for name, _id, _parent, start, end, self_s, nested in self.spans:
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            if not nested:
                agg[1] += end - start
            agg[2] += self_s
        for name, by_parent in self.hot.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            for calls, incl, self_s in by_parent.values():
                agg[0] += calls
                agg[1] += incl
                agg[2] += self_s
        return out

    def dump(self, path: str, meta: dict) -> None:
        doc = {
            "meta": meta,
            "span_fields": ["name", "id", "parent", "start", "end", "self_s", "nested"],
            "spans": self.spans,
            "hot_fields": ["name", "parent", "calls", "s", "self_s"],
            "hot": [
                [name, parent, *agg]
                for name, by_parent in self.hot.items()
                for parent, agg in by_parent.items()
            ],
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
