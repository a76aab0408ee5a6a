"""In-memory spans recorded around calls into hopfdy's public functions.

A span is (id, query, name, parent, start, end, counters).  Times are
``time.perf_counter()`` values, which on Linux read CLOCK_MONOTONIC and so
are comparable between the benchmark and its child processes.  Spans stay in
memory until the owner writes them out at the end of a run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records spans when enabled; ``span()`` costs one call when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []
        self.query = None

    def span(self, name: str, **counters):
        if not self.enabled:
            return nullcontext({})
        return self._record(name, counters)

    @contextmanager
    def _record(self, name, counters, start=None):
        sid = len(self.spans)
        rec = {"id": sid, "query": self.query, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() if start is None else start,
               "end": None, "counters": dict(counters)}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec["counters"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def root(self, query, name: str, start=None):
        """Open the root span of one query; child spans share its query id."""
        self.query = query
        if not self.enabled:
            return nullcontext({})
        return self._record(name, {}, start=start)

    def add_span(self, name: str, start: float, end: float, **counters):
        """Record an already-timed interval as a child of the open span."""
        if self.enabled:
            self.spans.append({"id": len(self.spans), "query": self.query,
                               "name": name,
                               "parent": self._stack[-1] if self._stack else None,
                               "start": start, "end": end,
                               "counters": dict(counters)})


def _union_length(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """span id -> its duration minus the part its child spans cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _union_length(children.get(s["id"], ())) for s in spans}


def check_tree(spans) -> list:
    """Problems with the span tree: missing parents, children outside their
    parent's interval, a parent from another query, unclosed spans."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append("span %d (%s) is not closed" % (s["id"], s["name"]))
            continue
        if s["parent"] is None:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            problems.append("span %d (%s) has no parent %s"
                            % (s["id"], s["name"], s["parent"]))
        elif p["query"] != s["query"]:
            problems.append("span %d (%s) crosses queries" % (s["id"], s["name"]))
        elif s["start"] < p["start"] or (p["end"] is not None and s["end"] > p["end"]):
            problems.append("span %d (%s) lies outside its parent %d (%s)"
                            % (s["id"], s["name"], p["id"], p["name"]))
    return problems
