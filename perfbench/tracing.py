"""In-memory spans around the benchmark's calls into smoothloc's layers.

A span is (id, name, start, end, parent).  The layer is the part of the
name before the first dot.  Spans are kept in a list and written out
once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []   # [id, name, start, end, parent]
        self._stack = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def durations(self, name: str, under: str | None = None):
        """Durations (s) of spans called `name`, optionally only those
        whose parent span is called `under`."""
        out = []
        for sid, nm, start, end, parent in self.spans:
            if nm != name:
                continue
            if under is not None and (parent is None
                                      or self.spans[parent][1] != under):
                continue
            out.append(end - start)
        return out

    def self_times(self):
        """Layer -> summed self time (s): each span's duration minus the
        time its direct children cover.  Span names without a dot group
        calls (a trial, its steps) and belong to no layer."""
        child = [0.0] * len(self.spans)
        for sid, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, name, start, end, _ in self.spans:
            if "." not in name:
                continue  # the benchmark's own grouping spans
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
