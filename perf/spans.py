"""Spans recorded by the benchmark around calls into the program's layers.

A span is ``name / start / end / parent / workload`` (plus free-form
``args``); ``name`` is ``<layer>.<operation>`` with the layer being the
``repro`` module the call enters.  Spans stay in memory until the run
ends and are then written as Chrome-trace JSON (``chrome://tracing``,
Perfetto).  A layer's *self time* is its spans' duration minus the part
their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, lane: int = 0, **args: object) -> int:
        """Record a finished span (timestamps in seconds on one clock);
        returns its index, usable as another span's ``parent``."""
        self.spans.append({
            "name": name, "start": start, "end": end, "parent": parent,
            "workload": self.workload, "lane": lane, "args": args,
        })
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[dict]:
        """Time the enclosed block as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        index = self.add(name, time.perf_counter(), float("nan"), parent, **args)
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Per span: its duration minus its direct children's."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def write_chrome_trace(self, path: str) -> None:
        origin = min((span["start"] for span in self.spans), default=0.0)
        events = [
            {
                "name": span["name"], "cat": span["name"].split(".")[0],
                "ph": "X", "pid": 1, "tid": span["lane"],
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {**span["args"], "workload": span["workload"],
                         "parent": span["parent"]},
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
