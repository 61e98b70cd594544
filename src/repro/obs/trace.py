"""Nested, timed spans with a Chrome-trace exporter.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
instrumented phase (plan-build, routing, local join, ...) — with
wall-clock timing from :func:`time.perf_counter`.  Spans nest through a
plain stack, so the tracer is cheap (two clock reads and two list
operations per span) and dependency-free.

Export targets:

* :meth:`Tracer.to_chrome_trace` — the Chrome/Perfetto ``traceEvents``
  JSON object (open it at ``chrome://tracing`` or https://ui.perfetto.dev);
* :meth:`Tracer.to_json` — the same object serialized, what the CLI's
  ``--trace FILE`` writes.

The clock is injectable, so tests can drive deterministic timings.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping


@dataclass
class Span:
    """One timed phase: a name, attributes, and a slot in the span tree."""

    name: str
    attrs: dict[str, object]
    start: float                  # clock reading at entry
    depth: int                    # 0 for root spans
    parent: "Span | None" = None
    end: float | None = None      # clock reading at exit; None while open

    @property
    def duration(self) -> float:
        """Seconds between entry and exit (0.0 while the span is open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None


class Tracer:
    """Collects nested :class:`Span` records; exports Chrome-trace JSON."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._origin = clock()
        self._stack: list[Span] = []
        self._spans: list[Span] = []   # every span, in start order

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a child of the innermost open span (or a new root)."""
        parent = self._stack[-1] if self._stack else None
        record = Span(
            name=name,
            attrs=dict(attrs),
            start=self._clock(),
            depth=len(self._stack),
            parent=parent,
        )
        self._spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self._clock()
            self._stack.pop()

    @property
    def spans(self) -> tuple[Span, ...]:
        """Every recorded span, in start order (open spans included)."""
        return tuple(self._spans)

    def finished_spans(self, name: str | None = None) -> tuple[Span, ...]:
        """Closed spans, optionally filtered by name."""
        return tuple(
            span for span in self._spans
            if span.finished and (name is None or span.name == name)
        )

    def to_events(self) -> list[dict]:
        """Chrome ``traceEvents``: one complete (``ph: "X"``) event per span."""
        events = []
        for span in self._spans:
            if not span.finished:
                continue
            args: dict[str, object] = {
                key: value if isinstance(value, (int, float, str, bool))
                else str(value)
                for key, value in span.attrs.items()
            }
            if span.parent is not None:
                args["parent"] = span.parent.name
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - self._origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        return events

    def to_chrome_trace(self) -> Mapping[str, object]:
        """The full Chrome-trace JSON object."""
        return {"traceEvents": self.to_events(), "displayTimeUnit": "ms"}

    def to_json(self, indent: int = 2) -> str:
        """Serialized :meth:`to_chrome_trace` (what ``--trace FILE`` writes)."""
        return json.dumps(self.to_chrome_trace(), indent=indent)
