"""Counters, gauges and histograms in a mergeable registry.

The registry is the quantitative half of the observability layer: engines
count tuples routed and bits shipped per relation, histogram the
per-server loads, and gauge the skew ratio; the sweep runner histograms
per-cell wall clock and queue wait.  Three instrument kinds:

* :class:`Counter` — monotone accumulator (``inc``); merges by addition.
* :class:`Gauge` — last-written value (``set``); merges by overwrite.
* :class:`Histogram` — reports count/min/max/mean of every observation
  and nearest-rank percentiles (p50/p90/p99) of the ones it keeps: all of
  them, or the newest ``window`` in a long-lived process's registry;
  merges by concatenation (a windowed one's count, total, min and max
  travel with its window), so per-worker histograms aggregate exactly.

:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.merge_snapshot`
round-trip through plain JSON-ready dicts — that is how every sweep cell,
in-process or on a farm worker, reports what it caused to the sweep's
registry (see :meth:`repro.api.experiment.SharedContext.step`).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping


class Counter:
    """A monotone accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, delta: float = 1) -> None:
        self.value += delta


class Gauge:
    """A last-written value (``None`` until first set)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Count, total, min and max of every observation, and nearest-rank
    percentiles of the newest ``window`` of them — of all of them when
    ``window`` is None (the default).

    Unwindowed, it suits the cardinalities a run meets (per-server loads —
    at most ``p`` values — and per-cell timings); a long-lived process
    gives its registry a window, so that what it keeps does not grow with
    its uptime.
    """

    __slots__ = ("values", "window", "count", "total", "_least", "_most")

    def __init__(
        self, values: Iterable[float] = (), window: int | None = None
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"a histogram window is >= 1, got {window}")
        #: The observations percentiles are taken over, oldest first.
        self.values: list[float] = []
        self.window = window
        self.count = 0
        self.total: float = 0
        self._least = self._most = 0.0
        self.extend(values)

    def observe(self, value: float) -> None:
        if not self.count or value < self._least:
            self._least = value
        if not self.count or value > self._most:
            self._most = value
        self.count += 1
        self.total += value
        self.values.append(value)
        if self.window is not None and len(self.values) > self.window:
            del self.values[0]

    def extend(self, values: Iterable[float]) -> None:
        """:meth:`observe` each of ``values`` in order, as one batch."""
        batch = list(values)
        if not batch:
            return
        least, most = min(batch), max(batch)
        if not self.count or least < self._least:
            self._least = least
        if not self.count or most > self._most:
            self._most = most
        self.count += len(batch)
        self.total = sum(batch, self.total)
        self.values.extend(batch)
        if self.window is not None and len(self.values) > self.window:
            del self.values[:-self.window]

    def absorb(self, values: Iterable[float], count: int, total: float,
               least: float, most: float) -> None:
        """Fold in another histogram's observations: the ``values`` it
        kept, and the ``count``, ``total``, min and max of all of them."""
        if not count:
            return
        if not self.count or least < self._least:
            self._least = least
        if not self.count or most > self._most:
            self._most = most
        self.count += count
        self.total += total
        self.values.extend(values)
        if self.window is not None and len(self.values) > self.window:
            del self.values[:-self.window]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        return self._most

    @property
    def min(self) -> float:
        return self._least

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 when empty."""
        return _nearest_rank(sorted(self.values), q)

    def summary(self) -> dict[str, float]:
        """A JSON-ready digest: count, total, min/mean/max, p50/p90/p99
        (one sort for the three)."""
        ordered = sorted(self.values)
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "mean": self.mean,
            "max": self.max,
            "p50": _nearest_rank(ordered, 50),
            "p90": _nearest_rank(ordered, 90),
            "p99": _nearest_rank(ordered, 99),
        }


def _nearest_rank(ordered: list[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ascending ``ordered``."""
    if not ordered:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"percentile wants q in [0, 100], got {q}")
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


class MetricsRegistry:
    """Named instruments, created on first touch, mergeable across runs.

    ``window``, when given, is every histogram's (:class:`Histogram`): a
    windowed registry snapshots each histogram's window, and the count,
    total, min and max of all it observed.
    """

    def __init__(self, window: int | None = None) -> None:
        self.window = window
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) --------------------------
    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(window=self.window)
        return histogram

    # -- views ----------------------------------------------------------
    @property
    def counters(self) -> Mapping[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> Mapping[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Mapping[str, Histogram]:
        return dict(self._histograms)

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    # -- aggregation -----------------------------------------------------
    def snapshot(self) -> dict:
        """A picklable/JSON-ready full-fidelity dump (histogram values
        included), for shipping across process boundaries.  A histogram
        whose window dropped observations also ships the count, total,
        min and max of all of them, under ``"windowed"``, so that a merge
        keeps those exact."""
        snapshot = {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {
                k: g.value for k, g in self._gauges.items()
                if g.value is not None
            },
            "histograms": {
                k: list(h.values) for k, h in self._histograms.items()
            },
        }
        windowed = {
            k: [h.count, h.total, h.min, h.max]
            for k, h in self._histograms.items() if h.count > len(h.values)
        }
        if windowed:
            snapshot["windowed"] = windowed
        return snapshot

    def merge_snapshot(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) in."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        windowed = snapshot.get("windowed", {})
        for name, values in snapshot.get("histograms", {}).items():
            if name in windowed:
                self.histogram(name).absorb(values, *windowed[name])
            else:
                self.histogram(name).extend(values)

    def to_dict(self) -> dict:
        """The JSON-ready digest attached to records and printed by
        ``--metrics``: counters and gauges verbatim, histograms as
        :meth:`Histogram.summary` digests."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {
                k: g.value for k, g in sorted(self._gauges.items())
                if g.value is not None
            },
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """A human-readable table (the CLI's ``--metrics`` output)."""
        lines = []
        for name, counter in sorted(self._counters.items()):
            lines.append(f"{name:<44} {counter.value:>16,.0f}")
        for name, gauge in sorted(self._gauges.items()):
            if gauge.value is not None:
                lines.append(f"{name:<44} {gauge.value:>16,.4f}")
        for name, histogram in sorted(self._histograms.items()):
            s = histogram.summary()
            lines.append(
                f"{name:<44} n={s['count']} mean={s['mean']:,.4g} "
                f"p50={s['p50']:,.4g} p99={s['p99']:,.4g} max={s['max']:,.4g}"
            )
        return "\n".join(lines)
