"""Observability: dependency-free tracing and metrics.

The paper's subject is *where load goes* under skew, which makes
observability the core instrument of this reproduction rather than an
add-on.  This package provides the two halves and a carrier object:

1. :mod:`repro.obs.trace` — :class:`Tracer`, producing nested timed
   :class:`Span` records (plan-build, routing, shuffle accounting, local
   join, and the completeness check of :func:`repro.rounds.run_rounds`)
   with a Chrome-trace JSON exporter;
2. :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters,
   gauges and histograms (tuples routed, bits shipped per relation,
   per-server load histogram, skew ratio), mergeable across processes;
3. :class:`Observation` — one tracer + one registry, threaded as an
   optional ``obs`` argument through
   :meth:`repro.mpc.engine.ExecutionEngine.run`, the planner, and the
   sweep runner.  ``obs=None`` (the default everywhere) short-circuits
   every instrumentation site, so disabled observability costs nothing.

Typical use::

    from repro.obs import Observation

    obs = Observation.create()
    result = run_one_round(algo, db, p=32, obs=obs)
    print(obs.metrics.render())
    open("trace.json", "w").write(obs.tracer.to_json())
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Iterator

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import Span, Tracer


@dataclass
class Observation:
    """One tracer plus one metrics registry, passed around as ``obs``."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def create(cls) -> "Observation":
        return cls()

    def span(self, name: str, **attrs: object):
        """A nested timed span (delegates to :meth:`Tracer.span`)."""
        return self.tracer.span(name, **attrs)

    @contextmanager
    def timed(self, name: str, **attrs: object) -> Iterator[Span]:
        """A span whose duration also lands in histogram ``{name}.seconds``.

        This is the bridge that keeps reported timings and production
        instrumentation from drifting: ``--metrics`` and a record's
        ``metrics`` block read the histogram the engines feed, instead of
        bracketing with their own clocks.
        """
        with self.tracer.span(name, **attrs) as span:
            yield span
        self.metrics.histogram(f"{name}.seconds").observe(span.duration)

    # -- metric conveniences -------------------------------------------
    def count(self, name: str, delta: float = 1) -> None:
        self.metrics.counter(name).inc(delta)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)


_NULL = nullcontext()


def maybe_timed(
    obs: Observation | None, name: str, **attrs: object
) -> "ContextManager[Span | None]":
    """:meth:`Observation.timed` when observing, else a shared no-op.

    The guard instrumentation sites use so that ``obs=None`` costs one
    ``is None`` check per *phase* (never per tuple).
    """
    if obs is None:
        return _NULL
    return obs.timed(name, **attrs)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observation",
    "Span",
    "Tracer",
    "maybe_timed",
]
