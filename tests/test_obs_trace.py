"""Tests for the span tracer (repro.obs.trace)."""

import json

import pytest

from repro.obs import Tracer


class FakeClock:
    """A deterministic clock: every read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestSpanNesting:
    def test_depth_and_parent_follow_the_stack(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.depth == 0 and outer.parent is None
        assert middle.depth == 1 and middle.parent is outer
        assert inner.depth == 2 and inner.parent is middle
        assert sibling.depth == 1 and sibling.parent is outer

    def test_spans_recorded_in_start_order(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [span.name for span in tracer.spans] == ["a", "b", "c"]

    def test_span_closes_on_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.finished

    def test_attrs_are_kept(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("route", relation="S1", p=8) as span:
            pass
        assert span.attrs == {"relation": "S1", "p": 8}


class TestSpanTiming:
    def test_durations_are_monotone_with_the_clock(self):
        # FakeClock ticks once per read: origin=0, outer.start=1,
        # inner.start=2, inner.end=3, outer.end=4.
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start < inner.start < inner.end < outer.end
        assert inner.duration == 1.0
        assert outer.duration == 3.0
        # A child can never outlast its parent.
        assert inner.duration <= outer.duration

    def test_open_span_has_zero_duration(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.span("open")
        ctx.__enter__()
        (span,) = tracer.spans
        assert not span.finished
        assert span.duration == 0.0

    def test_real_clock_durations_are_nonnegative(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        for span in tracer.spans:
            assert span.duration >= 0.0

    def test_finished_spans_filter_by_name(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        for _ in range(3):
            with tracer.span("work"):
                pass
        assert len(tracer.finished_spans("work")) == 3
        assert tracer.finished_spans("missing") == ()


class TestChromeTraceExport:
    def test_event_shape(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("outer", p=4):
            with tracer.span("inner"):
                pass
        doc = tracer.to_chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [event["name"] for event in events] == ["outer", "inner"]
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["ts"] >= 0 and event["dur"] >= 0
        # Timestamps are microseconds since tracer creation.
        outer, inner = events
        assert outer["ts"] == pytest.approx(1e6)
        assert inner["ts"] == pytest.approx(2e6)
        assert inner["dur"] == pytest.approx(1e6)
        assert outer["args"]["p"] == 4
        assert inner["args"]["parent"] == "outer"

    def test_open_spans_are_excluded(self):
        tracer = Tracer(clock=FakeClock())
        ctx = tracer.span("open")  # keep a reference: GC would close it
        ctx.__enter__()
        with tracer.span("closed"):
            pass
        names = [event["name"] for event in tracer.to_events()]
        assert names == ["closed"]

    def test_non_primitive_attrs_are_stringified(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", query=("q", "r")):
            pass
        (event,) = tracer.to_events()
        assert event["args"]["query"] == str(("q", "r"))

    def test_to_json_round_trips(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        parsed = json.loads(tracer.to_json())
        assert parsed["traceEvents"][0]["name"] == "a"
