"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs import Observation
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_gauge_keeps_last_value(self):
        gauge = Gauge()
        assert gauge.value is None
        gauge.set(1.0)
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_stats(self):
        histogram = Histogram([3.0, 1.0, 2.0])
        assert histogram.count == 3
        assert histogram.total == 6.0
        assert histogram.mean == 2.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0

    def test_empty_histogram_is_all_zeros(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(99) == 0.0


class TestPercentiles:
    def test_nearest_rank_on_1_to_100(self):
        histogram = Histogram(range(1, 101))
        assert histogram.percentile(50) == 50
        assert histogram.percentile(90) == 90
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100
        # q=0 still returns the smallest observation (rank floor of 1).
        assert histogram.percentile(0) == 1

    def test_single_value(self):
        histogram = Histogram([7.0])
        for q in (0, 50, 99, 100):
            assert histogram.percentile(q) == 7.0

    def test_unsorted_input(self):
        histogram = Histogram([5.0, 1.0, 9.0, 3.0])
        assert histogram.percentile(50) == 3.0
        assert histogram.percentile(100) == 9.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram([1.0]).percentile(101)

    def test_summary_digest(self):
        summary = Histogram(range(1, 101)).summary()
        assert summary == {
            "count": 100, "total": 5050, "min": 1, "mean": 50.5,
            "max": 100, "p50": 50, "p90": 90, "p99": 99,
        }

    def test_a_window_keeps_the_newest_and_counts_them_all(self):
        histogram = Histogram(range(100, 0, -1), window=10)
        assert histogram.values == list(range(10, 0, -1))
        assert histogram.summary() == {
            "count": 100, "total": 5050, "min": 1, "mean": 50.5,
            "max": 100, "p50": 5, "p90": 9, "p99": 10,
        }
        registry = MetricsRegistry(window=3)
        registry.histogram("h").extend([5.0, 1.0, 9.0, 3.0])
        assert registry.histogram("h").values == [1.0, 9.0, 3.0]
        with pytest.raises(ValueError):
            Histogram(window=0)


    def test_extend_is_observe_in_order(self):
        values = [3.0, -1.5, 7.25, 0.0, 2.0]
        for window in (None, 2):
            one, batch = Histogram([9.0], window), Histogram([9.0], window)
            for value in values:
                one.observe(value)
            batch.extend(iter(values))
            batch.extend([])
            assert batch.values == one.values
            assert batch.summary() == one.summary()


class TestRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert bool(registry)
        assert not MetricsRegistry()

    def test_merge_semantics(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("n").inc(2)
        right.counter("n").inc(3)
        left.gauge("g").set(1.0)
        right.gauge("g").set(9.0)
        left.histogram("h").observe(1.0)
        right.histogram("h").extend([2.0, 3.0])
        right.gauge("unset")  # never .set(): must not clobber on merge
        left.merge_snapshot(right.snapshot())
        assert left.counter("n").value == 5       # counters add
        assert left.gauge("g").value == 9.0       # gauges overwrite
        assert left.histogram("h").values == [1.0, 2.0, 3.0]  # concat
        assert left.gauge("unset").value is None

    def test_snapshot_round_trip(self):
        source = MetricsRegistry()
        source.counter("tuples").inc(10)
        source.gauge("skew").set(1.5)
        source.histogram("load").extend([4.0, 8.0])
        snapshot = source.snapshot()
        # Snapshots are plain dicts of plain values (picklable/JSON-ready).
        assert snapshot == {
            "counters": {"tuples": 10},
            "gauges": {"skew": 1.5},
            "histograms": {"load": [4.0, 8.0]},
        }
        target = MetricsRegistry()
        target.counter("tuples").inc(1)
        target.merge_snapshot(snapshot)
        assert target.counter("tuples").value == 11
        assert target.gauge("skew").value == 1.5
        assert target.histogram("load").values == [4.0, 8.0]

    def test_a_windowed_snapshot_merges_every_observation_it_counted(self):
        """A service job runs under a windowed registry and answers with
        its snapshot: what the window dropped still counts where it is
        merged."""
        source, target = MetricsRegistry(window=4), MetricsRegistry(window=4)
        source.histogram("load").extend([5.0, 1.0, 2.0, 3.0, 4.0, 6.0])
        target.histogram("load").extend([9.0, 0.5])
        target.merge_snapshot(source.snapshot())
        summary = target.histogram("load").summary()
        assert (summary["count"], summary["total"]) == (8, 30.5)
        assert (summary["min"], summary["max"]) == (0.5, 9.0)
        assert target.histogram("load").values == [2.0, 3.0, 4.0, 6.0]

    def test_to_dict_digests_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("h").extend([1.0, 2.0])
        digest = registry.to_dict()["histograms"]["h"]
        assert digest["count"] == 2 and digest["max"] == 2.0

    def test_render_lists_everything(self):
        registry = MetricsRegistry()
        registry.counter("routed").inc(7)
        registry.gauge("skew").set(2.0)
        registry.histogram("load").observe(1.0)
        table = registry.render()
        assert "routed" in table and "skew" in table and "load" in table


class TestObservation:
    def test_timed_records_span_and_histogram(self):
        obs = Observation.create()
        with obs.timed("phase"):
            pass
        assert len(obs.tracer.finished_spans("phase")) == 1
        assert obs.metrics.histogram("phase.seconds").count == 1

    def test_count_and_gauges(self):
        obs = Observation.create()
        obs.count("n", 3)
        obs.observe("h", 1.5)
        obs.set_gauge("g", 2.0)
        assert obs.metrics.counter("n").value == 3
        assert obs.metrics.histogram("h").values == [1.5]
        assert obs.metrics.gauge("g").value == 2.0

    def test_maybe_timed_none_is_a_noop(self):
        from repro.obs import maybe_timed

        with maybe_timed(None, "anything"):
            pass  # no tracer involved, nothing recorded anywhere
