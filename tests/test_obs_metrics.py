"""Tests for repro.obs.metrics: instruments, snapshots, and deltas."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_inc_and_reset(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert Counter("hits").value == 0

    def test_gauge_set(self):
        g = Gauge("entries")
        g.set(17)
        assert g.value == 17
        g.set(3)
        assert g.value == 3

    def test_histogram_observe(self):
        h = Histogram("bytes")
        for v in (10, 2, 7):
            h.observe(v)
        assert h.count == 3
        assert h.total == 19
        assert h.min == 2
        assert h.max == 10
        assert h.mean == pytest.approx(19 / 3)

    def test_histogram_empty_mean(self):
        assert Histogram("x").mean == 0.0


class TestRegistry:
    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("hits") is registry.counter("hits")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("hits")

    def test_histogram_rejected_when_expansion_name_taken(self):
        # Previously this collision was silent: the counter's value
        # vanished under the histogram's `lat_count` expansion in
        # snapshot(). Now the registration itself is the error.
        registry = MetricsRegistry()
        registry.counter("lat_count")
        with pytest.raises(ValueError, match="expand"):
            registry.histogram("lat")

    def test_instrument_rejected_on_histogram_expansion_name(self):
        registry = MetricsRegistry()
        registry.histogram("lat")
        with pytest.raises(ValueError, match="collides"):
            registry.counter("lat_count")
        with pytest.raises(ValueError, match="collides"):
            registry.gauge("lat_min")

    def test_reserved_suffixes_fine_without_histogram_base(self):
        registry = MetricsRegistry()
        registry.counter("lat_count")  # no histogram 'lat' exists
        registry.gauge("depth_max")    # no histogram 'depth' exists
        registry.histogram("wait")
        registry.counter("wait_total")  # not a reserved suffix
        assert len(registry) == 4

    def test_two_histograms_may_share_expansion_names(self):
        # Histograms never collide with each other: 'lat' expanding to
        # 'lat_count' and a histogram literally named 'lat_count' are
        # both well-defined in the snapshot.
        registry = MetricsRegistry()
        registry.histogram("lat")
        registry.histogram("lat_count")
        assert len(registry) == 2

    def test_contains_and_len(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        assert "a" in registry and "b" in registry
        assert "c" not in registry
        assert len(registry) == 2

    def test_snapshot_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.gauge("entries").set(9)
        h = registry.histogram("bytes")
        h.observe(4)
        h.observe(6)
        snap = registry.snapshot()
        assert snap["hits"] == 2
        assert snap["entries"] == 9
        assert snap["bytes_count"] == 2
        assert snap["bytes_sum"] == 10
        assert snap["bytes_min"] == 4
        assert snap["bytes_max"] == 6
        assert snap.kinds["hits"] == "counter"
        assert snap.kinds["entries"] == "gauge"
        assert snap.kinds["bytes_sum"] == "counter"
        assert snap.kinds["bytes_min"] == "gauge"

    def test_empty_histogram_has_no_min_max(self):
        registry = MetricsRegistry()
        registry.histogram("bytes")
        snap = registry.snapshot()
        assert snap["bytes_count"] == 0
        assert "bytes_min" not in snap.values

    def test_snapshot_is_immutable_view(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        snap = registry.snapshot()
        counter.inc(5)
        assert snap["hits"] == 0  # taken before the inc
        assert snap.get("missing", default=-1) == -1


class TestDelta:
    def test_counters_subtract_gauges_pass_through(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits")
        entries = registry.gauge("entries")
        hits.inc(3)
        entries.set(10)
        before = registry.snapshot()
        hits.inc(4)
        entries.set(12)
        delta = registry.snapshot().delta(before)
        assert delta["hits"] == 4
        assert delta["entries"] == 12

    def test_counter_created_after_earlier_counts_from_zero(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.counter("late").inc(2)
        delta = registry.snapshot().delta(before)
        assert delta["late"] == 2

    def test_delta_is_plain_dict(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        delta = registry.snapshot().delta(registry.snapshot())
        assert type(delta) is dict
