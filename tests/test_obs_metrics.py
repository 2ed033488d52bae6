"""Tests for repro.obs.metrics: instruments, snapshots, and deltas."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
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


class TestRegistry:
    def test_same_name_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("hits") is registry.counter("hits")

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("hits")

    def test_contains_and_len(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        assert "a" in registry and "b" in registry
        assert "c" not in registry
        assert len(registry) == 2

    def test_snapshot_values_and_kinds(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(2)
        registry.gauge("entries").set(9)
        snap = registry.snapshot()
        assert snap.values == {"hits": 2, "entries": 9}
        assert snap.kinds == {"hits": "counter", "entries": "gauge"}

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
