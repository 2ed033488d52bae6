"""Unified metrics registry for the engine's performance layers.

Before this module, every engine layer grew its own counters --
the kernel cache's hit/miss stats, the disk tier's
``snapshot()`` dict, the pool's plain ints -- and
``Engine._engine_details`` recomputed per-pass deltas by hand across
all of them. Counters kept in three shapes drift in three ways.
:class:`MetricsRegistry` is the single store: each layer declares its
instruments once (counters, and one gauge) against the
registry its owning :class:`~repro.engine.Engine` carries (the disk
tier's hits are the ``disk_hits`` counter, ...), and a per-pass delta
is one ``registry.snapshot()`` before and one ``.delta()`` after.

Instrument kinds:

* **Counter** -- monotonically increasing int (`inc`); deltas subtract.
* **Gauge** -- point-in-time value (`set`); deltas report the current
  value (a gauge has no meaningful movement arithmetic). The daemon's
  ``service_inflight`` is the one gauge.

Increments are plain int attribute updates under the CPython GIL --
the engine's layers mutate them from one thread per process, and the
registry lock only guards instrument creation and snapshots.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        self.value += n


class Gauge:
    """Point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable flat view of a registry at one instant.

    ``values`` maps metric names to numbers; ``kinds`` maps each name
    to ``"counter"`` or ``"gauge"``.
    """

    values: dict
    kinds: dict

    def __getitem__(self, name):
        return self.values[name]

    def get(self, name, default=0):
        return self.values.get(name, default)

    def delta(self, earlier):
        """Metric movement since ``earlier``, as a plain dict: counters
        subtract (names missing earlier count from zero), gauges carry
        their current value."""
        out = {}
        for name, value in self.values.items():
            if self.kinds.get(name) == "counter":
                out[name] = value - earlier.values.get(name, 0)
            else:
                out[name] = value
        return out

    def as_dict(self):
        return dict(self.values)


class MetricsRegistry:
    """Named instruments, created on first use, snapshottable."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}

    def _get_or_create(self, name, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name):
        return self._get_or_create(name, Counter)

    def gauge(self, name):
        return self._get_or_create(name, Gauge)

    def __contains__(self, name):
        with self._lock:
            return name in self._metrics

    def __len__(self):
        with self._lock:
            return len(self._metrics)

    def snapshot(self):
        """One flat, immutable view of every instrument right now."""
        values = {}
        kinds = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            values[metric.name] = metric.value
            kinds[metric.name] = ("counter" if isinstance(metric, Counter)
                                  else "gauge")
        return MetricsSnapshot(values=values, kinds=kinds)
