"""Unified metrics registry for the engine's performance layers.

Before this module, every engine layer grew its own counters --
the kernel cache's hit/miss stats, the disk tier's
``snapshot()`` dict, the pool's plain ints -- and
``Engine._engine_details`` recomputed per-pass deltas by hand across
all of them. Counters kept in three shapes drift in three ways.
:class:`MetricsRegistry` is the single store: each layer declares its
instruments once (counters, gauges, histograms) against the
registry its owning :class:`~repro.engine.Engine` carries (the disk
tier's hits are the ``disk_hits`` counter, ...), and a per-pass delta
is one ``registry.snapshot()`` before and one ``.delta()`` after.

Instrument kinds:

* **Counter** -- monotonically increasing int (`inc`); deltas subtract.
* **Gauge** -- point-in-time value (`set`); deltas report the current
  value (a gauge has no meaningful movement arithmetic).
* **Histogram** -- running count/sum/min/max over observed values
  (`observe`); snapshots expand to ``<name>_count``/``<name>_sum``
  (counter-like, so deltas subtract) and the delta carries the current
  ``<name>_min``/``<name>_max``.

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


class Histogram:
    """Running count/sum/min/max over observed values."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable flat view of a registry at one instant.

    ``values`` maps expanded metric names to numbers; ``kinds`` maps
    each name to ``"counter"`` or ``"gauge"`` (histogram fields arrive
    pre-expanded as counter-like ``_count``/``_sum`` plus gauge-like
    ``_min``/``_max``).
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


#: Snapshot name suffixes a histogram ``h`` expands into. A non-histogram
#: instrument whose name collides with one of these expansions would
#: silently share (or shadow) the expanded entry in :meth:`snapshot`,
#: with the surviving value decided by dict insertion order -- so the
#: collision is rejected at registration time instead.
RESERVED_SUFFIXES = ("_count", "_sum", "_min", "_max")


class MetricsRegistry:
    """Named instruments, created on first use, snapshottable."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}

    def _check_expansion_collision(self, name, cls):
        """Reject names whose :meth:`snapshot` expansions would collide.

        Two directions, both fatal: registering histogram ``lat`` while
        an instrument ``lat_count`` (or ``lat_sum``/``lat_min``/
        ``lat_max``) exists, and registering an instrument ``lat_count``
        while histogram ``lat`` exists. Called under ``self._lock``.
        """
        if cls is Histogram:
            for suffix in RESERVED_SUFFIXES:
                other = self._metrics.get(name + suffix)
                if other is not None and not isinstance(other, Histogram):
                    raise ValueError(
                        f"histogram {name!r} would expand to "
                        f"{name + suffix!r} in snapshots, which is "
                        f"already registered as a "
                        f"{type(other).__name__.lower()}; rename one of "
                        f"them"
                    )
        for suffix in RESERVED_SUFFIXES:
            if not name.endswith(suffix):
                continue
            base = name[:-len(suffix)]
            other = self._metrics.get(base)
            if isinstance(other, Histogram) and cls is not Histogram:
                raise ValueError(
                    f"{cls.__name__.lower()} {name!r} collides with the "
                    f"snapshot expansion of histogram {base!r}; rename "
                    f"one of them"
                )

    def _get_or_create(self, name, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                self._check_expansion_collision(name, cls)
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

    def histogram(self, name):
        return self._get_or_create(name, Histogram)

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
            if isinstance(metric, Counter):
                values[metric.name] = metric.value
                kinds[metric.name] = "counter"
            elif isinstance(metric, Gauge):
                values[metric.name] = metric.value
                kinds[metric.name] = "gauge"
            else:
                values[f"{metric.name}_count"] = metric.count
                kinds[f"{metric.name}_count"] = "counter"
                values[f"{metric.name}_sum"] = metric.total
                kinds[f"{metric.name}_sum"] = "counter"
                if metric.count:
                    values[f"{metric.name}_min"] = metric.min
                    kinds[f"{metric.name}_min"] = "gauge"
                    values[f"{metric.name}_max"] = metric.max
                    kinds[f"{metric.name}_max"] = "gauge"
        return MetricsSnapshot(values=values, kinds=kinds)
