"""Unified metrics registry for the engine's performance layers.

Before this module, every engine layer grew its own counters --
the kernel cache's hit/miss stats, the disk tier's
``snapshot()`` dict, the pool's plain ints -- and
``Engine._engine_details`` recomputed per-pass deltas by hand across
all of them. Counters kept in three shapes drift in three ways.
:class:`MetricsRegistry` is the single store: each layer declares its
counters once against the registry its owning
:class:`~repro.engine.Engine` carries (the disk tier's hits are the
``disk_hits`` counter, ...), and a per-pass delta is one
``registry.snapshot()`` before and one ``.delta()`` after.

Every instrument is a **Counter**: a monotonically increasing int
(`inc`) whose deltas subtract. Snapshots carry a ``kinds`` map (every
value ``"counter"``), which history records and ``/v1/metrics`` report
next to the values.

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


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable flat view of a registry at one instant.

    ``values`` maps metric names to numbers; ``kinds`` maps each name
    to ``"counter"``.
    """

    values: dict
    kinds: dict

    def __getitem__(self, name):
        return self.values[name]

    def get(self, name, default=0):
        return self.values.get(name, default)

    def delta(self, earlier):
        """Counter movement since ``earlier``, as a plain dict (names
        missing earlier count from zero)."""
        return {name: value - earlier.values.get(name, 0)
                for name, value in self.values.items()}

    def as_dict(self):
        return dict(self.values)


class MetricsRegistry:
    """Named counters, created on first use, snapshottable."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}

    def counter(self, name):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Counter(name)
            return metric

    def __contains__(self, name):
        with self._lock:
            return name in self._metrics

    def __len__(self):
        with self._lock:
            return len(self._metrics)

    def snapshot(self):
        """One flat, immutable view of every counter right now."""
        with self._lock:
            metrics = list(self._metrics.values())
        values = {metric.name: metric.value for metric in metrics}
        return MetricsSnapshot(values=values,
                               kinds=dict.fromkeys(values, "counter"))
