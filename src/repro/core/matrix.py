"""The counter matrix: Perspector's central data structure.

Section III of the paper fixes the notation: a suite ``W`` of ``n``
benchmarks, ``m`` execution statistics per benchmark, an ``m``-dimensional
vector ``x_i`` per benchmark, and a matrix ``X`` collecting the vectors.
:class:`CounterMatrix` is that ``X`` with names attached: rows are
workloads, columns are PMU events, and an optional per-event collection of
time series carries the sampled data the TrendScore needs.

The class is deliberately independent of how the data was produced --
from the simulator (:class:`repro.perf.session.SuiteMeasurement`), from a
CSV of real ``perf`` output, or synthesized in a test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.stats.dtw import check_series_set


@dataclass(frozen=True)
class CounterMatrix:
    """Named workloads x events matrix, optionally with time series.

    Attributes
    ----------
    workloads:
        Row names (benchmark names), length ``n``.
    events:
        Column names (PMU event names), length ``m``.
    values:
        ``(n, m)`` float matrix of counter totals.
    series:
        Optional ``{event: [series_per_workload]}``; each inner list is
        aligned with ``workloads``. Series may have different lengths
        (the DTW normalization handles that), but each must be
        non-empty and finite: a ``NaN`` or ``inf`` sample raises one
        ``ValueError`` naming the event and the workload.
    suite_name:
        Optional provenance label.
    """

    workloads: tuple
    events: tuple
    values: np.ndarray
    series: dict = field(default_factory=dict)
    suite_name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "events", tuple(self.events))
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        n, m = len(self.workloads), len(self.events)
        if values.shape != (n, m):
            raise ValueError(
                f"values shape {values.shape} != ({n} workloads, {m} events)"
            )
        if len(set(self.workloads)) != n:
            raise ValueError("duplicate workload names")
        if len(set(self.events)) != m:
            raise ValueError("duplicate event names")
        finite_mask = np.isfinite(values)
        if not finite_mask.all():
            bad = tuple(
                str(self.events[j])
                for j in np.where(~finite_mask.all(axis=0))[0]
            )
            raise ValueError(
                f"values contain non-finite entries "
                f"(event column(s): {', '.join(bad)})"
            )
        for event, series_list in self.series.items():
            if event not in self.events:
                raise ValueError(f"series for unknown event {event!r}")
            if len(series_list) != n:
                raise ValueError(
                    f"series for {event!r} has {len(series_list)} entries, "
                    f"expected {n}"
                )
        check_series_set(self.series, self.workloads)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_measurement(cls, measurement):
        """Build from a :class:`repro.perf.session.SuiteMeasurement`."""
        return cls(
            workloads=measurement.workload_names,
            events=measurement.events,
            values=measurement.matrix,
            series=dict(measurement.series),
            suite_name=measurement.suite_name,
        )

    # -- views --------------------------------------------------------------

    @property
    def n_workloads(self):
        return len(self.workloads)

    @property
    def n_events(self):
        return len(self.events)

    def column(self, event):
        """One event's totals across workloads."""
        return self.values[:, self._event_index(event)]

    def row(self, workload):
        """One workload's totals across events."""
        return self.values[self._workload_index(workload)]

    def _event_index(self, event):
        try:
            return self.events.index(event)
        except ValueError:
            raise KeyError(
                f"unknown event {event!r}; have {list(self.events)}"
            ) from None

    def _workload_index(self, workload):
        try:
            return self.workloads.index(workload)
        except ValueError:
            raise KeyError(
                f"unknown workload {workload!r}; have {list(self.workloads)}"
            ) from None

    def select_events(self, events):
        """Restrict to an event subset (focused scoring, Section IV-B)."""
        events = tuple(events)
        idx = [self._event_index(e) for e in events]
        return CounterMatrix(
            workloads=self.workloads,
            events=events,
            values=self.values[:, idx],
            series={e: self.series[e] for e in events if e in self.series},
            suite_name=self.suite_name,
        )

    def select_workloads(self, workloads):
        """Restrict to a workload subset (subset scoring, Section IV-C)."""
        workloads = tuple(workloads)
        idx = [self._workload_index(w) for w in workloads]
        return CounterMatrix(
            workloads=workloads,
            events=self.events,
            values=self.values[idx],
            series={
                e: [s[i] for i in idx] for e, s in self.series.items()
            },
            suite_name=self.suite_name,
        )

    def event_series(self, event):
        """The ``T_z`` of Eq. 7: all workloads' series for one event."""
        if event not in self.series:
            raise KeyError(
                f"no time series recorded for event {event!r}"
            )
        return self.series[event]

    @property
    def has_series(self):
        return bool(self.series)
