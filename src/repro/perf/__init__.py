"""PMU observation substrate.

The paper collects its data with Linux ``perf`` on the Table IV event
list, sampling over time to obtain per-counter time series (for the
TrendScore) and end-of-run totals (for the other three scores). This
package is the simulated equivalent:

* :mod:`repro.perf.events` -- the canonical Table IV event names, their
  mapping onto simulator counters, and the event groups used by focused
  scoring (Section IV-B).
* :mod:`repro.perf.pmu` -- a PMU with a limited number of hardware
  counter slots and round-robin multiplexing. Reproduces the accuracy
  loss the paper's footnote 1 warns about when more events are requested
  than slots exist.
* :mod:`repro.perf.sampler` -- runs a workload's trace intervals on a
  CPU model and keeps one :class:`repro.uarch.cpu.CounterSample` per
  interval; :func:`~repro.perf.events.samples_to_series` and
  :func:`~repro.perf.events.samples_to_totals` turn those into
  per-event series and totals.
* :mod:`repro.perf.session` -- the ``perf stat``-like front end: runs a
  workload (or a whole suite) on a CPU model and returns measurements.
"""

from repro.perf.events import (
    TABLE_IV_EVENTS,
    EVENT_GROUPS,
    event_group,
    sample_value,
    samples_to_series,
    samples_to_totals,
)
from repro.perf.pmu import PMU, MultiplexedMeasurement
from repro.perf.sampler import IntervalSampler
from repro.perf.session import PerfSession, WorkloadMeasurement, SuiteMeasurement

__all__ = [
    "TABLE_IV_EVENTS",
    "EVENT_GROUPS",
    "event_group",
    "sample_value",
    "samples_to_series",
    "samples_to_totals",
    "PMU",
    "MultiplexedMeasurement",
    "IntervalSampler",
    "PerfSession",
    "WorkloadMeasurement",
    "SuiteMeasurement",
]
