"""``perf stat``-style measurement sessions.

:class:`PerfSession` is the front end the experiments use: configure a
machine, an event list, and sampling parameters once; then measure
workloads or whole suites. Every workload runs on a *fresh, cold* CPU
(the paper measures each benchmark in its own process) with a
deterministic per-workload seed derived from the session seed and the
workload name, so suite-level results are reproducible and independent
of execution order.

The workload protocol (implemented by :class:`repro.workloads.base.Workload`):

* ``workload.name`` -- unique within its suite;
* ``workload.intervals(n_intervals, ops_per_interval, seed)`` -- yields
  trace-interval objects consumable by
  :meth:`repro.uarch.cpu.CPU.execute_interval`.

A suite is any object with ``suite.name`` and ``suite.workloads``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.perf.events import TABLE_IV_EVENTS
from repro.perf.sampler import IntervalSampler
from repro.uarch.config import xeon_e2186g
from repro.uarch.cpu import CPU


@dataclass(frozen=True)
class WorkloadMeasurement:
    """Measured counters for one workload.

    Attributes
    ----------
    name:
        Workload name.
    totals:
        Event -> end-of-run total.
    series:
        Event -> per-interval numpy series.
    instructions:
        Retired instruction total (not a Table IV event; carried
        separately for IPC/MPKI-style derived metrics).
    """

    name: str
    totals: dict
    series: dict
    instructions: float = 0.0

    def vector(self, events):
        """Totals as a vector in the given event order (one row of the
        paper's matrix X)."""
        return np.array([self.totals[e] for e in events], dtype=float)


@dataclass(frozen=True)
class SuiteMeasurement:
    """Measured counters for a whole suite.

    Attributes
    ----------
    suite_name:
        Name of the suite.
    workload_names:
        Row order of ``matrix``.
    events:
        Column order of ``matrix``.
    matrix:
        ``(n_workloads, n_events)`` totals matrix (the paper's X, with
        workloads as rows).
    series:
        Event -> list of per-workload series (aligned with
        ``workload_names``); the ``T_z`` sets of Eq. 7.
    """

    suite_name: str
    workload_names: tuple
    events: tuple
    matrix: np.ndarray
    series: dict
    instructions: tuple = ()

    @property
    def n_workloads(self):
        return len(self.workload_names)

    def select_events(self, events):
        """Restrict the measurement to an event subset (focused scoring)."""
        events = tuple(events)
        missing = [e for e in events if e not in self.events]
        if missing:
            raise KeyError(f"events not measured: {missing}")
        idx = [self.events.index(e) for e in events]
        return SuiteMeasurement(
            suite_name=self.suite_name,
            workload_names=self.workload_names,
            events=events,
            matrix=self.matrix[:, idx],
            series={e: self.series[e] for e in events},
            instructions=self.instructions,
        )

    def select_workloads(self, names):
        """Restrict the measurement to a workload subset (for subset
        scoring, Section IV-C)."""
        names = tuple(names)
        missing = [n for n in names if n not in self.workload_names]
        if missing:
            raise KeyError(f"workloads not measured: {missing}")
        idx = [self.workload_names.index(n) for n in names]
        return SuiteMeasurement(
            suite_name=self.suite_name,
            workload_names=names,
            events=self.events,
            matrix=self.matrix[idx],
            series={
                e: [s[i] for i in idx] for e, s in self.series.items()
            },
            instructions=tuple(
                self.instructions[i] for i in idx
            ) if self.instructions else (),
        )


def _workload_seed(session_seed, workload_name):
    """Stable per-workload seed: independent of run order and Python hash
    randomization."""
    return (session_seed * 1_000_003 + zlib.crc32(workload_name.encode())) % (
        2 ** 31
    )


class PerfSession:
    """Reusable measurement configuration.

    Parameters
    ----------
    machine:
        Machine config; defaults to the Table II Xeon.
    events:
        Events to program (default: full Table IV list).
    n_intervals:
        Sampling intervals retained per workload.
    ops_per_interval:
        Memory operations per interval (trace length knob: tests use
        small values, benchmark harnesses larger ones).
    warmup_intervals:
        Discarded leading intervals (cold-start removal).
    seed:
        Session seed; per-workload seeds derive from it.
    pmu:
        Optional :class:`repro.perf.pmu.PMU` through which samples are
        observed; when it multiplexes, measurements carry the induced
        estimation error (footnote 1).
    """

    def __init__(self, machine=None, events=TABLE_IV_EVENTS, n_intervals=40,
                 ops_per_interval=4000, warmup_intervals=2, warmup_boost=6,
                 seed=0, pmu=None):
        if n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        if ops_per_interval < 1:
            raise ValueError("ops_per_interval must be >= 1")
        if warmup_boost < 1:
            raise ValueError("warmup_boost must be >= 1")
        self.machine = machine if machine is not None else xeon_e2186g()
        self.events = tuple(events)
        self.n_intervals = n_intervals
        self.ops_per_interval = ops_per_interval
        self.warmup_intervals = warmup_intervals
        self.warmup_boost = warmup_boost
        self.seed = seed
        self.pmu = pmu

    def run_workload(self, workload):
        """Measure one workload on a fresh cold CPU.

        Returns
        -------
        WorkloadMeasurement
        """
        wl_seed = _workload_seed(self.seed, workload.name)
        cpu = CPU(self.machine, seed=wl_seed)
        sampler = IntervalSampler(cpu, warmup_intervals=self.warmup_intervals)
        intervals = workload.intervals(
            n_intervals=self.n_intervals + self.warmup_intervals,
            ops_per_interval=self.ops_per_interval,
            seed=wl_seed,
            boost_first=self.warmup_intervals,
            boost_factor=self.warmup_boost,
        )
        samples = sampler.collect(intervals)
        if self.pmu is not None:
            measurement = self.pmu.observe(samples)
            totals = measurement.totals
            series = measurement.series
            # Restrict to the session's event list (the PMU may be
            # programmed with a superset).
            totals = {e: totals[e] for e in self.events}
            series = {e: series[e] for e in self.events}
        else:
            from repro.perf.events import samples_to_series, samples_to_totals

            series = samples_to_series(samples, self.events)
            totals = samples_to_totals(samples, self.events)
        return WorkloadMeasurement(
            name=workload.name, totals=totals, series=series,
            instructions=float(sum(s.instructions for s in samples)),
        )

    def run_suite(self, suite):
        """Measure every workload in a suite.

        Returns
        -------
        SuiteMeasurement
        """
        workloads = list(suite.workloads)
        if not workloads:
            raise ValueError(f"suite {suite.name!r} has no workloads")
        measurements = [self.run_workload(w) for w in workloads]
        names = tuple(m.name for m in measurements)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate workload names in {suite.name!r}")
        matrix = np.vstack([m.vector(self.events) for m in measurements])
        series = {
            event: [m.series[event] for m in measurements]
            for event in self.events
        }
        return SuiteMeasurement(
            suite_name=suite.name,
            workload_names=names,
            events=self.events,
            matrix=matrix,
            series=series,
            instructions=tuple(m.instructions for m in measurements),
        )
