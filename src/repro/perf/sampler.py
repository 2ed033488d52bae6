"""Interval sampling of a running workload.

The paper samples PMU counters over time to obtain per-event series for
the TrendScore (Section III-B). :class:`IntervalSampler` is that loop: it
feeds a workload's trace intervals to a CPU model one at a time and
collects one :class:`repro.uarch.cpu.CounterSample` per interval --
the simulated analogue of ``perf stat -I <interval_ms>``.
"""

from __future__ import annotations


class IntervalSampler:
    """Collects per-interval samples from a CPU model.

    Parameters
    ----------
    cpu:
        A :class:`repro.uarch.cpu.CPU` (or anything exposing
        ``execute_interval``).
    warmup_intervals:
        Intervals executed but *discarded* before sampling starts --
        removes cold-cache transients, mirroring how the paper's
        measurements skip initialization (all workloads "executed with
        their standard input settings" past startup).
    """

    def __init__(self, cpu, warmup_intervals=0):
        if warmup_intervals < 0:
            raise ValueError("warmup_intervals must be non-negative")
        self.cpu = cpu
        self.warmup_intervals = warmup_intervals

    def collect(self, intervals):
        """Execute all trace intervals; return the retained samples.

        The first ``warmup_intervals`` samples are executed (their side
        effects warm the caches) but dropped from the result.
        """
        samples = []
        for i, interval in enumerate(intervals):
            sample = self.cpu.execute_interval(interval)
            if i >= self.warmup_intervals:
                samples.append(sample)
        if not samples:
            raise ValueError(
                "no samples retained; fewer intervals than warmup_intervals?"
            )
        return samples
