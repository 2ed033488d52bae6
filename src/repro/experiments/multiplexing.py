"""Footnote 1: PMU counter multiplexing loses accuracy.

The paper limits itself to the Table IV events because "capturing more
events than the available PMU counters results in a loss of accuracy due
to multiplexing by the OS". This experiment quantifies that with the PMU
model: measure one phase-rich workload through PMUs with decreasing slot
counts and report the per-event estimation error the duty-cycle scaling
introduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.events import TABLE_IV_EVENTS
from repro.perf.pmu import PMU
from repro.perf.sampler import IntervalSampler
from repro.perf.session import _workload_seed
from repro.uarch.config import xeon_e2186g
from repro.uarch.cpu import CPU
from repro.workloads import load_suite


@dataclass(frozen=True)
class MultiplexingResult:
    """Multiplexing error versus counter-slot count.

    Attributes
    ----------
    workload:
        The measured workload.
    slot_counts:
        PMU sizes evaluated (descending; the first is large enough to
        avoid multiplexing).
    mean_error / max_error:
        ``{n_slots: relative error}`` over all Table IV events.
    """

    workload: str
    slot_counts: tuple
    mean_error: dict
    max_error: dict


def run(workload_name="pagerank", suite_name="sgxgauge",
        slot_counts=(14, 7, 4, 2), n_intervals=24, ops_per_interval=1500,
        seed=7):
    """Measure multiplexing error on one workload.

    Returns
    -------
    MultiplexingResult
    """
    suite = load_suite(suite_name)
    workload = suite.workload(workload_name)
    wl_seed = _workload_seed(seed, workload.name)
    cpu = CPU(xeon_e2186g(), seed=wl_seed)
    sampler = IntervalSampler(cpu, warmup_intervals=2)
    samples = sampler.collect(
        workload.intervals(n_intervals + 2, ops_per_interval, seed=wl_seed)
    )
    mean_error = {}
    max_error = {}
    for n_slots in slot_counts:
        pmu = PMU(n_slots=n_slots, events=TABLE_IV_EVENTS)
        measurement = pmu.observe(samples)
        errors = [measurement.relative_error(e) for e in TABLE_IV_EVENTS]
        mean_error[n_slots] = float(np.mean(errors))
        max_error[n_slots] = float(np.max(errors))
    return MultiplexingResult(
        workload=workload_name,
        slot_counts=tuple(slot_counts),
        mean_error=mean_error,
        max_error=max_error,
    )


def render(result):
    lines = [
        f"footnote 1 -- PMU multiplexing error on {result.workload} "
        f"({len(TABLE_IV_EVENTS)} events programmed)",
        f"{'slots':>6} {'groups':>7} {'mean err':>9} {'max err':>9}",
    ]
    for n in result.slot_counts:
        groups = -(-len(TABLE_IV_EVENTS) // n)
        lines.append(
            f"{n:>6} {groups:>7} {result.mean_error[n]:>8.2%} "
            f"{result.max_error[n]:>8.2%}"
        )
    return "\n".join(lines)
