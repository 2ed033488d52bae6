"""Single-core CPU model: executes workload trace intervals.

The CPU composes the cache hierarchy, the two-level TLB, the branch
predictor, the demand pager, and the timing model. It consumes *trace
intervals* -- batches of memory accesses and branch outcomes produced by
the workload substrate -- and emits one :class:`CounterSample` per
interval. A sequence of samples is exactly what a sampled ``perf stat``
session produces, which is what the Perspector metrics consume.

The trace-interval protocol (duck-typed to avoid a dependency on the
workload package) is any object with:

* ``addresses`` -- integer byte addresses of data accesses, in order;
* ``is_write`` -- boolean store mask aligned with ``addresses``;
* ``branch_sites`` -- integer branch PC identifiers, in order;
* ``branch_taken`` -- boolean outcome per branch;
* ``n_instructions`` -- total retired instructions the interval
  represents (memory + branch + ALU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.branch import make_predictor
from repro.uarch.cache import check_addresses
from repro.uarch.config import MachineConfig
from repro.uarch.hierarchy import CacheHierarchy, HierarchyCounters
from repro.uarch.memory import DemandPager
from repro.uarch.pipeline import CycleBreakdown, TimingModel
from repro.uarch.tlb import TLBCounters, TwoLevelTLB


@dataclass(frozen=True)
class CounterSample:
    """Every architectural event the simulator produces for one interval.

    Field names are simulator-internal; :mod:`repro.perf.events` maps them
    to the canonical Table IV PMU event names.
    """

    instructions: int
    cycles: float
    branch_instructions: int
    branch_misses: int
    dtlb_loads: int
    dtlb_stores: int
    dtlb_load_misses: int
    dtlb_store_misses: int
    walk_pending_cycles: float
    stalls_mem_any: float
    page_faults: int
    llc_loads: int
    llc_stores: int
    llc_load_misses: int
    llc_store_misses: int
    l1_loads: int
    l1_stores: int
    l1_load_misses: int
    l1_store_misses: int
    l2_accesses: int
    l2_misses: int

    @property
    def ipc(self):
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


#: dtype kinds accepted per interval field, with how errors name them.
_INTEGER = ("iu", "an integer")
_FLAG = ("iub", "a bool or integer")


def _field(interval, name, kinds=None, length=None):
    """One interval field as a checked 1-D array of ``length`` elements
    (when given) whose dtype kind is in ``kinds`` (when given). An empty
    field may have any dtype: an empty list has no useful one."""
    values = np.asarray(getattr(interval, name))
    if values.ndim != 1:
        raise ValueError(
            f"interval.{name} must be 1-D, got shape {values.shape}"
        )
    if length is not None and values.shape[0] != length:
        raise ValueError(
            f"interval.{name} length {values.shape[0]} != {length}"
        )
    if values.shape[0] == 0:
        return values.astype(np.int64)
    if kinds is not None and values.dtype.kind not in kinds[0]:
        raise ValueError(
            f"interval.{name} must be {kinds[1]} array, got dtype "
            f"{values.dtype}"
        )
    return values


class CPU:
    """One simulated core (plus shared LLC slice).

    Parameters
    ----------
    machine:
        Full machine description (see :func:`repro.uarch.config.xeon_e2186g`).
    seed:
        Integer key of the ``random`` replacement policy's victim draws,
        if configured: each cache level derives its own from it.
        Defaults to 0 so an unconfigured CPU is still deterministic.
    """

    def __init__(self, machine: MachineConfig, seed=0):
        self.machine = machine
        self.hierarchy = CacheHierarchy(machine, seed=seed)
        self.tlb = TwoLevelTLB(
            machine.dtlb, machine.stlb, machine.memory.walk_cycles
        )
        self.predictor = make_predictor(machine.branch)
        self.pager = DemandPager(
            page_bytes=machine.dtlb.page_bytes,
            resident_pages=machine.memory.resident_pages,
        )
        self.timing = TimingModel(machine)

    def execute_interval(self, interval):
        """Run one trace interval through the machine.

        The interval is validated before any component sees it, so a
        rejected interval (:class:`ValueError` naming the field) leaves
        the CPU as it was. Addresses must lie in ``[0, 2**63)``.

        Returns
        -------
        CounterSample
        """
        addrs = _field(interval, "addresses", _INTEGER)
        check_addresses(addrs, "interval.addresses")
        writes = _field(interval, "is_write",
                        length=addrs.shape[0]).astype(bool, copy=False)
        sites = _field(interval, "branch_sites", _INTEGER)
        taken = _field(interval, "branch_taken", _FLAG,
                       length=sites.shape[0]).astype(bool, copy=False)
        n_instructions = int(interval.n_instructions)
        min_instructions = addrs.shape[0] + sites.shape[0]
        if n_instructions < min_instructions:
            raise ValueError(
                f"n_instructions ({n_instructions}) below the trace's own "
                f"memory+branch operation count ({min_instructions})"
            )

        page_faults = self.pager.touch_many(addrs)
        tlb_counters = self.tlb.access_many(addrs, writes)
        hier_counters = self.hierarchy.access_many(addrs, writes)
        mispredicts = self.predictor.run_trace(sites, taken)

        breakdown = self.timing.cycles(
            instructions=n_instructions,
            mispredicts=mispredicts,
            hierarchy=hier_counters,
            tlb=tlb_counters,
            page_faults=page_faults,
        )
        return self._sample(
            n_instructions, sites.shape[0], mispredicts,
            tlb_counters, hier_counters, page_faults, breakdown,
        )

    @staticmethod
    def _sample(n_instructions, n_branches, mispredicts,
                tlb: TLBCounters, hier: HierarchyCounters, page_faults,
                breakdown: CycleBreakdown):
        return CounterSample(
            instructions=n_instructions,
            cycles=breakdown.total_cycles,
            branch_instructions=n_branches,
            branch_misses=mispredicts,
            dtlb_loads=tlb.loads,
            dtlb_stores=tlb.stores,
            dtlb_load_misses=tlb.load_misses,
            dtlb_store_misses=tlb.store_misses,
            walk_pending_cycles=float(tlb.walk_cycles),
            stalls_mem_any=breakdown.memory_stall_cycles,
            page_faults=page_faults,
            llc_loads=hier.llc_loads,
            llc_stores=hier.llc_stores,
            llc_load_misses=hier.llc_load_misses,
            llc_store_misses=hier.llc_store_misses,
            l1_loads=hier.l1_loads,
            l1_stores=hier.l1_stores,
            l1_load_misses=hier.l1_load_misses,
            l1_store_misses=hier.l1_store_misses,
            l2_accesses=hier.l2_accesses,
            l2_misses=hier.l2_misses,
        )

    def run(self, intervals):
        """Execute a sequence of trace intervals, returning all samples."""
        return [self.execute_interval(interval) for interval in intervals]
