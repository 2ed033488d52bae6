"""Three-level cache hierarchy (L1 -> L2 -> LLC).

Misses propagate down one level at a time; an access that misses L2 is
what the PMU counts as an ``LLC-load``/``LLC-store`` (Table IV), and an
access that also misses the LLC is an ``LLC-load-miss``/``LLC-store-miss``
serviced by DRAM. An optional next-line prefetcher sits beside the L2 and
fills both L2 and LLC (without perturbing the demand counters).

A batch runs one :meth:`SetAssociativeCache.run_ops` call per level, each
over the op stream that level sees in reference order, under every
replacement policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.cache import SetAssociativeCache, as_batch
from repro.uarch.config import MachineConfig
from repro.uarch.prefetch import NextLinePrefetcher


@dataclass(frozen=True)
class HierarchyCounters:
    """Demand-access counters for one batch of accesses.

    ``llc_loads``/``llc_stores`` count accesses *reaching* the LLC (i.e.
    L2 misses), matching the semantics of the ``LLC-loads``/``LLC-stores``
    PMU events in Table IV.
    """

    l1_loads: int
    l1_stores: int
    l1_load_misses: int
    l1_store_misses: int
    l2_accesses: int
    l2_misses: int
    llc_loads: int
    llc_stores: int
    llc_load_misses: int
    llc_store_misses: int

    @property
    def llc_accesses(self):
        return self.llc_loads + self.llc_stores

    @property
    def llc_misses(self):
        return self.llc_load_misses + self.llc_store_misses


class CacheHierarchy:
    """L1 -> L2 -> LLC demand path with optional next-line prefetch."""

    def __init__(self, machine: MachineConfig, seed=0):
        # Each level keys its ``random`` victim draws on its own seed,
        # distinct per (seed, level).
        self.l1 = SetAssociativeCache(machine.l1, seed=4 * seed)
        self.l2 = SetAssociativeCache(machine.l2, seed=4 * seed + 1)
        self.llc = SetAssociativeCache(machine.llc, seed=4 * seed + 2)
        self.prefetcher = (
            NextLinePrefetcher(machine.l2.line_bytes)
            if machine.enable_prefetcher
            else None
        )

    def access_many(self, addrs, writes=None):
        """Run a batch of byte addresses through all three levels.

        The L1 takes the batch. Without the prefetcher, the L2 takes the
        L1 misses and the LLC the L2 misses. With it, the L2 takes the
        interleaved ops ``[demand x, prefetch x+1]`` per L1 miss ``x``
        (line addresses) and the LLC ``[demand x`` if the L2 missed,
        ``prefetch x+1]``: the levels share no state, so one
        :meth:`SetAssociativeCache.run_ops` call per level is exact.

        Returns
        -------
        HierarchyCounters
            Event deltas for exactly this batch.
        """
        addrs, writes = as_batch(addrs, writes)
        before = (
            self.l1.stats.snapshot(),
            self.l2.stats.snapshot(),
            self.llc.stats.snapshot(),
        )

        l1_hits = self.l1.access_many(addrs, writes)
        l1_miss_mask = ~l1_hits
        miss_addrs = addrs[l1_miss_mask]
        miss_writes = writes[l1_miss_mask]

        if miss_addrs.shape[0]:
            if self.prefetcher is None:
                l2_hits = self.l2.access_many(miss_addrs, miss_writes)
                l2_miss_mask = ~l2_hits
                llc_addrs = miss_addrs[l2_miss_mask]
                llc_writes = miss_writes[l2_miss_mask]
                if llc_addrs.shape[0]:
                    self.llc.access_many(llc_addrs, llc_writes)
            else:
                self._prefetching_op_streams(miss_addrs, miss_writes)

        after = (self.l1.stats, self.l2.stats, self.llc.stats)
        d_l1 = _delta(before[0], after[0])
        d_l2 = _delta(before[1], after[1])
        d_llc = _delta(before[2], after[2])

        return HierarchyCounters(
            l1_loads=d_l1["loads"],
            l1_stores=d_l1["stores"],
            l1_load_misses=d_l1["load_misses"],
            l1_store_misses=d_l1["store_misses"],
            l2_accesses=d_l2["loads"] + d_l2["stores"],
            l2_misses=d_l2["load_misses"] + d_l2["store_misses"],
            llc_loads=d_llc["loads"],
            llc_stores=d_llc["stores"],
            llc_load_misses=d_llc["load_misses"],
            llc_store_misses=d_llc["store_misses"],
        )

    def _prefetching_op_streams(self, addrs, writes):
        """The L1 misses ``addrs`` through L2 and LLC with next-line
        prefetch: one op stream per level. All levels share one line
        size, so the target ``addr + line_bytes`` is line ``line + 1``
        in both caches."""
        n = addrs.shape[0]
        lines = addrs >> self.l2._offset_bits
        ops = np.stack([lines, lines + 1], axis=1).reshape(-1)
        prefetch = np.tile([False, True], n)
        op_writes = np.zeros(2 * n, dtype=bool)
        op_writes[0::2] = writes
        l2_present = self.l2.run_ops(ops, op_writes, prefetch)
        # The LLC sees every prefetch, and the demand ops the L2 missed.
        keep = prefetch.copy()
        keep[0::2] = ~l2_present[0::2]
        llc_prefetch = prefetch[keep]
        llc_present = self.llc.run_ops(ops[keep], op_writes[keep],
                                       llc_prefetch)
        self.prefetcher.issued += n
        self.prefetcher.installed += (
            n - int(np.count_nonzero(l2_present[1::2]))
            + n - int(np.count_nonzero(llc_present[llc_prefetch])))


def _delta(before, after):
    return {
        "loads": after.loads - before.loads,
        "stores": after.stores - before.stores,
        "load_misses": after.load_misses - before.load_misses,
        "store_misses": after.store_misses - before.store_misses,
    }
