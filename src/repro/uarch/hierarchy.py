"""Three-level cache hierarchy (L1 -> L2 -> LLC).

Misses propagate down one level at a time; an access that misses L2 is
what the PMU counts as an ``LLC-load``/``LLC-store`` (Table IV), and an
access that also misses the LLC is an ``LLC-load-miss``/``LLC-store-miss``
serviced by DRAM. An optional next-line prefetcher sits beside the L2 and
fills both L2 and LLC (without perturbing the demand counters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.cache import CHUNK, SetAssociativeCache, as_batch
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

    @property
    def dram_accesses(self):
        return self.llc_misses


class CacheHierarchy:
    """L1 -> L2 -> LLC demand path with optional next-line prefetch."""

    def __init__(self, machine: MachineConfig, rng=0):
        rng = np.random.default_rng(rng)
        self.l1 = SetAssociativeCache(machine.l1, rng=rng)
        self.l2 = SetAssociativeCache(machine.l2, rng=rng)
        self.llc = SetAssociativeCache(machine.llc, rng=rng)
        self.prefetcher = (
            NextLinePrefetcher(machine.l2.line_bytes)
            if machine.enable_prefetcher
            else None
        )

    def access_many(self, addrs, writes=None):
        """Run a batch of byte addresses through all three levels.

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
                self._prefetching_lower_levels(miss_addrs, miss_writes)

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

    def _prefetching_lower_levels(self, addrs, writes):
        """The L1 misses ``addrs`` through L2 and LLC, with prefetch fills
        interleaved so a stream's next line is resident by the time it
        is needed.

        One fused loop per chunk, bit-identical to this per-miss
        composition of the reference methods::

            if not l2.access(addr, wr):
                llc.access(addr, wr)
            (target,) = pf.prefetch_targets(np.array([addr]))
            pf.install(l2, target)
            pf.install(llc, target)

        All levels share one line size, so the target ``addr +
        line_bytes`` is line ``line + 1`` in both caches.
        """
        l2, llc, pf = self.l2, self.llc, self.prefetcher
        n = addrs.shape[0]
        lines = addrs >> l2._offset_bits
        n2, sets2, assoc2 = l2._n_sets, l2._sets, l2.config.associativity
        n3, sets3, assoc3 = llc._n_sets, llc._sets, llc.config.associativity
        lru2, lru3 = l2.config.policy == "lru", llc.config.policy == "lru"
        rand2 = l2.config.policy == "random"
        rand3 = llc.config.policy == "random"
        pop2, pop3 = l2.pop_victim, llc.pop_victim
        l2_hits = np.ones(n, dtype=bool)
        llc_hits = np.ones(n, dtype=bool)
        ev2 = wb2 = ev3 = wb3 = installed = 0
        for start in range(0, n, CHUNK):
            line = lines[start:start + CHUNK]
            nxt = line + 1
            l2_misses, llc_misses = [], []
            for (i, set2, tag2, set3, tag3, pf_set2, pf_tag2, pf_set3,
                 pf_tag3, write) in zip(
                    range(start, n),
                    (line % n2).tolist(), (line // n2).tolist(),
                    (line % n3).tolist(), (line // n3).tolist(),
                    (nxt % n2).tolist(), (nxt // n2).tolist(),
                    (nxt % n3).tolist(), (nxt // n3).tolist(),
                    writes[start:start + CHUNK].tolist()):
                ways = sets2[set2]
                if tag2 in ways:
                    if lru2:
                        ways.move_to_end(tag2)
                    if write:
                        ways[tag2] = True
                else:
                    l2_misses.append(i)
                    if len(ways) >= assoc2:
                        ev2 += 1
                        if (pop2(ways) if rand2
                                else ways.popitem(last=False)[1]):
                            wb2 += 1
                    ways[tag2] = write
                    ways = sets3[set3]
                    if tag3 in ways:
                        if lru3:
                            ways.move_to_end(tag3)
                        if write:
                            ways[tag3] = True
                    else:
                        llc_misses.append(i)
                        if len(ways) >= assoc3:
                            ev3 += 1
                            if (pop3(ways) if rand3
                                    else ways.popitem(last=False)[1]):
                                wb3 += 1
                        ways[tag3] = write
                # Next-line prefetch: install clean, no demand counts.
                ways = sets2[pf_set2]
                if pf_tag2 not in ways:
                    installed += 1
                    if len(ways) >= assoc2:
                        ev2 += 1
                        if (pop2(ways) if rand2
                                else ways.popitem(last=False)[1]):
                            wb2 += 1
                    ways[pf_tag2] = False
                ways = sets3[pf_set3]
                if pf_tag3 not in ways:
                    installed += 1
                    if len(ways) >= assoc3:
                        ev3 += 1
                        if (pop3(ways) if rand3
                                else ways.popitem(last=False)[1]):
                            wb3 += 1
                    ways[pf_tag3] = False
            l2_hits[l2_misses] = False
            llc_hits[llc_misses] = False
        l2.stats.add_batch(writes, l2_hits, ev2, wb2)
        llc_mask = ~l2_hits
        llc.stats.add_batch(writes[llc_mask], llc_hits[llc_mask], ev3, wb3)
        pf.issued += n
        pf.installed += installed

    def reset(self):
        """Invalidate all levels and zero every stat."""
        self.l1.reset()
        self.l2.reset()
        self.llc.reset()


def _delta(before, after):
    return {
        "loads": after.loads - before.loads,
        "stores": after.stores - before.stores,
        "load_misses": after.load_misses - before.load_misses,
        "store_misses": after.store_misses - before.store_misses,
    }
