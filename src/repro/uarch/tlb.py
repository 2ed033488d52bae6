"""TLB models and page-walk cycle accounting.

The Table IV events this module feeds:

* ``dTLB-loads`` / ``dTLB-stores`` -- every data access consults the dTLB;
* ``dTLB-load-misses`` / ``dTLB-store-misses`` -- first-level dTLB misses
  (whether or not the STLB catches them, matching the Linux perf mapping
  of these events to first-level-miss -> walk-or-STLB events);
* ``dtlb_walk_pending`` -- cycles spent walking the page table, charged
  only when the STLB also misses.

The TLB itself is a set-associative cache keyed by virtual page number,
reusing the same OrderedDict LRU machinery shape as the data caches.
:meth:`TwoLevelTLB.access_many` runs a batch as one fused dTLB -> STLB
loop over precomputed set indices and tags, bit-identical to the
per-access reference model kept with the tests.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.uarch.cache import CHUNK, as_batch
from repro.uarch.config import TLBConfig


@dataclass
class TLBCounters:
    """Batch-level dTLB event deltas."""

    loads: int = 0
    stores: int = 0
    load_misses: int = 0
    store_misses: int = 0
    stlb_hits: int = 0
    walks: int = 0
    walk_cycles: int = 0

    @property
    def accesses(self):
        return self.loads + self.stores

    @property
    def misses(self):
        return self.load_misses + self.store_misses


class TLB:
    """One TLB level: set-associative, LRU, keyed by virtual page number."""

    def __init__(self, config: TLBConfig):
        self.config = config
        self._page_bits = config.page_bytes.bit_length() - 1
        self._n_sets = config.n_sets
        self._sets = [OrderedDict() for _ in range(config.n_sets)]
        self.hits = 0
        self.misses = 0

    def page_number(self, addr):
        return addr >> self._page_bits


class TwoLevelTLB:
    """dTLB backed by a shared STLB, with page-walk cycle accounting.

    Parameters
    ----------
    dtlb_config, stlb_config:
        Geometries of the two levels.
    walk_cycles:
        Cost of a full table walk charged on a double miss (feeds the
        ``dtlb_walk_pending`` event).
    """

    def __init__(self, dtlb_config: TLBConfig, stlb_config: TLBConfig,
                 walk_cycles: int):
        if walk_cycles < 0:
            raise ValueError("walk_cycles must be non-negative")
        self.dtlb = TLB(dtlb_config)
        self.stlb = TLB(stlb_config)
        self.walk_cycles = walk_cycles

    def access_many(self, addrs, writes=None):
        """Translate a batch of byte addresses in order.

        Returns
        -------
        TLBCounters
            Event deltas for this batch.
        """
        addrs, writes = as_batch(addrs, writes)
        n = addrs.shape[0]
        if n == 0:
            return TLBCounters()
        dtlb, stlb = self.dtlb, self.stlb
        pages = addrs >> dtlb._page_bits
        # An access to the page translated just before is a dTLB hit on
        # its set's MRU entry, which changes no state: walk page changes.
        heads = np.flatnonzero(np.concatenate(([True],
                                               pages[1:] != pages[:-1])))
        pages = pages[heads]
        m = pages.shape[0]
        n1, sets1, assoc1 = dtlb._n_sets, dtlb._sets, dtlb.config.associativity
        n2, sets2, assoc2 = stlb._n_sets, stlb._sets, stlb.config.associativity
        dtlb_hits = np.ones(n, dtype=bool)
        walks = 0
        for start in range(0, m, CHUNK):
            page = pages[start:start + CHUNK]
            misses = []
            for i, set1, tag1, set2, tag2 in zip(
                    range(start, m),
                    (page % n1).tolist(), (page // n1).tolist(),
                    (page % n2).tolist(), (page // n2).tolist()):
                ways = sets1[set1]
                if tag1 in ways:
                    ways.move_to_end(tag1)
                    continue
                misses.append(i)
                if len(ways) >= assoc1:
                    ways.popitem(last=False)
                ways[tag1] = True
                ways = sets2[set2]
                if tag2 in ways:
                    ways.move_to_end(tag2)
                    continue
                walks += 1
                if len(ways) >= assoc2:
                    ways.popitem(last=False)
                ways[tag2] = True
            dtlb_hits[heads[misses]] = False
        stores = int(np.count_nonzero(writes))
        dtlb_misses = n - int(np.count_nonzero(dtlb_hits))
        store_misses = int(np.count_nonzero(writes & ~dtlb_hits))
        dtlb.hits += n - dtlb_misses
        dtlb.misses += dtlb_misses
        stlb.hits += dtlb_misses - walks
        stlb.misses += walks
        return TLBCounters(
            loads=n - stores,
            stores=stores,
            load_misses=dtlb_misses - store_misses,
            store_misses=store_misses,
            stlb_hits=dtlb_misses - walks,
            walks=walks,
            walk_cycles=walks * self.walk_cycles,
        )
