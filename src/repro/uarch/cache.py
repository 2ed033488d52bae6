"""Set-associative cache model.

Exact state-machine simulation of one cache level: addresses are split
into tag / set-index / line-offset, each set holds up to ``associativity``
tags, and a victim is chosen by the configured replacement policy on a
fill. Writes are modelled as write-allocate (a store miss fills the line),
matching the inclusive write-back hierarchy of the Coffee Lake part in
Table II closely enough for event counting.

The per-set structure is an :class:`collections.OrderedDict` mapping tag
to a dirty bit: ``move_to_end`` gives O(1) LRU updates, FIFO simply never
reorders, and random picks an arbitrary resident tag. Dirty lines are
tracked so evictions count write-back transactions.

:meth:`SetAssociativeCache.access` is the per-access reference model.
:meth:`SetAssociativeCache.access_many` is the fused batch path the
simulator runs: set indices and tags are computed once with numpy, one
Python loop walks them in chunks of at most :data:`CHUNK` accesses, and
the counters are added once per batch. Both leave the same bits behind.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.uarch.config import CacheConfig

#: Most accesses a batch loop turns into Python lists at once; bounds
#: the transient memory of the fused loops.
CHUNK = 1024


def as_batch(addrs, writes=None):
    """``(addrs, writes)`` as aligned arrays; ``writes`` defaults to
    all-loads."""
    addrs = np.asarray(addrs)
    n = addrs.shape[0]
    if writes is None:
        return addrs, np.zeros(n, dtype=bool)
    writes = np.asarray(writes, dtype=bool)
    if writes.shape[0] != n:
        raise ValueError(
            f"writes length {writes.shape[0]} != addrs length {n}"
        )
    return addrs, writes


@dataclass
class CacheStats:
    """Running access counters for one cache level."""

    loads: int = 0
    stores: int = 0
    load_misses: int = 0
    store_misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self):
        return self.loads + self.stores

    @property
    def misses(self):
        return self.load_misses + self.store_misses

    @property
    def miss_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset(self):
        self.loads = 0
        self.stores = 0
        self.load_misses = 0
        self.store_misses = 0
        self.evictions = 0
        self.writebacks = 0

    def snapshot(self):
        """Immutable copy of the current counters."""
        return CacheStats(
            loads=self.loads,
            stores=self.stores,
            load_misses=self.load_misses,
            store_misses=self.store_misses,
            evictions=self.evictions,
            writebacks=self.writebacks,
        )

    def add_batch(self, writes, hits, evictions, writebacks):
        """Count one batch of demand accesses: ``writes`` marks stores
        and ``hits`` the accesses that hit."""
        n = writes.shape[0]
        stores = int(np.count_nonzero(writes))
        misses = n - int(np.count_nonzero(hits))
        store_misses = int(np.count_nonzero(writes & ~hits))
        self.loads += n - stores
        self.stores += stores
        self.load_misses += misses - store_misses
        self.store_misses += store_misses
        self.evictions += evictions
        self.writebacks += writebacks


class SetAssociativeCache:
    """One cache level.

    Parameters
    ----------
    config:
        Geometry and policy (:class:`repro.uarch.config.CacheConfig`).
    rng:
        Seed or Generator; only used by the ``random`` replacement
        policy. Defaults to 0 so replacement is deterministic.
    """

    def __init__(self, config: CacheConfig, rng=0):
        self.config = config
        self.stats = CacheStats()
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._n_sets = config.n_sets
        self._sets = [OrderedDict() for _ in range(config.n_sets)]
        self._rng = np.random.default_rng(rng)

    # -- address helpers -------------------------------------------------

    def line_address(self, addr):
        """Drop the intra-line offset bits."""
        return addr >> self._offset_bits

    def set_index(self, addr):
        """Set index; modulo handles non-power-of-two set counts (e.g. the
        sliced 12 MB LLC of Table II)."""
        return self.line_address(addr) % self._n_sets

    def tag(self, addr):
        return self.line_address(addr) // self._n_sets

    # -- core access path -------------------------------------------------

    def access(self, addr, is_write=False):
        """Access one byte address. Returns ``True`` on hit.

        A miss allocates the line (write-allocate), evicting per policy
        when the set is full.
        """
        line = self.line_address(int(addr))
        set_idx, tag = line % self._n_sets, line // self._n_sets
        ways = self._sets[set_idx]

        if is_write:
            self.stats.stores += 1
        else:
            self.stats.loads += 1

        if tag in ways:
            if self.config.policy == "lru":
                ways.move_to_end(tag)
            if is_write:
                ways[tag] = True  # mark dirty
            return True

        if is_write:
            self.stats.store_misses += 1
        else:
            self.stats.load_misses += 1
        self._fill(ways, tag, dirty=is_write)
        return False

    def _fill(self, ways, tag, dirty=False):
        if len(ways) >= self.config.associativity:
            self.stats.evictions += 1
            if self.pop_victim(ways):
                # Write-back cache: evicting a dirty line costs a
                # memory-side write transaction.
                self.stats.writebacks += 1
        ways[tag] = dirty

    def pop_victim(self, ways):
        """Evict one line from the full set ``ways``; returns its dirty
        bit.

        LRU and FIFO both evict the head: LRU reorders on hits, FIFO does
        not, so the head is the right victim for both. ``random`` makes
        one draw from the cache's generator per eviction, so any loop
        that evicts in reference order draws the same victims.
        """
        if self.config.policy == "random":
            victim_pos = int(self._rng.integers(len(ways)))
            return ways.pop(next(islice(ways, victim_pos, None)))
        return ways.popitem(last=False)[1]

    def access_many(self, addrs, writes=None):
        """Access a vector of byte addresses in order.

        Bit-identical to calling :meth:`access` on each address in turn,
        including set order, dirty bits and the ``random`` policy's draws.

        Parameters
        ----------
        addrs:
            Integer array of byte addresses.
        writes:
            Optional boolean array marking stores; all-loads if omitted.

        Returns
        -------
        numpy.ndarray
            Boolean hit mask, aligned with ``addrs``.
        """
        addrs, writes = as_batch(addrs, writes)
        n = addrs.shape[0]
        hits = np.ones(n, dtype=bool)
        if n == 0:
            return hits
        lines = addrs >> self._offset_bits
        n_sets, sets = self._n_sets, self._sets
        assoc = self.config.associativity
        lru = self.config.policy == "lru"
        random_policy = self.config.policy == "random"
        pop_victim = self.pop_victim
        evictions = writebacks = 0
        for start in range(0, n, CHUNK):
            chunk = lines[start:start + CHUNK]
            misses = []
            miss = misses.append
            for i, set_idx, tag, write in zip(
                    range(start, n), (chunk % n_sets).tolist(),
                    (chunk // n_sets).tolist(),
                    writes[start:start + CHUNK].tolist()):
                ways = sets[set_idx]
                if tag in ways:
                    if lru:
                        ways.move_to_end(tag)
                    if write:
                        ways[tag] = True
                    continue
                miss(i)
                if len(ways) >= assoc:
                    evictions += 1
                    if (pop_victim(ways) if random_policy
                            else ways.popitem(last=False)[1]):
                        writebacks += 1
                ways[tag] = write
            hits[misses] = False
        self.stats.add_batch(writes, hits, evictions, writebacks)
        return hits

    # -- introspection -----------------------------------------------------

    def contains(self, addr):
        """Whether the line holding ``addr`` is currently resident."""
        line = self.line_address(int(addr))
        return (line // self._n_sets) in self._sets[line % self._n_sets]

    def resident_lines(self):
        """Total number of valid lines."""
        return sum(len(s) for s in self._sets)

    def flush(self):
        """Invalidate every line (stats are kept)."""
        for s in self._sets:
            s.clear()

    def reset(self):
        """Invalidate and zero the stats."""
        self.flush()
        self.stats.reset()
