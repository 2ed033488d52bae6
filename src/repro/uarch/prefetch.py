"""Next-line prefetcher.

A deliberately simple L2-side prefetcher: every demand miss queues a
prefetch of the next sequential cache line. Prefetch fills install lines
without touching the demand counters, so enabling it changes miss *rates*
(the effect we ablate) but never corrupts the Table IV event semantics.

:meth:`NextLinePrefetcher.install` is the per-access reference for one
prefetch fill. The batch path hands prefetches to
:meth:`repro.uarch.cache.SetAssociativeCache.run_ops` as prefetch ops,
interleaved with the demand misses that issue them, and adds to the
same ``issued`` / ``installed`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class NextLinePrefetcher:
    """Sequential next-line prefetcher.

    Parameters
    ----------
    line_bytes:
        Cache-line size; the prefetch target of address ``a`` is
        ``a + line_bytes``.
    """

    line_bytes: int
    issued: int = field(default=0, init=False)
    installed: int = field(default=0, init=False)

    def prefetch_targets(self, miss_addrs):
        """Prefetch addresses for a batch of demand misses."""
        addrs = np.asarray(miss_addrs)
        self.issued += int(addrs.shape[0])
        return (addrs + self.line_bytes).tolist()

    def install(self, cache, addr):
        """Fill ``addr``'s line into ``cache`` without counting a demand
        access (no-op if already resident)."""
        line = cache.line_address(int(addr))
        set_idx, tag = line % cache._n_sets, line // cache._n_sets
        if cache._find(set_idx, tag) is not None:
            return False
        cache._fill(set_idx, tag)
        self.installed += 1
        return True

    def reset(self):
        """Zero the issued and installed counts."""
        self.issued = 0
        self.installed = 0
