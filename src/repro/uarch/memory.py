"""Demand-paging model.

Feeds the ``page-faults`` event of Table IV. The model is intentionally
minimal: a page faults on first touch (a minor fault -- the dominant kind
for the paper's in-memory workloads on a 32 GB machine) and, if the
resident set ever exceeds ``resident_pages``, a FIFO page is evicted so a
later re-touch faults again. Table II disables transparent huge pages, so
all pages are the base 4 KB size.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np


class DemandPager:
    """Tracks resident pages and counts faults.

    Parameters
    ----------
    page_bytes:
        Page size (power of two).
    resident_pages:
        Maximum pages kept resident before FIFO eviction.
    """

    def __init__(self, page_bytes=4096, resident_pages=1 << 20):
        if page_bytes < 1 or page_bytes & (page_bytes - 1):
            raise ValueError(
                f"page_bytes must be a positive power of two, got {page_bytes}"
            )
        if resident_pages < 1:
            raise ValueError("resident_pages must be >= 1")
        self._page_bits = page_bytes.bit_length() - 1
        self.resident_pages = resident_pages
        self._resident = OrderedDict()
        self.faults = 0
        self.evictions = 0

    def page_number(self, addr):
        return addr >> self._page_bits

    def touch(self, addr):
        """Touch one byte address; returns ``True`` if it faulted."""
        page = self.page_number(int(addr))
        if page in self._resident:
            return False
        self.faults += 1
        if len(self._resident) >= self.resident_pages:
            self._resident.popitem(last=False)
            self.evictions += 1
        self._resident[page] = True
        return True

    def touch_many(self, addrs):
        """Touch a batch of addresses; returns the number of faults.

        When the batch cannot evict, only the first occurrence of each
        distinct page can fault: one membership pass over those pages, in
        first-occurrence order, and one ordered insert. Otherwise every
        access replays through :meth:`touch`. Either way the FIFO order
        of resident pages equals per-access :meth:`touch`'s.
        """
        addrs = np.asarray(addrs)
        if addrs.shape[0] == 0:
            return 0
        pages = addrs >> self._page_bits
        _, first_idx = np.unique(pages, return_index=True)
        resident = self._resident
        if len(resident) + first_idx.shape[0] <= self.resident_pages:
            # No eviction can occur in this batch, so faults happen only at
            # the first occurrence of each distinct page.
            novel = [page for page in pages[np.sort(first_idx)].tolist()
                     if page not in resident]
            resident.update(dict.fromkeys(novel, True))
            self.faults += len(novel)
            return len(novel)
        # Thrashing regime: evictions inside the batch can re-fault a
        # page touched earlier, so replay every access exactly.
        before = self.faults
        touch = self.touch
        for addr in addrs.tolist():
            touch(addr)
        return self.faults - before

    @property
    def resident_count(self):
        return len(self._resident)
