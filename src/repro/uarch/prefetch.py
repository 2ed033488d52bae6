"""Next-line prefetcher.

A deliberately simple L2-side prefetcher: every demand miss queues a
prefetch of the next sequential cache line. Prefetch fills install lines
without touching the demand counters, so enabling it changes miss *rates*
(the effect we ablate) but never corrupts the Table IV event semantics.

The hierarchy hands prefetches to
:meth:`repro.uarch.cache.SetAssociativeCache.run_ops` as prefetch ops,
interleaved with the demand misses that issue them, and adds to the
prefetcher's ``issued`` / ``installed`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
