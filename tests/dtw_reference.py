"""Per-cell reference DTW fill: the oracle the wavefront fills are
diffed against.

:func:`accumulate_banded` is the classic row-by-row recurrence with a
Sakoe-Chiba band, one cell per Python step. ``band=n+m`` admits every
cell, so it also serves as the unbanded oracle. Its borders are plain
prefix sums and its band is clamped to ``max(band, |n - m|)``, the rule
every fill in :mod:`repro.stats.dtw` follows, so
``repro.stats.dtw._accumulate(cost, band)`` and the batched
``pair_distances`` must agree with it bit for bit.
"""

import numpy as np


def accumulate_banded(cost, band):
    """Row-by-row DTW fill with a Sakoe-Chiba band."""
    n, m = cost.shape
    acc = np.full((n, m), np.inf)
    band = max(band, abs(n - m))  # band must admit the corner cell
    acc[0, 0] = cost[0, 0]
    for j in range(1, m):
        if j > band:
            break
        acc[0, j] = acc[0, j - 1] + cost[0, j]
    for i in range(1, n):
        if i > band:
            break
        acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
    for i in range(1, n):
        lo = max(1, i - band)
        hi = min(m, i + band + 1)
        if lo >= hi:
            continue
        prev = acc[i - 1]
        row = acc[i]
        best_up = np.minimum(prev[lo:hi], prev[lo - 1 : hi - 1])
        seg = cost[i, lo:hi]
        left = row[lo - 1]
        for off in range(hi - lo):
            left = seg[off] + min(best_up[off], left)
            row[lo + off] = left
    return acc
