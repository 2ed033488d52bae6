"""Dynamic time warping (DTW).

The TrendScore (Section III-B, Eq. 7-8) measures how differently two
workloads' PMU time series evolve by the DTW distance between them [27].
DTW non-linearly warps the time axis to find the minimum-cost alignment of
two series that may have different lengths.

Implementation notes
--------------------
* The recurrence is the classic ``D[i,j] = cost(i,j) + min(D[i-1,j],
  D[i,j-1], D[i-1,j-1])`` with an absolute-difference local cost for 1-D
  series (Euclidean for multivariate rows).
* Every fill runs an anti-diagonal wavefront: each cell on diagonal
  ``d = i + j`` depends only on diagonals ``d-1`` and ``d-2``, so a
  diagonal is one vectorized numpy step and only the loop over
  diagonals remains in Python.
* An optional Sakoe-Chiba band constrains the warping path to a diagonal
  corridor -- an ablation knob (the paper uses unconstrained DTW).
* :func:`dtw_path` recovers the optimal alignment for inspection/plots.

One border rule, one batched kernel
-----------------------------------
A pair's distance is a function of ``(a, b, band)`` alone. Both fills
-- :func:`_accumulate`, the full matrix behind :func:`dtw_distance` and
:func:`dtw_path`, and :func:`_pair_wavefront`, the rolling-diagonal
batch behind :func:`pair_distances` -- accumulate both borders as plain
prefix sums, clamp the band to ``max(band, |n - m|)`` so it admits the
corner cell, and compute every interior cell as
``cost + min(min(up, left), diag)``. They agree bit for bit by two
facts:

* ``min`` over IEEE-754 doubles is exact -- it returns one of its
  operands unchanged -- so any association or evaluation order of the
  three-way ``min`` gives the same bits (all accumulated values here
  are non-negative or ``+inf``, so the ``-0.0`` vs ``+0.0`` tie case
  cannot arise).
* Every cell's final add ``cost[i, j] + m`` then sees the identical two
  operands in every fill, and each wavefront step is elementwise over
  the pair axis, so batch composition, length grouping and pair-axis
  chunking cannot move a bit.

The same two facts make a distance bitwise symmetric: swapping the
series transposes the grid, which swaps the two borders and the up and
left neighbours, and ``|a - b|`` equals ``|b - a|`` exactly. The
engine's pair store keys a distance by its sorted pair of series
digests and the band, and relies on all of this.
"""

from __future__ import annotations

import numpy as np


def _as_series(t, name):
    t = np.asarray(t, dtype=float)
    if t.ndim == 1:
        t = t[:, None]
    if t.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {t.shape}")
    if t.shape[0] == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} contains non-finite values")
    return t


def _local_cost_matrix(a, b):
    """Pairwise local costs between all elements of two series."""
    if a.shape[1] == 1 and b.shape[1] == 1:
        return np.abs(a[:, 0][:, None] - b[:, 0][None, :])
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _accumulate(cost, band=None):
    """Fill the DTW accumulated-cost matrix, one anti-diagonal per step.

    Both borders are plain prefix sums. A band (clamped to admit the
    corner cell) narrows each diagonal to its rows with
    ``|2i - d| <= band``; the cells outside it stay ``+inf``.
    """
    n, m = cost.shape
    wide = n + m if band is None else max(band, abs(n - m))
    acc = np.full((n, m), np.inf)
    acc[0, : wide + 1] = np.cumsum(cost[0, : wide + 1])
    acc[: wide + 1, 0] = np.cumsum(cost[: wide + 1, 0])
    for d in range(2, n + m - 1):
        i_lo = max(1, d - (m - 1), (d - wide + 1) // 2)
        i_hi = min(n - 1, d - 1, (d + wide) // 2)
        if i_lo > i_hi:
            continue
        i = np.arange(i_lo, i_hi + 1)
        j = d - i
        up = acc[i - 1, j]
        left = acc[i, j - 1]
        diag = acc[i - 1, j - 1]
        acc[i, j] = cost[i, j] + np.minimum(np.minimum(up, left), diag)
    return acc


def dtw_distance(a, b, band=None, normalize=False):
    """DTW distance between two series.

    Parameters
    ----------
    a, b:
        1-D series (or 2-D ``(len, dims)`` multivariate series).
    band:
        Optional Sakoe-Chiba band half-width; ``None`` means unconstrained
        (the paper's setting).
    normalize:
        If ``True``, divide the path cost by the warping path length,
        making distances comparable across series-length scales. The
        length is counted by :func:`_path_length` without materializing
        the path; request :func:`dtw_path` when the alignment itself is
        needed.

    Returns
    -------
    float
    """
    a = _as_series(a, "a")
    b = _as_series(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimensionality mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    cost = _local_cost_matrix(a, b)
    acc = _accumulate(cost, band=band)
    total = float(acc[-1, -1])
    if not normalize:
        return total
    return total / _path_length(acc)


def _path_length(acc):
    """Length of the warping path :func:`_traceback` would recover,
    without materializing it.

    Walks the same greedy backward steps with the same tie-breaking
    (``min`` over the candidates ordered diagonal, up, left keeps the
    first minimum, so diagonal wins ties, then up), counting instead of
    collecting -- ``normalize=True`` distances are unchanged while the
    path list allocation disappears.
    """
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    length = 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag = acc[i - 1, j - 1]
            up = acc[i - 1, j]
            left = acc[i, j - 1]
            if diag <= up and diag <= left:
                i -= 1
                j -= 1
            elif up <= left:
                i -= 1
            else:
                j -= 1
        length += 1
    return length


def _traceback(acc):
    """Recover the optimal warping path from the accumulated-cost matrix."""
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            candidates = (
                (acc[i - 1, j - 1], i - 1, j - 1),
                (acc[i - 1, j], i - 1, j),
                (acc[i, j - 1], i, j - 1),
            )
            _, i, j = min(candidates, key=lambda c: c[0])
        path.append((i, j))
    path.reverse()
    return path


def dtw_path(a, b, band=None):
    """DTW distance plus the optimal alignment path.

    Returns
    -------
    tuple[float, list[tuple[int, int]]]
        ``(distance, [(i, j), ...])`` with the path running from ``(0, 0)``
        to ``(len(a)-1, len(b)-1)``.
    """
    a = _as_series(a, "a")
    b = _as_series(b, "b")
    cost = _local_cost_matrix(a, b)
    acc = _accumulate(cost, band=band)
    return float(acc[-1, -1]), _traceback(acc)


#: Pairs per wavefront batch. :func:`_pair_wavefront` holds eight
#: ``(L, pairs)`` float64 buffers (both series, both borders, three
#: rolling diagonals and one scratch block), ~1.6 MB at L=100 and 256
#: pairs. Batches run to thousands of pairs (every event of a trend
#: score, or every fallback of a subset search, shares one call), so
#: the chunk, not the batch, bounds the temporaries. On a 3,000-pair
#: batch at L=100, 256 was the fastest of 64-1024 pairs per chunk
#: (128 and 1024 were 20-30% slower per pair: per-diagonal call overhead
#: below, cache misses above).
PAIR_CHUNK = 256


def pair_distances(arrays, idx_i, idx_j, band=None):
    """DTW distances for selected pairs of series.

    Pairs of 1-D series are grouped by their exact ``(len_a, len_b)``
    shape, and each group runs :func:`_pair_wavefront`, ``PAIR_CHUNK``
    pairs at a time to cap peak memory; a call whose series share one
    length is one group. Multivariate (2-D) series run one
    :func:`dtw_distance` per pair: the wavefront is univariate, and
    flattening would change the cost matrix. Either way each distance is
    bit-identical to ``dtw_distance(a, b, band=band)``, whatever else
    shares the call (see the module docstring).

    Parameters
    ----------
    arrays:
        Validated float series (see :func:`validate_series_list`).
    idx_i, idx_j:
        Index arrays of equal length selecting the pairs.
    band:
        Optional Sakoe-Chiba band half-width; ``None`` = unconstrained.

    Returns
    -------
    numpy.ndarray
        ``(len(idx_i),)`` distances, in the requested pair order.
    """
    if any(a.ndim != 1 for a in arrays):
        return np.array([dtw_distance(arrays[i], arrays[j], band=band)
                         for i, j in zip(idx_i, idx_j)])
    idx_i = np.asarray(idx_i, dtype=np.intp)
    idx_j = np.asarray(idx_j, dtype=np.intp)
    lengths = {a.shape[0] for a in arrays}
    if len(lengths) == 1:
        x = np.vstack(arrays)
        return _chunked_wavefront(x, idx_i, x, idx_j, band)
    # Stack the series of each length once; row[k] is series k's row
    # in the stack of its length.
    length = np.array([a.shape[0] for a in arrays])
    row = np.empty(len(arrays), dtype=np.intp)
    stacks = {}
    for n in lengths:
        members = np.flatnonzero(length == n)
        row[members] = np.arange(members.shape[0])
        stacks[n] = np.vstack([arrays[k] for k in members])
    out = np.empty(idx_i.shape[0])
    len_i, len_j = length[idx_i], length[idx_j]
    for n, m in set(zip(len_i.tolist(), len_j.tolist())):
        group = np.flatnonzero((len_i == n) & (len_j == m))
        out[group] = _chunked_wavefront(stacks[n], row[idx_i[group]],
                                        stacks[m], row[idx_j[group]], band)
    return out


def _chunked_wavefront(xa, idx_a, xb, idx_b, band):
    """:func:`_pair_wavefront` over ``PAIR_CHUNK``-pair slices."""
    n_pairs = idx_a.shape[0]
    out = np.empty(n_pairs)
    for start in range(0, n_pairs, PAIR_CHUNK):
        part = slice(start, start + PAIR_CHUNK)
        out[part] = _pair_wavefront(xa, idx_a[part], xb, idx_b[part], band)
    return out


def _pair_wavefront(xa, idx_a, xb, idx_b, band=None):
    """Diagonal-major anti-diagonal wavefront over a pair batch.

    Pair ``p`` aligns row ``idx_a[p]`` of ``xa`` (length ``n``) with row
    ``idx_b[p]`` of ``xb`` (length ``m``). Pairs sit on the last axis:
    ``a[i]`` is element ``i`` of every pair's first series, ``b_rev[k]``
    element ``m-1-k`` of its second. Anti-diagonal ``d`` is stored by
    row ``i`` (cell ``(i, d-i)`` in row ``i``), so its cells are one
    contiguous slice and the three neighbours are slices of the two
    previous diagonals: up ``prev1[i-1]``, left ``prev1[i]``, diag
    ``prev2[i-1]``. Three rolling buffers hold the diagonals still
    needed, so memory is O(L * pairs), and every interior cell computes
    ``cost + min(min(up, left), diag)`` on the operands the full-grid
    recurrence names. Both borders are plain prefix sums.

    A band narrows each diagonal to its rows with ``|2i - d| <= band``
    and writes ``+inf`` into the row just outside each end: those are
    the only out-of-band cells the next diagonal reads.
    """
    a = np.ascontiguousarray(xa[idx_a].T, dtype=float)
    b_rev = np.ascontiguousarray(xb[idx_b].T[::-1], dtype=float)
    b = b_rev[::-1]
    n, m = a.shape[0], b.shape[0]
    last_i, last_j = n - 1, m - 1
    row0 = np.cumsum(np.abs(a[0] - b), axis=0)  # acc[0, j]
    col0 = np.cumsum(np.abs(a - b[0]), axis=0)  # acc[i, 0]
    if band is None:
        row_end, col_end = last_j, last_i
    else:
        band = max(band, abs(n - m))  # band must admit the corner cell
        row_end, col_end = min(last_j, band), min(last_i, band)
    prev2 = np.empty_like(a)
    prev1 = np.empty_like(a)
    cur = np.empty_like(a)
    best = np.empty_like(a)
    # Bound once: with few pairs the loop is interpreter-bound.
    minimum, subtract, absolute, add = np.minimum, np.subtract, np.abs, np.add
    prev1[0] = row0[0]
    for d in range(1, n + m - 1):
        # Interior cells of diagonal d sit in rows lo..hi.
        lo = 1 if d <= last_j else d - last_j
        hi = d - 1 if d <= last_i else last_i
        if band is not None:
            lo = max(lo, (d - band + 1) // 2)
            hi = min(hi, (d + band) // 2)
            cur[lo - 1] = np.inf
            if hi < last_i:
                cur[hi + 1] = np.inf
        if lo <= hi:
            k = hi - lo + 1
            mins = best[:k]
            minimum(prev1[lo - 1 : hi], prev1[lo : hi + 1], out=mins)
            minimum(mins, prev2[lo - 1 : hi], out=mins)
            cell = cur[lo : hi + 1]
            j = last_j - d + lo  # b[d - lo] is b_rev[j]
            subtract(a[lo : hi + 1], b_rev[j : j + k], out=cell)
            absolute(cell, out=cell)
            add(cell, mins, out=cell)
        if d <= row_end:
            cur[0] = row0[d]
        if d <= col_end:
            cur[d] = col0[d]
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[last_i].copy()


def validate_series_list(series):
    """Coerce a series list to float arrays, naming the bad input.

    Every series must be non-empty, finite and 1-D or 2-D; a violation
    raises ``ValueError`` identifying the offending series by index
    (``series[3] contains non-finite values``), instead of the
    anonymous per-pair error a later ``dtw_distance`` call would give.

    Returns
    -------
    list[numpy.ndarray]
        The inputs as float arrays (original dimensionality preserved).
    """
    arrays = []
    for i, s in enumerate(series):
        a = np.asarray(s, dtype=float)
        _as_series(a, f"series[{i}]")
        arrays.append(a)
    return arrays


def check_series_set(series_by_event, workloads=None):
    """Reject a TrendScore input holding an empty or non-finite series.

    ``series_by_event`` maps each event to one series per workload
    (the ``T_z`` of Eq. 7). One ``ValueError`` names every offending
    event and workload -- by name from ``workloads``, else by position
    -- so a NaN or ``inf`` sample ends in an error, never in a score.
    A clean event costs one ``isfinite`` pass over its concatenated
    samples; only a failing event is re-checked series by series
    (with :func:`validate_series_list`'s rules) to name the culprits.
    """
    problems = []
    for event, series_list in series_by_event.items():
        try:
            if all(len(s) for s in series_list) and np.isfinite(
                np.concatenate(series_list, axis=None)
            ).all():
                continue
        except (TypeError, ValueError):
            pass  # unsized or non-numeric: the per-series pass names it
        for i, s in enumerate(series_list):
            who = repr(workloads[i]) if workloads is not None else f"#{i}"
            try:
                _as_series(s, "the series")
            except ValueError as exc:
                problems.append(f"event {event!r}, workload {who}: {exc}")
    if problems:
        raise ValueError("invalid time series: " + "; ".join(problems))


def dtw_matrix(series, band=None, normalize=False):
    """Symmetric pairwise DTW distance matrix for a list of series.

    This is the inner computation of Eq. 7: ``TScore_z`` averages the
    off-diagonal entries of this matrix. The upper triangle's pairs go
    to :func:`pair_distances` in one call; ``normalize=True`` runs one
    :func:`dtw_distance` per pair, which also counts each path.

    Inputs are validated up front: an empty or non-finite series raises
    ``ValueError`` naming its index, rather than failing later with an
    anonymous per-pair error.
    """
    n = len(series)
    if n == 0:
        raise ValueError("series list is empty")
    arrays = validate_series_list(series)
    idx_i, idx_j = np.triu_indices(n, k=1)
    if normalize:
        values = [dtw_distance(arrays[i], arrays[j], band=band,
                               normalize=True)
                  for i, j in zip(idx_i, idx_j)]
    else:
        values = pair_distances(arrays, idx_i, idx_j, band)
    out = np.zeros((n, n))
    out[idx_i, idx_j] = values
    out[idx_j, idx_i] = values
    return out
