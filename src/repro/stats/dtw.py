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
* The cost matrix is filled row by row with vectorized numpy ops; only the
  inherently sequential row loop remains in Python.
* An optional Sakoe-Chiba band constrains the warping path to a diagonal
  corridor -- an ablation knob (the paper uses unconstrained DTW).
* :func:`dtw_path` recovers the optimal alignment for inspection/plots.

Batched kernels and the bit-identity invariant
----------------------------------------------
Besides the per-pair reference fills, three batched kernels compute many
pairs at once: :func:`batched_pair_distances` (equal-length, unbanded),
:func:`banded_pair_distances` (equal-length with a Sakoe-Chiba band) and
:func:`bucketed_pair_distances` (mixed-length pairs grouped by exact
``(len_a, len_b)`` shape). All three run anti-diagonal wavefronts, and
each is **bit-identical** to one named per-pair call:

* :func:`banded_pair_distances` and :func:`bucketed_pair_distances` to
  ``dtw_distance(a, b, band=band)``, for the band they are given
  (``None`` included);
* :func:`batched_pair_distances` to ``dtw_distance(a, b, band=L)``,
  *not* to unbanded ``dtw_distance(a, b)``.

The last point is the border association. :func:`_accumulate` folds
``cost[0, 0]`` into the first row *after* the cumsum, while
:func:`_accumulate_banded` and :func:`_pair_wavefront` accumulate both
borders as plain prefix sums; ``band=L`` admits every cell, so only the
border association separates the two, and it moves the last bit on a
few pairs in a thousand. The equal-length kernel keeps its association
because every scorecard and golden pins it; :func:`_batched_accumulate`
replicates whichever reference fill serves its pair class.

The interiors agree by two facts:

* ``min`` over IEEE-754 doubles is exact -- it returns one of its
  operands unchanged -- so ``min(min(up, left), diag)`` equals
  ``min(min(up, diag), left)`` bit for bit regardless of association or
  evaluation order (all accumulated values here are non-negative or
  ``+inf``, so the ``-0.0`` vs ``+0.0`` tie case cannot arise).
* Every cell's final add ``cost[i, j] + m`` then sees the identical two
  operands in both orders of computation, and each wavefront step is
  elementwise over the pair axis, so batch composition and pair-axis
  chunking cannot move a bit either.
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


def _accumulate_banded(cost, band):
    """Row-by-row DTW fill with a Sakoe-Chiba band (reference path)."""
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


def _accumulate(cost, band=None):
    """Fill the DTW accumulated-cost matrix.

    The unbanded path runs an anti-diagonal wavefront: every cell on
    diagonal ``d = i + j`` depends only on diagonals ``d-1`` and ``d-2``,
    so each wavefront step is one vectorized numpy minimum -- ~50x
    faster than the per-cell recurrence for the 100-point grids the
    TrendScore uses.
    """
    if band is not None:
        return _accumulate_banded(cost, band)
    n, m = cost.shape
    acc = np.full((n, m), np.inf)
    acc[0, 0] = cost[0, 0]
    acc[0, 1:] = np.cumsum(cost[0, 1:]) + cost[0, 0]
    acc[:, 0] = np.cumsum(cost[:, 0])
    if n == 1 or m == 1:
        return acc
    # Wavefront over anti-diagonals d = i + j, starting where interior
    # cells (i >= 1, j >= 1) first appear.
    for d in range(2, n + m - 1):
        i_lo = max(1, d - (m - 1))
        i_hi = min(n - 1, d - 1)
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
#: rolling diagonals and one scratch block), ~6.5 MB at L=100 and 1024
#: pairs, so one SPEC'17 event (43 workloads, 903 pairs) runs as a
#: single chunk in well under 20 MB of temporaries. Chunking the pair
#: axis cannot move a bit: the wavefront is elementwise over the pair
#: axis.
DEFAULT_PAIR_CHUNK = 1024


def batched_pair_distances(x, idx_i, idx_j, pair_chunk=DEFAULT_PAIR_CHUNK):
    """DTW distances for selected pairs of equal-length 1-D series.

    One batched anti-diagonal wavefront (:func:`_pair_wavefront`),
    processed ``pair_chunk`` pairs at a time to cap peak memory. Every
    operation is elementwise over the pair axis, so each pair's distance
    is bit-identical no matter which other pairs share the batch or how
    the batch is chunked -- the engine's pair cache relies on that to
    mix cached and freshly-computed pairs freely.

    Per pair the result equals ``dtw_distance(a, b, band=L)`` bit for
    bit: both borders are plain prefix sums, as in
    :func:`_accumulate_banded`. Unbanded :func:`dtw_distance` folds the
    corner into the first row after its cumsum instead, so it can differ
    from this kernel in the last bit (see the module docstring).

    Parameters
    ----------
    x:
        ``(k, L)`` matrix, one series per row.
    idx_i, idx_j:
        Row-index arrays of equal length selecting the pairs.
    pair_chunk:
        Maximum pairs per wavefront batch; ``None`` disables chunking.

    Returns
    -------
    numpy.ndarray
        ``(len(idx_i),)`` distances, one per requested pair.
    """
    idx_i = np.asarray(idx_i)
    idx_j = np.asarray(idx_j)
    n_pairs = idx_i.shape[0]
    if pair_chunk is not None and 0 < pair_chunk < n_pairs:
        out = np.empty(n_pairs)
        for start in range(0, n_pairs, pair_chunk):
            stop = min(start + pair_chunk, n_pairs)
            out[start:stop] = _pair_wavefront(
                x, idx_i[start:stop], idx_j[start:stop]
            )
        return out
    return _pair_wavefront(x, idx_i, idx_j)


def _pair_wavefront(x, idx_i, idx_j):
    """Diagonal-major anti-diagonal wavefront over a pair batch.

    Pairs sit on the last axis: ``a[i]`` is row ``i`` of every pair's
    first series, ``b_rev[k]`` row ``L-1-k`` of its second. Anti-diagonal
    ``d`` is stored by row ``i`` (cell ``(i, d-i)`` in row ``i``), so
    its cells are one contiguous slice and the three neighbours are
    slices of the two previous diagonals: up ``prev1[i-1]``, left
    ``prev1[i]``, diag ``prev2[i-1]``. Three rolling buffers hold the
    diagonals still needed, so memory is O(L * pairs), and every
    interior cell computes ``cost + min(min(up, left), diag)`` on the
    operands the full-grid recurrence names. Both borders are plain
    prefix sums.
    """
    length = x.shape[1]
    last = length - 1
    a = np.ascontiguousarray(x[idx_i].T, dtype=float)
    b_rev = np.ascontiguousarray(x[idx_j].T[::-1], dtype=float)
    b = b_rev[::-1]
    row0 = np.cumsum(np.abs(a[0] - b), axis=0)  # acc[0, j]
    col0 = np.cumsum(np.abs(a - b[0]), axis=0)  # acc[i, 0]
    prev2 = np.empty_like(a)
    prev1 = np.empty_like(a)
    cur = np.empty_like(a)
    best = np.empty_like(a)
    # Bound once: with few pairs the loop is interpreter-bound.
    minimum, subtract, absolute, add = np.minimum, np.subtract, np.abs, np.add
    prev1[0] = row0[0]
    for d in range(1, 2 * length - 1):
        # Interior cells of diagonal d sit in rows lo..hi.
        lo = 1 if d <= last else d - last
        hi = d - 1 if d <= last else last
        if lo <= hi:
            n = hi - lo + 1
            m = best[:n]
            minimum(prev1[lo - 1 : hi], prev1[lo : hi + 1], out=m)
            minimum(m, prev2[lo - 1 : hi], out=m)
            cell = cur[lo : hi + 1]
            k = last - d + lo  # b[d - lo] is b_rev[k]
            subtract(a[lo : hi + 1], b_rev[k : k + n], out=cell)
            absolute(cell, out=cell)
            add(cell, m, out=cell)
        if d <= last:
            cur[0] = row0[d]
            cur[d] = col0[d]
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[last].copy()


def _batched_accumulate(cost, band=None):
    """Anti-diagonal wavefront DTW fill over a ``(pairs, n, m)`` batch.

    The batched twin of the per-pair reference fills, replicating their
    border associations exactly so it is bit-identical per pair:

    * ``band=None`` matches :func:`_accumulate`: the first row is
      ``cumsum(cost[0, 1:]) + cost[0, 0]`` (the reference folds the
      corner in *after* the cumsum), the first column a plain cumsum.
    * banded matches :func:`_accumulate_banded`: both borders are plain
      prefix sums truncated at the (corner-admitting) band, and only
      cells with ``|i - j| <= band`` are filled.

    Interior cells compute ``cost + min(min(up, left), diag)``; the
    reference row fill computes ``cost + min(min(up, diag), left)`` --
    identical bits because IEEE-754 ``min`` is exact regardless of
    association (see the module docstring).
    """
    p, n, m = cost.shape
    acc = np.full((p, n, m), np.inf)
    if band is None:
        b = None
        acc[:, 0, 0] = cost[:, 0, 0]
        acc[:, 0, 1:] = np.cumsum(cost[:, 0, 1:], axis=1) + cost[:, 0, :1]
        acc[:, :, 0] = np.cumsum(cost[:, :, 0], axis=1)
    else:
        b = max(band, abs(n - m))  # band must admit the corner cell
        row = np.cumsum(cost[:, 0, :], axis=1)
        acc[:, 0, : min(m, b + 1)] = row[:, : min(m, b + 1)]
        col = np.cumsum(cost[:, :, 0], axis=1)
        acc[:, 1 : min(n, b + 1), 0] = col[:, 1 : min(n, b + 1)]
    for d in range(2, n + m - 1):
        i_lo = max(1, d - (m - 1))
        i_hi = min(n - 1, d - 1)
        if b is not None:
            # |2i - d| <= b keeps the diagonal's cells inside the band.
            i_lo = max(i_lo, (d - b + 1) // 2)
            i_hi = min(i_hi, (d + b) // 2)
        if i_lo > i_hi:
            continue
        i = np.arange(i_lo, i_hi + 1)
        j = d - i
        up = acc[:, i - 1, j]
        left = acc[:, i, j - 1]
        diag = acc[:, i - 1, j - 1]
        acc[:, i, j] = cost[:, i, j] + np.minimum(
            np.minimum(up, left), diag
        )
    return acc


def banded_pair_distances(x, idx_i, idx_j, band,
                          pair_chunk=DEFAULT_PAIR_CHUNK):
    """Banded DTW distances for selected pairs of equal-length 1-D series.

    The banded counterpart of :func:`batched_pair_distances`: one
    batched anti-diagonal wavefront with the band mask applied per
    diagonal, bit-identical to :func:`_accumulate_banded` run pair by
    pair (banded ablations get the same fast path unbanded runs enjoy).

    Parameters
    ----------
    x:
        ``(k, L)`` matrix, one series per row.
    idx_i, idx_j:
        Row-index arrays of equal length selecting the pairs.
    band:
        Sakoe-Chiba band half-width (clamped up to admit the corner).
    pair_chunk:
        Maximum pairs per materialized ``(pairs, L, L)`` tensor;
        ``None`` disables chunking. Chunking cannot move a bit: every
        wavefront operation is elementwise over the pair axis.

    Returns
    -------
    numpy.ndarray
        ``(len(idx_i),)`` distances, one per requested pair.
    """
    idx_i = np.asarray(idx_i)
    idx_j = np.asarray(idx_j)
    n_pairs = idx_i.shape[0]
    if pair_chunk is not None and 0 < pair_chunk < n_pairs:
        out = np.empty(n_pairs)
        for start in range(0, n_pairs, pair_chunk):
            stop = min(start + pair_chunk, n_pairs)
            out[start:stop] = _banded_wavefront(
                x, idx_i[start:stop], idx_j[start:stop], band
            )
        return out
    return _banded_wavefront(x, idx_i, idx_j, band)


def _banded_wavefront(x, idx_i, idx_j, band):
    """One materialized banded wavefront over a pair batch."""
    cost = np.abs(x[idx_i][:, :, None] - x[idx_j][:, None, :])
    return _batched_accumulate(cost, band)[:, -1, -1]


def bucketed_pair_distances(arrays, idx_i, idx_j, band=None,
                            pair_chunk=DEFAULT_PAIR_CHUNK):
    """DTW distances for selected pairs of 1-D series of *any* lengths.

    Mixed-length pair sets fall off the equal-length fast path and, in
    the reference implementation, pay one Python-level
    :func:`dtw_distance` per pair. Here the pairs are grouped by their
    exact ``(len_a, len_b)`` shape and each bucket runs one batched
    wavefront over a ``(pairs, len_a, len_b)`` tensor.

    Buckets are shape-exact rather than padded: the band clamp
    ``max(band, |n - m|)`` and the border cumsums both depend on the
    true lengths, so padding would change bits. Per pair the result is
    bit-identical to ``dtw_distance(a, b, band=band)`` -- the cost
    matrix is elementwise, and :func:`_batched_accumulate` replicates
    the reference fill for the bucket's shape and band.

    Parameters
    ----------
    arrays:
        Validated 1-D float series (see :func:`validate_series_list`).
    idx_i, idx_j:
        Index arrays of equal length selecting the pairs.
    band:
        Optional Sakoe-Chiba band half-width; ``None`` = unconstrained.
    pair_chunk:
        Maximum pairs per materialized bucket tensor; ``None`` disables
        chunking.

    Returns
    -------
    numpy.ndarray
        ``(len(idx_i),)`` distances, in the requested pair order.
    """
    idx_i = np.asarray(idx_i)
    idx_j = np.asarray(idx_j)
    n_pairs = idx_i.shape[0]
    out = np.empty(n_pairs)
    buckets = {}
    for p in range(n_pairs):
        shape = (arrays[idx_i[p]].shape[0], arrays[idx_j[p]].shape[0])
        buckets.setdefault(shape, []).append(p)
    chunk = n_pairs if (pair_chunk is None or pair_chunk < 1) else pair_chunk
    for members in buckets.values():
        for start in range(0, len(members), max(chunk, 1)):
            part = members[start : start + chunk]
            a = np.stack([arrays[idx_i[p]] for p in part])
            b_mat = np.stack([arrays[idx_j[p]] for p in part])
            cost = np.abs(a[:, :, None] - b_mat[:, None, :])
            out[part] = _batched_accumulate(cost, band)[:, -1, -1]
    return out


def _pairwise_aligned(x):
    """All-pairs DTW distances for equal-length 1-D series.

    Parameters
    ----------
    x:
        ``(k, L)`` matrix, one series per row.

    Returns
    -------
    numpy.ndarray
        ``(k, k)`` symmetric distance matrix.
    """
    k = x.shape[0]
    out = np.zeros((k, k))
    if k < 2:
        return out
    idx_i, idx_j = np.triu_indices(k, k=1)
    totals = batched_pair_distances(x, idx_i, idx_j)
    out[idx_i, idx_j] = totals
    out[idx_j, idx_i] = totals
    return out


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


def dtw_matrix(series, band=None, normalize=False):
    """Symmetric pairwise DTW distance matrix for a list of series.

    This is the inner computation of Eq. 7: ``TScore_z`` averages the
    off-diagonal entries of this matrix. Equal-length 1-D series without
    band/normalize options take the batched wavefront fast path (the
    TrendScore always lands there after the Fig. 1 normalization).

    Inputs are validated up front: an empty or non-finite series raises
    ``ValueError`` naming its index, rather than silently dropping the
    whole batch off the fast path and failing later with an anonymous
    per-pair error.
    """
    n = len(series)
    if n == 0:
        raise ValueError("series list is empty")
    arrays = validate_series_list(series)
    if (
        band is None
        and not normalize
        and all(a.ndim == 1 for a in arrays)
        and len({a.shape[0] for a in arrays}) == 1
    ):
        return _pairwise_aligned(np.vstack(arrays))
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = dtw_distance(series[i], series[j], band=band, normalize=normalize)
            out[i, j] = d
            out[j, i] = d
    return out
