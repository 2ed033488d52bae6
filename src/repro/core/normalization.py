"""Matrix-level normalization (Eq. 9-10 and Section III-B.1).

Two distinct normalizations appear in the paper:

* **Counter-matrix normalization** (Section III-C.1, Eq. 9-10): per-event
  min-max to [0, 1]. When several suites are compared, the bounds come
  from the *concatenated* matrices so relative ranges survive
  (:func:`normalize_matrices_jointly`).
* **Time-series normalization** (Section III-B.1, Fig. 1): each series'
  y-axis becomes its own empirical CDF (percentile values, bounded
  [0, 100]) and its x-axis is resampled onto execution-time percentiles
  (:func:`normalize_series`).
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix import CounterMatrix
from repro.stats.descriptive import normalize_series_for_dtw, percentile_resample
from repro.stats.preprocessing import joint_minmax_normalize, minmax_normalize


def normalize_matrix(matrix):
    """Min-max normalize a :class:`CounterMatrix` (or ndarray) per event.

    Returns
    -------
    Same type as the input: a new CounterMatrix with normalized values
    (series carried over unchanged), or a plain ndarray.
    """
    if isinstance(matrix, CounterMatrix):
        return CounterMatrix(
            workloads=matrix.workloads,
            events=matrix.events,
            values=minmax_normalize(matrix.values),
            series=matrix.series,
            suite_name=matrix.suite_name,
        )
    return minmax_normalize(np.asarray(matrix, dtype=float))


def normalize_matrices_jointly(*matrices):
    """Eq. 9-10: joint min-max normalization of several suites' matrices.

    All matrices must share the same event set (the same columns, in the
    same order). Accepts CounterMatrix or ndarray inputs; returns the
    same types in the same order.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    raws = [
        m.values if isinstance(m, CounterMatrix)
        else np.asarray(m, dtype=float)
        for m in matrices
    ]
    events = None
    for m in matrices:
        if isinstance(m, CounterMatrix):
            if events is None:
                events = m.events
            elif m.events != events:
                raise ValueError(
                    "joint normalization requires identical event sets: "
                    f"{events} vs {m.events}"
                )
    normalized = joint_minmax_normalize(*raws)
    out = []
    for m, norm in zip(matrices, normalized):
        if isinstance(m, CounterMatrix):
            out.append(
                CounterMatrix(
                    workloads=m.workloads,
                    events=m.events,
                    values=norm,
                    series=m.series,
                    suite_name=m.suite_name,
                )
            )
        else:
            out.append(norm)
    return out


def normalize_series(series, n_points=100):
    """Fig. 1 normalization of one PMU time series in isolation.

    CDF on the y-axis (values in [0, 100]), execution-time percentiles on
    the x-axis (fixed length ``n_points``). Note: a series normalized
    against *its own* CDF always spans the full [0, 100] range -- use
    :func:`normalize_series_set` when several workloads' series must stay
    comparable (the TrendScore path).
    """
    return normalize_series_for_dtw(series, n_points=n_points)


#: Value-quantization levels for the default ("quantized") CDF reading.
CDF_QUANT_LEVELS = 64

#: Relative noise floor for the quantized CDF: variation below this
#: fraction of the event's mean level is treated as measurement noise.
CDF_RELATIVE_FLOOR = 0.15


def normalize_series_set(series_list, n_points=100, cdf="quantized"):
    """Normalize the whole ``T_z`` set of Eq. 7 onto a common grid.

    Parameters
    ----------
    cdf:
        How the Section III-B.1 CDF is taken. The paper's text
        underdetermines this; three readings are implemented:

        * ``"quantized"`` (default): values are first quantized to
          :data:`CDF_QUANT_LEVELS` levels of the event's range across the
          whole set, then each series is mapped through its own empirical
          CDF. The quantization models finite counter resolution: interval
          sampling noise that is small relative to the event's
          cross-workload range collapses into ties (a flat microbenchmark
          series normalizes to a constant), while genuine phase steps
          survive. Without this, the rank-based CDF is scale-free and
          inflates *any* iid noise to the full [0, 100] range, making
          flat suites look phase-rich.
        * ``"per_series"``: each raw series against its own CDF (the
          literal isolated reading; noise-sensitive).
        * ``"pooled"``: percentiles against the pooled samples of the
          whole set (bounds outliers but converts pure level differences
          into trend distance).

    Returns
    -------
    list[numpy.ndarray]
        Normalized series of common length ``n_points``, values in
        [0, 100].
    """
    series_list = [np.asarray(s, dtype=float).ravel() for s in series_list]
    if not series_list:
        return []
    if cdf == "per_series":
        return [normalize_series(s, n_points=n_points) for s in series_list]
    if cdf == "pooled":
        pooled = np.sort(np.concatenate(series_list))
        total = pooled.shape[0]
        out = []
        for s in series_list:
            ranks = np.searchsorted(pooled, s, side="right")
            percentiles = 100.0 * ranks / total
            out.append(percentile_resample(percentiles, n_points=n_points))
        return out
    if cdf != "quantized":
        raise ValueError(
            f"cdf must be 'quantized', 'pooled' or 'per_series', got {cdf!r}"
        )
    stacked = np.concatenate(series_list)
    lo, hi = float(stacked.min()), float(stacked.max())
    span = hi - lo
    global_step = span / CDF_QUANT_LEVELS
    # Resolution step per series: 1/Q of the event's cross-set range, or
    # the series' own floor when that is coarser. (Since the CDF is
    # taken per series, quantization only needs to create ties within a
    # series; per-series steps do not break comparability.)
    return [
        normalize_quantized(s, lo, max(global_step, quantization_floor(s)),
                            n_points=n_points)
        for s in series_list
    ]


def quantization_floor(series):
    """One raveled series' own resolution floor for the quantized CDF:
    a relative fraction of its level and twice the Poisson shot noise of
    its counts -- variation below either is measurement noise, not phase
    signal. Depends on the series alone, so callers may compute it once
    per series."""
    own_mean = abs(float(series.mean()))
    return max(own_mean * CDF_RELATIVE_FLOOR, 2.0 * np.sqrt(own_mean))


def normalize_quantized(series, lo, step, n_points=100):
    """The ``"quantized"`` reading of :func:`normalize_series_set` for one
    raveled series, given the set minimum ``lo`` and the series' step
    (``max`` of the set's global step and :func:`quantization_floor`).

    The result depends on nothing else, so a caller that normalizes the
    same series under the same ``(lo, step)`` many times (the subset
    evaluator's fallback path) may memoize it under that pair."""
    if step == 0:
        return np.full(n_points, 100.0)
    return normalize_series(np.floor((series - lo) / step), n_points=n_points)
