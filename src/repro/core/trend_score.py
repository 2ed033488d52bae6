"""TrendScore: the phase-behaviour metric (Section III-B, Eq. 7-8).

Real applications move through execution phases; microbenchmarks are
flat. For each PMU event ``z``, the per-event trend score ``TScore_z``
(Eq. 7) is the mean pairwise DTW distance between the workloads'
(normalized) time series for that event; the TrendScore (Eq. 8) averages
over events. **Higher is better**: workloads whose temporal profiles
differ strongly from each other carry more information than n copies of
the same flat line.

Normalization (Section III-B.1, Fig. 1) runs before any DTW: CDF values
on the y-axis bound each pointwise cost to [0, 100] and execution-time
percentiles align series of different lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matrix import CounterMatrix
from repro.core.normalization import normalize_series_set
from repro.stats.dtw import check_series_set, dtw_matrix


@dataclass(frozen=True)
class TrendScoreResult:
    """TrendScore plus its per-event decomposition.

    Attributes
    ----------
    value:
        The Eq. 8 average over events. Higher is better.
    per_event:
        ``{event: TScore_z}`` (Eq. 7).
    """

    value: float
    per_event: dict

    def __format__(self, spec):
        return format(self.value, spec)


def event_trend_score(series_list, n_points=100, band=None, normalize=True,
                      cdf="quantized"):
    """``TScore_z`` (Eq. 7) for one event's set of workload series.

    Parameters
    ----------
    series_list:
        One time series per workload (lengths may differ).
    n_points:
        Common grid length for the percentile resampling.
    band:
        Optional Sakoe-Chiba band for the DTW (ablation; the paper uses
        unconstrained DTW).
    normalize:
        Apply the Fig. 1 CDF/percentile normalization first (the paper
        always does).
    cdf:
        CDF reading for the normalization: ``"quantized"`` (default),
        ``"pooled"`` or ``"per_series"`` -- see
        :func:`repro.core.normalization.normalize_series_set`.

    Returns
    -------
    float
        Mean pairwise DTW distance. 0 when fewer than two workloads.
    """
    series_list = list(series_list)
    if len(series_list) < 2:
        return 0.0
    if normalize:
        series_list = normalize_series_set(series_list, n_points=n_points,
                                           cdf=cdf)
    d = dtw_matrix(series_list, band=band)
    n = d.shape[0]
    # Eq. 7's double sum counts ordered pairs; the matrix is symmetric.
    return float(d.sum() / (n * (n - 1)))


def trend_score(matrix_or_series, events=None, n_points=100, band=None,
                normalize=True, cdf="quantized", kernels=None):
    """Compute the TrendScore of a suite (Eq. 8).

    Parameters
    ----------
    matrix_or_series:
        Either a :class:`CounterMatrix` with recorded series, or a plain
        ``{event: [series, ...]}`` dict.
    events:
        Restrict to these events (default: every event with series).
    n_points / band / normalize / cdf:
        Forwarded to :func:`event_trend_score`; ``cdf`` accepts
        ``"quantized"`` (default), ``"pooled"`` or ``"per_series"``.
    kernels:
        Optional kernel provider with an ``event_trend_scores`` hook
        (see :class:`repro.engine.Engine`); replaces the serial
        per-event loop with one that reads and fills a DTW pair store.
        Results are bit-identical either way.

    Returns
    -------
    TrendScoreResult
    """
    if isinstance(matrix_or_series, CounterMatrix):
        if not matrix_or_series.has_series:
            raise ValueError(
                "TrendScore needs time series; this CounterMatrix has none"
            )
        series_by_event = matrix_or_series.series
    else:
        series_by_event = dict(matrix_or_series)
        check_series_set(series_by_event)
    if not series_by_event:
        raise ValueError("no event series supplied")

    if events is None:
        events = list(series_by_event)
    else:
        missing = [e for e in events if e not in series_by_event]
        if missing:
            raise KeyError(f"no series for events: {missing}")

    if kernels is not None:
        per_event = kernels.event_trend_scores(
            {event: series_by_event[event] for event in events},
            n_points=n_points, band=band, normalize=normalize, cdf=cdf,
        )
    else:
        per_event = {
            event: event_trend_score(
                series_by_event[event], n_points=n_points, band=band,
                normalize=normalize, cdf=cdf,
            )
            for event in events
        }
    return TrendScoreResult(
        value=float(np.mean(list(per_event.values()))),
        per_event=per_event,
    )
