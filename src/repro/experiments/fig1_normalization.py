"""Fig. 1: normalization of the LLC-miss trend for five workloads.

The paper's Fig. 1 shows the LLC-miss time series of PageRank, HashJoin,
BFS, BTree, and OpenSSL (SGXGauge members) before and after the
Section III-B.1 normalization: the CDF bounds the y-axis to [0, 100] and
execution-time percentiles align the x-axis, so OpenSSL's small absolute
counts no longer vanish next to PageRank's spikes.

``run`` returns raw and normalized series; ``render`` prints compact
text sparklines of both, plus the before/after dynamic-range statistics
that demonstrate the normalization's point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.normalization import normalize_series_set
from repro.experiments.runner import ExperimentConfig, measure_suites

FIG1_WORKLOADS = ("pagerank", "hashjoin", "bfs", "btree", "openssl")
FIG1_EVENT = "LLC-load-misses"

_SPARK_LEVELS = " .:-=+*#%@"


@dataclass(frozen=True)
class Fig1Result:
    """Raw and normalized Fig. 1 series.

    Attributes
    ----------
    workloads:
        The five Fig. 1 workload names.
    raw:
        Raw per-interval LLC-miss series per workload.
    normalized:
        The Section III-B.1-normalized series (values in [0, 100]).
    raw_range_ratio:
        max(series maxima) / max(min positive series maximum, 1): the
        cross-workload dynamic range before normalization.
    normalized_range_ratio:
        Same statistic after normalization (bounded near 1).
    """

    workloads: tuple
    raw: dict
    normalized: dict
    raw_range_ratio: float
    normalized_range_ratio: float


def sparkline(series, width=48):
    """Text sparkline of a series (for terminal rendering)."""
    s = np.asarray(series, dtype=float)
    if s.size > width:
        idx = np.linspace(0, s.size - 1, width).astype(int)
        s = s[idx]
    lo, hi = s.min(), s.max()
    span = hi - lo
    if span == 0:
        return _SPARK_LEVELS[0] * s.size
    levels = ((s - lo) / span * (len(_SPARK_LEVELS) - 1)).astype(int)
    return "".join(_SPARK_LEVELS[v] for v in levels)


def run(config=None):
    """Regenerate the Fig. 1 data.

    Returns
    -------
    Fig1Result
    """
    config = config if config is not None else ExperimentConfig.full()
    matrix = measure_suites(["sgxgauge"], config)["sgxgauge"]
    raw = {}
    for name in FIG1_WORKLOADS:
        idx = matrix.workloads.index(name)
        raw[name] = np.asarray(matrix.series[FIG1_EVENT][idx], dtype=float)

    normalized_list = normalize_series_set(
        [raw[name] for name in FIG1_WORKLOADS]
    )
    normalized = dict(zip(FIG1_WORKLOADS, normalized_list))

    maxima = np.array([max(raw[n].max(), 1.0) for n in FIG1_WORKLOADS])
    raw_ratio = float(maxima.max() / max(maxima.min(), 1.0))
    norm_maxima = np.array(
        [max(normalized[n].max(), 1.0) for n in FIG1_WORKLOADS]
    )
    norm_ratio = float(norm_maxima.max() / max(norm_maxima.min(), 1.0))
    return Fig1Result(
        workloads=FIG1_WORKLOADS,
        raw=raw,
        normalized=normalized,
        raw_range_ratio=raw_ratio,
        normalized_range_ratio=norm_ratio,
    )


def render(result):
    """Text rendering of Fig. 1."""
    lines = [
        f"Fig. 1 -- normalization of the {FIG1_EVENT} trend",
        "",
        "raw series (each line self-scaled; absolute maxima differ by "
        f"{result.raw_range_ratio:.0f}x):",
    ]
    for name in result.workloads:
        peak = result.raw[name].max()
        lines.append(f"  {name:<10} |{sparkline(result.raw[name])}| "
                     f"peak={peak:.0f}")
    lines.append("")
    lines.append(
        "normalized series (shared [0, 100] axis, percentile time; "
        f"maxima ratio {result.normalized_range_ratio:.2f}x):"
    )
    for name in result.workloads:
        lines.append(
            f"  {name:<10} |{sparkline(result.normalized[name])}|"
        )
    return "\n".join(lines)
