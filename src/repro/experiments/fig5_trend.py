"""Fig. 5: trend of LLC misses for Nbench and SPEC'17.

The paper's Fig. 5 plots normalized LLC-miss time series for the two
suites: SPEC'17's real applications show visible trends/phases while
Nbench's kernels run flat. ``run`` regenerates the normalized series and
the per-suite ``TScore_{LLC-load-misses}`` (Eq. 7) that summarizes the
contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.normalization import normalize_series_set
from repro.core.trend_score import event_trend_score
from repro.experiments.fig1_normalization import sparkline
from repro.experiments.runner import ExperimentConfig, measure_suites

FIG5_SUITES = ("nbench", "spec17")
FIG5_EVENT = "LLC-load-misses"


@dataclass(frozen=True)
class SuiteTrend:
    """One suite's Fig. 5 panel.

    Attributes
    ----------
    suite:
        Suite name.
    workloads:
        Names aligned with ``normalized``.
    normalized:
        Normalized LLC-miss series per workload.
    tscore:
        Eq. 7 TScore for the event over this suite.
    mean_temporal_variation:
        Mean per-workload peak-to-peak of the normalized series -- a
        direct "how flat" statistic.
    """

    suite: str
    workloads: tuple
    normalized: list
    tscore: float
    mean_temporal_variation: float


@dataclass(frozen=True)
class Fig5Result:
    panels: dict

    def panel(self, suite):
        return self.panels[suite]


def run(config=None, suites=FIG5_SUITES, event=FIG5_EVENT):
    """Regenerate Fig. 5.

    Returns
    -------
    Fig5Result
    """
    config = config if config is not None else ExperimentConfig.full()
    matrices = measure_suites(list(suites), config)
    panels = {}
    for suite in suites:
        matrix = matrices[suite]
        raw = matrix.series[event]
        normalized = normalize_series_set(raw)
        tscore = event_trend_score(raw)
        variation = float(np.mean([np.ptp(s) for s in normalized]))
        panels[suite] = SuiteTrend(
            suite=suite,
            workloads=matrix.workloads,
            normalized=normalized,
            tscore=tscore,
            mean_temporal_variation=variation,
        )
    return Fig5Result(panels=panels)


def render(result, max_rows=8):
    lines = [f"Fig. 5 -- trend of {FIG5_EVENT}", ""]
    for suite, panel in result.panels.items():
        lines.append(
            f"{suite}: TScore={panel.tscore:.1f}, "
            f"mean temporal variation={panel.mean_temporal_variation:.1f}"
        )
        for name, series in list(
            zip(panel.workloads, panel.normalized)
        )[:max_rows]:
            lines.append(f"  {name:<18} |{sparkline(series)}|")
        if len(panel.workloads) > max_rows:
            lines.append(f"  ... ({len(panel.workloads) - max_rows} more)")
        lines.append("")
    return "\n".join(lines)
