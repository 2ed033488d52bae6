"""Design-choice ablations.

DESIGN.md calls out the knobs the paper fixes without justification;
these ablations measure how much each one matters, on one diverse suite
(SGXGauge) plus SPEC'17 for the subsetting comparison:

* **PCA variance target** (Eq. 11 uses 0.98): coverage score vs target;
* **K-means restarts** (ClusterScore stability vs restart count);
* **DTW band** (unconstrained vs Sakoe-Chiba banded TrendScore);
* **Eq. 14 axis** (per-workload literal vs per-event reading);
* **series CDF reading** (quantized / per-series / pooled);
* **subsetting method** (LHS vs random vs prior-work vs greedy --
  shares :mod:`repro.experiments.subset_generation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.cluster_score import cluster_score
from repro.core.coverage_score import coverage_score
from repro.core.spread_score import spread_score
from repro.core.trend_score import trend_score
from repro.experiments.runner import ExperimentConfig, measure_suites


@dataclass(frozen=True)
class AblationResult:
    """All ablation tables.

    Attributes
    ----------
    suite:
        Suite the single-suite ablations ran on.
    pca_variance:
        ``{target: coverage score}``.
    kmeans_restarts:
        ``{n_restarts: (mean cluster score, std over seeds)}``.
    dtw_band:
        ``{band: trend score}`` (None = unconstrained).
    spread_axis:
        ``{axis: spread score}``.
    cdf_mode:
        ``{mode: trend score}``.
    """

    suite: str
    pca_variance: dict
    kmeans_restarts: dict
    dtw_band: dict
    spread_axis: dict
    cdf_mode: dict


def run(config=None, suite="sgxgauge", seeds=(0, 1, 2, 3, 4)):
    """Run every single-suite ablation.

    Returns
    -------
    AblationResult
    """
    config = config if config is not None else ExperimentConfig.full()
    matrix = measure_suites([suite], config)[suite]

    pca = {
        target: coverage_score(matrix, variance=target).value
        for target in (0.80, 0.90, 0.95, 0.98, 1.00)
    }

    restarts = {}
    for n in (1, 2, 8, 16):
        values = [
            cluster_score(matrix, seed=s, n_restarts=n).value
            for s in seeds
        ]
        restarts[n] = (float(np.mean(values)), float(np.std(values)))

    band = {
        label: trend_score(matrix, band=b).value
        for label, b in (("none", None), ("10", 10), ("3", 3), ("1", 1))
    }

    axis = {
        a: spread_score(matrix, axis=a).value
        for a in ("workloads", "events")
    }

    cdf = {
        mode: trend_score(matrix, cdf=mode).value
        for mode in ("quantized", "per_series", "pooled")
    }

    return AblationResult(
        suite=suite,
        pca_variance=pca,
        kmeans_restarts=restarts,
        dtw_band=band,
        spread_axis=axis,
        cdf_mode=cdf,
    )


def render(result):
    lines = [f"design-choice ablations on {result.suite}", ""]
    lines.append("PCA retained-variance target vs CoverageScore:")
    for target, value in result.pca_variance.items():
        marker = "  <- paper" if math.isclose(target, 0.98) else ""
        lines.append(f"  variance={target:.2f}: {value:.4f}{marker}")
    lines.append("")
    lines.append("K-means restarts vs ClusterScore (mean +/- std over seeds):")
    for n, (mean, std) in result.kmeans_restarts.items():
        lines.append(f"  restarts={n:>2}: {mean:.4f} +/- {std:.4f}")
    lines.append("")
    lines.append("DTW Sakoe-Chiba band vs TrendScore:")
    for label, value in result.dtw_band.items():
        marker = "  <- paper (unconstrained)" if label == "none" else ""
        lines.append(f"  band={label:>4}: {value:.1f}{marker}")
    lines.append("")
    lines.append("Eq. 14 axis vs SpreadScore:")
    for a, value in result.spread_axis.items():
        marker = "  <- paper-literal" if a == "workloads" else ""
        lines.append(f"  axis={a}: {value:.4f}{marker}")
    lines.append("")
    lines.append("Series-CDF reading vs TrendScore:")
    for mode, value in result.cdf_mode.items():
        marker = "  <- default" if mode == "quantized" else ""
        lines.append(f"  cdf={mode}: {value:.1f}{marker}")
    return "\n".join(lines)
