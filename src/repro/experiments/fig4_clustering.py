"""Fig. 4: clustering in Nbench and SGXGauge.

The paper's Fig. 4 scatters the two suites' workloads in the first two
PCA components with their K-means cluster assignments, showing visible
grouping in Nbench (similar small kernels) and a looser structure in
SGXGauge (diverse applications).

``run`` reproduces the pipeline: normalize each suite's matrix, project
to PCA(2), cluster at the silhouette-best k, and report the silhouette
values that quantify what the scatter shows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cluster_score import cluster_score
from repro.core.normalization import normalize_matrix
from repro.experiments.runner import ExperimentConfig, measure_suites
from repro.stats.pca import PCA

FIG4_SUITES = ("nbench", "sgxgauge")


@dataclass(frozen=True)
class SuiteClustering:
    """One suite's Fig. 4 panel.

    Attributes
    ----------
    suite:
        Suite name.
    workloads:
        Row order of ``points``.
    points:
        PCA(2) projection of the normalized counter matrix.
    labels:
        K-means labels at the silhouette-best k.
    best_k:
        That k.
    silhouette_at_best_k:
        Eq. 5 silhouette at ``best_k`` (the "how clustered" number).
    cluster_score:
        The full Eq. 6 ClusterScore.
    """

    suite: str
    workloads: tuple
    points: np.ndarray
    labels: np.ndarray
    best_k: int
    silhouette_at_best_k: float
    cluster_score: float


@dataclass(frozen=True)
class Fig4Result:
    panels: dict

    def panel(self, suite):
        return self.panels[suite]


def run(config=None, suites=FIG4_SUITES):
    """Regenerate Fig. 4.

    Returns
    -------
    Fig4Result
    """
    config = config if config is not None else ExperimentConfig.full()
    matrices = measure_suites(list(suites), config)
    panels = {}
    for suite in suites:
        matrix = matrices[suite]
        normalized = normalize_matrix(matrix)
        projection = PCA(n_components=2).fit_transform(normalized.values)
        score = cluster_score(matrix, seed=config.metric_seed)
        panels[suite] = SuiteClustering(
            suite=suite,
            workloads=matrix.workloads,
            points=projection.transformed,
            labels=score.labels_at_best_k,
            best_k=score.best_k,
            silhouette_at_best_k=score.per_k[score.best_k],
            cluster_score=score.value,
        )
    return Fig4Result(panels=panels)


def scatter_text(panel, size=23):
    """ASCII scatter of the PCA(2) points, glyph = cluster label."""
    pts = panel.points
    lo = pts.min(axis=0)
    span = np.where(np.ptp(pts, axis=0) == 0, 1.0, np.ptp(pts, axis=0))
    grid = [[" "] * size for _ in range(size)]
    glyphs = "ox+*#@%&"
    for (x, y), label in zip(pts, panel.labels):
        col = min(int((x - lo[0]) / span[0] * (size - 1)), size - 1)
        row = size - 1 - min(int((y - lo[1]) / span[1] * (size - 1)),
                             size - 1)
        grid[row][col] = glyphs[label % len(glyphs)]
    border = "+" + "-" * size + "+"
    return "\n".join(
        [border] + ["|" + "".join(r) + "|" for r in grid] + [border]
    )


def render(result):
    lines = ["Fig. 4 -- clustering in Nbench and SGXGauge", ""]
    for suite, panel in result.panels.items():
        lines.append(
            f"{suite}: best_k={panel.best_k}, "
            f"silhouette={panel.silhouette_at_best_k:.3f}, "
            f"ClusterScore={panel.cluster_score:.3f}"
        )
        lines.append(scatter_text(panel))
        lines.append("")
    return "\n".join(lines)
