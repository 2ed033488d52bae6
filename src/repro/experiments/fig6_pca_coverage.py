"""Fig. 6: parameter-space coverage of LMbench vs SPEC'17 in PCA(2).

The paper's Fig. 6 scatters the two suites' workloads in the first two
principal components after *joint* normalization, showing LMbench's
points flung far across the space (its microbenchmarks pin extreme
corners) against SPEC'17's denser cloud. ``run`` regenerates the shared
projection plus both CoverageScores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coverage_score import coverage_scores_jointly
from repro.core.normalization import normalize_matrices_jointly
from repro.experiments.runner import ExperimentConfig, measure_suites
from repro.stats.pca import PCA

FIG6_SUITES = ("lmbench", "spec17")


@dataclass(frozen=True)
class Fig6Result:
    """The shared-projection scatter data plus scores.

    Attributes
    ----------
    suites:
        The two suite names, in plot order.
    points:
        ``{suite: (n, 2) PCA projection}`` in a *common* component basis
        fitted on the union of both suites' normalized rows.
    coverage:
        ``{suite: CoverageScore}`` under joint normalization (Eq. 9-13).
    hull_extent:
        ``{suite: per-axis peak-to-peak extent}`` in the shared space --
        the "how far flung" statistic the scatter shows.
    """

    suites: tuple
    points: dict
    coverage: dict
    hull_extent: dict


def run(config=None, suites=FIG6_SUITES):
    """Regenerate Fig. 6.

    Returns
    -------
    Fig6Result
    """
    config = config if config is not None else ExperimentConfig.full()
    matrices = measure_suites(list(suites), config)
    normalized = normalize_matrices_jointly(
        *[matrices[s] for s in suites]
    )
    union = np.vstack([m.values for m in normalized])
    projection = PCA(n_components=2).fit_transform(union)
    points = {}
    offset = 0
    for suite, m in zip(suites, normalized):
        n = m.values.shape[0]
        points[suite] = projection.transformed[offset : offset + n]
        offset += n
    scores = coverage_scores_jointly(*[matrices[s] for s in suites])
    coverage = {s: r.value for s, r in zip(suites, scores)}
    hull = {s: np.ptp(points[s], axis=0) for s in suites}
    return Fig6Result(
        suites=tuple(suites),
        points=points,
        coverage=coverage,
        hull_extent=hull,
    )


def scatter_text(result, size=25):
    """Joint ASCII scatter: first suite 'o', second '#'."""
    all_pts = np.vstack([result.points[s] for s in result.suites])
    lo = all_pts.min(axis=0)
    span = np.where(np.ptp(all_pts, axis=0) == 0, 1.0,
                    np.ptp(all_pts, axis=0))
    grid = [[" "] * size for _ in range(size)]
    for glyph, suite in zip("o#", result.suites):
        for x, y in result.points[suite]:
            col = min(int((x - lo[0]) / span[0] * (size - 1)), size - 1)
            row = size - 1 - min(
                int((y - lo[1]) / span[1] * (size - 1)), size - 1
            )
            grid[row][col] = glyph
    border = "+" + "-" * size + "+"
    return "\n".join(
        [border] + ["|" + "".join(r) + "|" for r in grid] + [border]
    )


def render(result):
    a, b = result.suites
    lines = [
        f"Fig. 6 -- PCA(2) coverage: {a} ('o') vs {b} ('#')",
        scatter_text(result),
        "",
    ]
    for s in result.suites:
        ext = result.hull_extent[s]
        lines.append(
            f"  {s:<8} coverage={result.coverage[s]:.4f} "
            f"extent=({ext[0]:.2f}, {ext[1]:.2f})"
        )
    return "\n".join(lines)
