"""Fig. 2: why coverage alone is not enough.

The paper's Fig. 2 contrasts two synthetic suites in a 2-D parameter
space: suite WA has *high coverage but low spread* (a tight clump plus a
few extreme outliers inflating the variance) while suite WB has *good
coverage and good spread* (points tiling the space evenly). The
SpreadScore (Eq. 14) exists to separate the two cases that the
CoverageScore conflates.

``run`` constructs the two suites, scores them, and checks the paper's
claim: comparable (or higher) coverage for WA, but clearly better (lower)
spread for WB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coverage_score import coverage_score
from repro.core.matrix import CounterMatrix
from repro.core.spread_score import spread_score


@dataclass(frozen=True)
class Fig2Result:
    """Scores of the two illustrative suites.

    Attributes
    ----------
    wa_points / wb_points:
        The 2-D point clouds.
    wa_coverage / wb_coverage:
        CoverageScores (Eq. 13).
    wa_spread / wb_spread:
        SpreadScores (Eq. 14; lower is better).
    """

    wa_points: np.ndarray
    wb_points: np.ndarray
    wa_coverage: float
    wb_coverage: float
    wa_spread: float
    wb_spread: float


def make_wa(n=16, seed=0):
    """Suite WA: clumped points plus variance-inflating outliers."""
    rng = np.random.default_rng(seed)
    n_outliers = max(2, n // 8)
    clump = 0.5 + rng.normal(scale=0.02, size=(n - n_outliers, 2))
    corners = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    outliers = corners[:n_outliers]
    return np.clip(np.vstack([clump, outliers]), 0.0, 1.0)


def make_wb(n=16, seed=0):
    """Suite WB: an evenly spread (jittered-grid) point set."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n)))
    xs, ys = np.meshgrid(
        (np.arange(side) + 0.5) / side, (np.arange(side) + 0.5) / side
    )
    grid = np.column_stack([xs.ravel(), ys.ravel()])[:n]
    return np.clip(grid + rng.normal(scale=0.02, size=grid.shape), 0.0, 1.0)


def _as_matrix(points, name):
    return CounterMatrix(
        workloads=tuple(f"{name}_{i}" for i in range(points.shape[0])),
        events=("dim0", "dim1"),
        values=points,
        suite_name=name,
    )


def run(n=16, seed=0):
    """Regenerate the Fig. 2 comparison.

    Returns
    -------
    Fig2Result
    """
    wa = make_wa(n=n, seed=seed)
    wb = make_wb(n=n, seed=seed)
    ma = _as_matrix(wa, "WA")
    mb = _as_matrix(wb, "WB")
    return Fig2Result(
        wa_points=wa,
        wb_points=wb,
        wa_coverage=coverage_score(ma, normalize=False).value,
        wb_coverage=coverage_score(mb, normalize=False).value,
        wa_spread=spread_score(ma, normalize=False, axis="events").value,
        wb_spread=spread_score(mb, normalize=False, axis="events").value,
    )


def scatter_text(points, size=21):
    """ASCII scatter plot of 2-D points in [0, 1]^2."""
    grid = [[" "] * size for _ in range(size)]
    for x, y in points:
        col = min(int(x * (size - 1)), size - 1)
        row = size - 1 - min(int(y * (size - 1)), size - 1)
        grid[row][col] = "o"
    border = "+" + "-" * size + "+"
    return "\n".join(
        [border] + ["|" + "".join(r) + "|" for r in grid] + [border]
    )


def render(result):
    lines = [
        "Fig. 2 -- coverage vs spread",
        "",
        "suite WA (clump + outliers):",
        scatter_text(result.wa_points),
        f"  coverage={result.wa_coverage:.4f}  spread={result.wa_spread:.4f}",
        "",
        "suite WB (even tiling):",
        scatter_text(result.wb_points),
        f"  coverage={result.wb_coverage:.4f}  spread={result.wb_spread:.4f}",
        "",
        "WA's outliers buy it coverage, but its spread exposes the gaps;",
        "WB wins on spread at comparable coverage.",
    ]
    return "\n".join(lines)
