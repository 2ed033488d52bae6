"""CoverageScore: the parameter-space coverage metric (Section III-C,
Eq. 9-13).

After joint min-max normalization (so suites are comparable on a common
scale) the matrix is reduced with PCA keeping 98% of the variance
(Eq. 11-12); the score is the mean variance of the retained components
(Eq. 13). **Higher is better**: a suite whose workloads scatter widely
over the (decorrelated) counter space exercises more of the machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matrix import CounterMatrix
from repro.core.normalization import normalize_matrices_jointly, normalize_matrix
from repro.stats.pca import PCA

#: The paper retains 98% of the variance.
DEFAULT_VARIANCE = 0.98


@dataclass(frozen=True)
class CoverageScoreResult:
    """CoverageScore plus its PCA decomposition.

    Attributes
    ----------
    value:
        Eq. 13: mean variance over retained components. Higher is better.
    n_components:
        ``d`` of Eq. 11-12: components needed for the variance target.
    component_variances:
        Variance along each retained component.
    transformed:
        The projected workloads (``X^T`` of Eq. 11); the first two
        columns are what Fig. 6 plots.
    """

    value: float
    n_components: int
    component_variances: np.ndarray
    transformed: np.ndarray

    def __format__(self, spec):
        return format(self.value, spec)


def _raw(matrix):
    if isinstance(matrix, CounterMatrix):
        return matrix.values
    return np.asarray(matrix, dtype=float)


def coverage_score(matrix, variance=DEFAULT_VARIANCE, normalize=True):
    """CoverageScore of one suite in isolation (Eq. 13).

    For cross-suite comparison use :func:`coverage_scores_jointly`, which
    applies the Eq. 9-10 joint normalization first.

    Parameters
    ----------
    matrix:
        :class:`CounterMatrix` or ``(n, m)`` ndarray.
    variance:
        PCA retained-variance target (paper: 0.98).
    normalize:
        Min-max normalize first; disable if already normalized.
    """
    x = _raw(matrix)
    if x.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValueError("CoverageScore needs at least 2 workloads")
    if normalize:
        x = normalize_matrix(x)
    result = PCA(variance=variance).fit_transform(x)
    return CoverageScoreResult(
        value=float(result.explained_variance.mean()),
        n_components=result.n_components,
        component_variances=result.explained_variance,
        transformed=result.transformed,
    )


def coverage_scores_jointly(*matrices, variance=DEFAULT_VARIANCE):
    """CoverageScores of several suites under joint normalization.

    This is the paper's comparison setup (Section III-C): the suites'
    matrices are concatenated for the min-max bounds (Eq. 9-10), then
    each suite is PCA-reduced and scored independently (Eq. 11-13).

    Returns
    -------
    list[CoverageScoreResult]
        One result per input, in order.
    """
    if len(matrices) < 1:
        raise ValueError("need at least one matrix")
    normalized = normalize_matrices_jointly(*matrices)
    return [
        coverage_score(m, variance=variance, normalize=False)
        for m in normalized
    ]
