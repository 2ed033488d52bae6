"""Perspector core: the paper's contribution.

The four Section III metrics over a named counter matrix:

* :func:`cluster_score` -- diversity (Eq. 1-6; lower is better);
* :func:`trend_score` -- phase behaviour (Eq. 7-8; higher is better);
* :func:`coverage_score` -- parameter-space coverage (Eq. 9-13; higher
  is better);
* :func:`spread_score` -- uniformity (Eq. 14; lower is better);

plus the :class:`Perspector` facade (score/compare suites), focused
scoring (:mod:`repro.core.focus`, Section IV-B), LHS subset generation
(:mod:`repro.core.subset`, Section IV-C), and counter-based phase
detection (:mod:`repro.core.phases`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.matrix": ("CounterMatrix",),
    "repro.core.normalization": (
        "normalize_matrix", "normalize_matrices_jointly", "normalize_series",
        "normalize_series_set",
    ),
    "repro.core.cluster_score": ("ClusterScoreResult", "cluster_score"),
    "repro.core.trend_score": (
        "TrendScoreResult", "event_trend_score", "trend_score",
    ),
    "repro.core.coverage_score": (
        "CoverageScoreResult", "coverage_score", "coverage_scores_jointly",
    ),
    "repro.core.spread_score": ("SpreadScoreResult", "spread_score"),
    "repro.core.focus": ("EventFocus", "apply_focus"),
    "repro.core.report": ("SuiteComparison", "SuiteScorecard"),
    "repro.core.perspector": ("Perspector", "PerspectorConfig"),
    "repro.core.subset": (
        "LHSSubsetGenerator", "SubsetReport", "random_subset_names",
        "random_subset_report", "report_from_scores",
    ),
    "repro.core.phases": (
        "PhaseDetectionResult", "PhaseSegment", "boundary_recall",
        "detect_phases", "true_boundaries_from_intervals",
    ),
    "repro.core.calibrate": ("CalibrationResult", "SuiteCalibrator"),
    "repro.core.io": ("from_csv", "from_json", "to_csv", "to_json"),
})
