"""Numerical QA tooling for the Perspector scoring pipeline.

The four Section III scores are only trustworthy if the numerical
pipeline beneath them is deterministic, NaN-free and shape-correct.
This package is the correctness-tooling layer that enforces that, the
way sanitizers do for a training/inference stack:

* :mod:`repro.qa.lint` -- an AST-based static-analysis pass with
  project-specific rules (RNG discipline, argument mutation in kernels,
  float equality, overbroad ``except``, ``__all__`` drift). Run it as
  ``repro lint src/repro`` or ``python -m repro.qa.lint``.
* :mod:`repro.qa.contracts` -- a runtime array-contract sanitizer:
  :func:`~repro.qa.contracts.sanitize` switches the pipeline into
  *strict* mode (contract violations raise
  :class:`~repro.qa.contracts.ContractViolation`) or *collect* mode
  (violations accumulate onto the resulting
  :class:`~repro.core.report.SuiteScorecard`).
* :mod:`repro.qa.determinism` -- re-runs ``Perspector.score`` twice
  under one seed and diffs the scorecards bit-for-bit.

Exports resolve lazily (PEP 562) so that ``python -m repro.qa.lint``
does not import the contracts/determinism halves (or numpy-heavy
dependents) before runpy executes the module.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.qa.contracts": (
        "ArraySpec", "ContractViolation", "Violation", "check_array",
        "check_counter_matrix", "check_series_set", "checked_array",
        "drain_violations", "sanitize", "sanitizer_active",
        "sanitizer_mode",
    ),
    "repro.qa.determinism": (
        "DeterminismReport", "check_determinism", "diff_scorecards",
    ),
    "repro.qa.lint": ("Finding", "lint_paths", "lint_source"),
})
