"""Numerical QA tooling for the Perspector scoring pipeline.

The four Section III scores are only trustworthy if the numerical
pipeline beneath them is deterministic, NaN-free and shape-correct.
NaN-free and shape-correct hold by construction: a
:class:`~repro.core.matrix.CounterMatrix` rejects non-finite counters
and empty or non-finite time series when it is built. This package
holds the tooling for the rest:

* :mod:`repro.qa.lint` -- an AST-based static-analysis pass with
  project-specific rules (RNG discipline, argument mutation in kernels,
  float equality, overbroad ``except``, ``__all__`` drift). Run it as
  ``repro lint src/repro`` or ``python -m repro.qa.lint``.
* :mod:`repro.qa.determinism` -- the one qa harness behind ``repro
  qa``: tables of rows (scoring and subset search across cache, pool,
  disk tier and tracer; the daemon vs ``repro score``; history
  recording on vs off), each result diffed bit-for-bit against its
  table's baseline, then a leak check.

Exports resolve lazily (PEP 562) so that ``python -m repro.qa.lint``
does not import the determinism harness (or its numpy-heavy
dependents) before runpy executes the module.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.qa.determinism": (
        "DeterminismReport", "check_determinism", "diff_scorecards",
    ),
    "repro.qa.lint": ("Finding", "lint_paths", "lint_source"),
})
