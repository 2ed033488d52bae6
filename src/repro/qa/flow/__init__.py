"""Whole-program effect analysis for the repro tree.

The per-file linter (:mod:`repro.qa.lint`) answers "is this line
suspicious?"; this package answers cross-module questions that no
single file can: is every cached kernel *actually* pure, is every
pool-submitted callable picklable and deterministic, is every
compute-backend dispatch target free of side effects?

* :mod:`repro.qa.flow.summary` -- one parsed module into a
  :class:`~repro.qa.flow.summary.ModuleSummary` (effect atoms, call
  sites, class/import tables).
* :mod:`repro.qa.flow.indexer` -- every module under a root, each
  parsed once per run: the per-file pass's tree where it has one.
* :mod:`repro.qa.flow.callgraph` -- cross-module symbol resolution and
  edges, including ``functools.partial`` and pool-boundary targets.
* :mod:`repro.qa.flow.effects` -- the effect lattice, the intrinsics
  tables and the fixpoint :class:`~repro.qa.flow.effects.EffectSolver`.
* :mod:`repro.qa.flow.deeprules` -- the ``cache-purity`` /
  ``pool-safety`` / ``backend-purity`` contract checkers.
* :mod:`repro.qa.flow.analyze` -- drivers: ``repro lint --deep`` and
  ``repro analyze effects`` live here.
"""

from repro.qa.flow.analyze import (
    FlowAnalysis,
    analyze_project,
    deep_findings,
    effects_report,
)
from repro.qa.flow.callgraph import CallGraph
from repro.qa.flow.deeprules import DEEP_RULES
from repro.qa.flow.effects import ALL_EFFECTS, EffectSolver
from repro.qa.flow.indexer import ProjectIndex, index_project

__all__ = [
    "ALL_EFFECTS",
    "CallGraph",
    "DEEP_RULES",
    "EffectSolver",
    "FlowAnalysis",
    "ProjectIndex",
    "analyze_project",
    "deep_findings",
    "effects_report",
    "index_project",
]
