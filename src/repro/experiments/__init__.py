"""Experiment drivers: one module per paper table/figure.

Every module exposes ``run(...)`` returning structured data and a
``render(...)`` that formats the paper artifact as text; ``repro
experiment NAME`` prints ``render(run())``. The benchmark harness under
``benchmarks/`` calls the same ``run`` functions, so the regenerated
numbers in EXPERIMENTS.md and the bench output are identical by
construction.

| module                     | paper artifact                         |
|----------------------------|----------------------------------------|
| fig1_normalization         | Fig. 1 (trend normalization)           |
| fig2_coverage_vs_spread    | Fig. 2 (coverage vs spread)            |
| fig3_suite_scores          | Fig. 3a/b/c (scores x focus)           |
| fig4_clustering            | Fig. 4 (Nbench vs SGXGauge clusters)   |
| fig5_trend                 | Fig. 5 (LLC-miss trends)               |
| fig6_pca_coverage          | Fig. 6 (PCA coverage)                  |
| subset_generation          | Section IV-C (SPEC'17 43 -> 8 via LHS) |
| multiplexing               | footnote 1 (PMU multiplexing error)    |
| ablations                  | design-choice ablations (DESIGN.md)    |
| machine_ablations          | machine-sensitivity ablations          |
| stability                  | bootstrap / seed-replication stability |
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.runner": (
        "ExperimentConfig", "measure_suites", "perspector_for",
    ),
})
