"""Section IV-C: benchmark-suite subset generation.

The paper reduces SPEC'17's 43 workloads to 8 with LHS and reports a
6.53% mean deviation between the subset's Perspector scores and the full
suite's. ``run`` regenerates that experiment and adds the comparison the
paper implies but does not print: the same-size subsets chosen by random
sampling, the prior-work PCA+hierarchical pipeline, greedy max-min, and
a multi-candidate swap search -- all scored identically.

Every method is scored through one shared
:class:`~repro.engine.subset_eval.SubsetEvaluator`: the full-suite
kernels (normalized matrix, per-row KS statistics, per-event DTW
matrices) are precomputed once and each candidate subset is scored by
index slicing -- bit-identical to the old per-report ``_scores`` path,
but cheap enough that the search can afford a real candidate pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import baseline_subsets
from repro.core.subset import (
    LHSSubsetGenerator,
    SubsetReport,
    random_subset_names,
)
from repro.engine import Engine, SubsetEvaluator, SubsetSearch
from repro.experiments.runner import ExperimentConfig, measure_suites

SUBSET_SUITE = "spec17"
SUBSET_SIZE = 8

#: Candidate-evaluation budget of the swap search row.
SEARCH_CANDIDATES = 24


@dataclass(frozen=True)
class SubsetExperimentResult:
    """All subsetting methods on one suite.

    Attributes
    ----------
    suite:
        Suite name (SPEC'17 in the paper).
    subset_size:
        Target size (8 in the paper).
    lhs:
        The LHS :class:`SubsetReport` (the paper's method).
    random_reports:
        Several random-subset reports (chance baseline).
    prior_work:
        PCA+hierarchical subset report (Table I methodology).
    greedy:
        Greedy max-min subset report.
    search:
        :class:`~repro.engine.subset_eval.SubsetSearchResult` of the
        swap local search (what a candidate pool buys over one-shot
        LHS).
    """

    suite: str
    subset_size: int
    lhs: SubsetReport
    random_reports: tuple
    prior_work: SubsetReport
    greedy: SubsetReport
    search: object = None

    @property
    def random_mean_deviation(self):
        return float(np.mean(
            [r.mean_deviation_pct for r in self.random_reports]
        ))


def run(config=None, suite=SUBSET_SUITE, subset_size=SUBSET_SIZE,
        n_random=5, n_search=SEARCH_CANDIDATES):
    """Regenerate the Section IV-C experiment.

    Returns
    -------
    SubsetExperimentResult
    """
    config = config if config is not None else ExperimentConfig.full()
    matrix = measure_suites([suite], config)[suite]
    seed = config.metric_seed

    # One engine plus one sliced evaluator for the whole experiment:
    # the full-suite kernels are computed once, every method's subsets
    # are scored by slicing them, and anything that must re-run (K-means,
    # PCA) hits the engine's content-addressed cache across reports.
    evaluator = SubsetEvaluator(matrix, seed=seed,
                                engine=Engine.from_config(config))
    baselines = baseline_subsets(matrix, subset_size)
    # One evaluate_many call: the one-shot methods' subsets share one
    # lockstep K-means fit and one trend-fallback pass.
    lhs, *randoms, prior, greedy = evaluator.evaluate_many(
        [LHSSubsetGenerator(subset_size=subset_size, seed=seed).select(matrix)]
        + [random_subset_names(matrix, subset_size, seed=seed + i)
           for i in range(n_random)]
        + [baselines["prior_pca_hierarchical"], baselines["greedy_maxmin"]])
    search = SubsetSearch(
        matrix, subset_size, seed=seed, evaluator=evaluator,
    ).search(n_search, method="swap")
    return SubsetExperimentResult(
        suite=suite,
        subset_size=subset_size,
        lhs=lhs,
        random_reports=tuple(randoms),
        prior_work=prior,
        greedy=greedy,
        search=search,
    )


def render(result):
    lines = [
        f"Section IV-C -- {result.suite}: "
        f"{len(result.lhs.full_scores)} scores, "
        f"subset size {result.subset_size}",
        "",
        "LHS (the paper's method):",
        str(result.lhs),
        "",
        f"random subsets (n={len(result.random_reports)}): mean deviation "
        f"{result.random_mean_deviation:.2f}%",
        "",
        "prior-work PCA+hierarchical representatives: "
        f"{result.prior_work.mean_deviation_pct:.2f}% deviation",
        "  " + ", ".join(result.prior_work.selected),
        "",
        "greedy max-min: "
        f"{result.greedy.mean_deviation_pct:.2f}% deviation",
        "  " + ", ".join(result.greedy.selected),
    ]
    if result.search is not None:
        lines += [
            "",
            str(result.search),
        ]
    lines += [
        "",
        f"paper reference: 43 -> 8 with 6.53% deviation.",
    ]
    return "\n".join(lines)
