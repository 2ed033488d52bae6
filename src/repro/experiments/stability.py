"""Score-stability analysis.

The paper reports single-run scores. This experiment asks two questions
the reproduction can answer that a hardware run cannot cheaply:

* **Within-suite stability**: bootstrap-resample a suite's workloads and
  read confidence intervals on the ClusterScore / CoverageScore /
  SpreadScore (the TrendScore resamples its series set the same way).
* **Ranking stability**: across trace-seed replications, how often does
  the cross-suite ordering of each score match the headline run's?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matrix import CounterMatrix
from repro.core.report import SCORES
from repro.engine import Engine
from repro.experiments.runner import (
    ExperimentConfig,
    measure_suites,
    perspector_for,
)
from repro.stats.bootstrap import bootstrap_statistic
from repro.workloads import load_suite


@dataclass(frozen=True)
class StabilityResult:
    """Bootstrap intervals and seed-replication agreement.

    Attributes
    ----------
    suite:
        Suite used for the bootstrap half.
    bootstrap:
        Score name -> :class:`BootstrapResult`.
    ranking_agreement:
        Score name -> fraction of seed replications whose cross-suite
        ranking matches the reference run's (1.0 = fully stable).
    n_replications:
        Seed replications used for the ranking half.
    """

    suite: str
    bootstrap: dict
    ranking_agreement: dict
    n_replications: int


def run(config=None, suite="sgxgauge",
        ranked_suites=("nbench", "lmbench", "sgxgauge"),
        n_boot=60, n_replications=3):
    """Run both stability analyses.

    Returns
    -------
    StabilityResult
    """
    config = config if config is not None else ExperimentConfig.quick()
    matrix = measure_suites([suite], config)[suite]
    seed = config.metric_seed

    # Subsampling (no replacement): the classic bootstrap's duplicated
    # rows bias distance-based statistics -- duplicates look like
    # perfectly tight clusters and shrink normalization ranges.
    n = matrix.n_workloads
    sub = max(4, n - 2)
    # Re-scoring goes through one shared engine: bootstrap replicates
    # that happen to redraw the same subsample (and each replication's
    # repeated kernel work) hit the content-addressed cache, and results
    # stay bit-identical to the plain kernel calls.
    engine = Engine.from_config(config)
    boot = {
        "cluster": bootstrap_statistic(
            matrix.values,
            lambda rows: engine.cluster_score(rows, seed=seed).value,
            n_boot=n_boot, rng=seed, replace=False, subsample_size=sub,
        ),
        "coverage": bootstrap_statistic(
            matrix.values,
            lambda rows: engine.coverage_score(rows).value,
            n_boot=n_boot, rng=seed, replace=False, subsample_size=sub,
        ),
        "spread": bootstrap_statistic(
            matrix.values,
            lambda rows: engine.spread_score(rows).value,
            n_boot=n_boot, rng=seed, replace=False, subsample_size=sub,
        ),
    }

    # Seed-replication ranking agreement.
    perspector = perspector_for(config)
    reference = {}
    replications = []
    for rep in range(n_replications + 1):
        rep_config = ExperimentConfig(
            n_intervals=config.n_intervals,
            ops_per_interval=config.ops_per_interval,
            warmup_intervals=config.warmup_intervals,
            warmup_boost=config.warmup_boost,
            seed=config.seed + 101 * rep,
            metric_seed=config.metric_seed,
        )
        session = rep_config.session()
        matrices = [
            CounterMatrix.from_measurement(session.run_suite(load_suite(s)))
            for s in ranked_suites
        ]
        comparison = perspector.compare(*matrices)
        rankings = {
            score: tuple(comparison.ranking(score))
            for score in SCORES
        }
        if rep == 0:
            reference = rankings
        else:
            replications.append(rankings)

    agreement = {
        score: float(np.mean([
            rep[score] == reference[score] for rep in replications
        ]))
        for score in reference
    }
    return StabilityResult(
        suite=suite,
        bootstrap=boot,
        ranking_agreement=agreement,
        n_replications=n_replications,
    )


def render(result):
    lines = [f"score stability ({result.suite} bootstrap, "
             f"{result.n_replications} seed replications)", ""]
    lines.append("bootstrap 95% intervals (workload resampling):")
    for score, b in result.bootstrap.items():
        lines.append(
            f"  {score:<9} {b.estimate:.4f} in [{b.low:.4f}, {b.high:.4f}]"
        )
    lines.append("")
    lines.append("cross-suite ranking agreement across trace seeds:")
    for score, frac in result.ranking_agreement.items():
        lines.append(f"  {score:<9} {frac:.0%}")
    return "\n".join(lines)
