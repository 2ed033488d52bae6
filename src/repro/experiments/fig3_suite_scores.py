"""Fig. 3: the headline result -- four Perspector scores x six suites,
under three event-focus settings.

* Fig. 3a: all Table IV PMU counters;
* Fig. 3b: LLC-related events only;
* Fig. 3c: TLB-related events only.

The paper's qualitative claims (Section IV-A/B), which
``check_expected_shape`` verifies against the regenerated numbers:

1.  ALL: Ligra has the worst (highest) ClusterScore;
2.  ALL: PARSEC and SGXGauge have the two highest TrendScores;
3.  ALL: LMbench has the highest CoverageScore;
4.  LLC: PARSEC is in the best ClusterScore tier;
5.  LLC: PARSEC and SGXGauge still dominate the TrendScore;
6.  LLC: LMbench still has the highest CoverageScore, reduced vs ALL;
7.  TLB: SPEC'17 takes the highest CoverageScore;
8.  TLB: LMbench's CoverageScore collapses relative to its ALL value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import SCORES
from repro.experiments.runner import (
    FOCUS_VALUES,
    ExperimentConfig,
    measure_suites,
    perspector_for,
)
from repro.workloads import available_suites

#: The figure's three panels: all events, LLC, TLB.
FOCUSES = FOCUS_VALUES[:3]


@dataclass(frozen=True)
class Fig3Result:
    """Per-focus suite comparisons.

    Attributes
    ----------
    comparisons:
        ``{focus: SuiteComparison}`` for ``all``/``llc``/``tlb``.
    """

    comparisons: dict

    def scorecard(self, focus, suite):
        for card in self.comparisons[focus].scorecards:
            if card.suite_name == suite:
                return card
        raise KeyError(f"no scorecard for {suite!r} under {focus!r}")


def run(config=None, suites=None):
    """Regenerate Fig. 3a/b/c.

    Returns
    -------
    Fig3Result
    """
    config = config if config is not None else ExperimentConfig.full()
    names = list(suites) if suites is not None else available_suites()
    matrices = measure_suites(names, config)
    perspector = perspector_for(config)
    comparisons = {
        focus: perspector.compare(
            *[matrices[n] for n in names], focus=focus
        )
        for focus in FOCUSES
    }
    return Fig3Result(comparisons=comparisons)


def check_expected_shape(result):
    """Verify the paper's Section IV-A/B claims on a Fig3Result.

    Returns
    -------
    list[str]
        Human-readable failures (empty when every claim holds).
    """
    failures = []
    c_all = result.comparisons["all"]
    c_llc = result.comparisons["llc"]
    c_tlb = result.comparisons["tlb"]

    if c_all.ranking("cluster")[-1] != "ligra":
        failures.append(
            "ALL: expected ligra to have the worst cluster score, got "
            f"{c_all.ranking('cluster')[-1]}"
        )
    top_trend = set(c_all.ranking("trend")[:2])
    if top_trend != {"parsec", "sgxgauge"}:
        failures.append(
            f"ALL: expected parsec+sgxgauge to top trend, got {top_trend}"
        )
    if c_all.best("coverage") != "lmbench":
        failures.append(
            "ALL: expected lmbench to top coverage, got "
            f"{c_all.best('coverage')}"
        )
    llc_cluster = c_llc.ranking("cluster")
    if llc_cluster[0] not in ("parsec", "spec17"):
        failures.append(
            "LLC: expected parsec or spec17 to lead the cluster score, "
            f"got {llc_cluster[0]}"
        )
    if "parsec" in llc_cluster[-2:]:
        failures.append("LLC: expected parsec out of the worst cluster tier")
    if set(c_llc.ranking("trend")[:2]) != {"parsec", "sgxgauge"}:
        failures.append("LLC: expected parsec+sgxgauge to dominate trend")
    if c_llc.best("coverage") != "lmbench":
        failures.append("LLC: expected lmbench to keep the coverage lead")
    lm_all = result.scorecard("all", "lmbench").coverage
    lm_llc = result.scorecard("llc", "lmbench").coverage
    lm_tlb = result.scorecard("tlb", "lmbench").coverage
    if not lm_llc < lm_all:
        failures.append("LLC: expected lmbench coverage reduced vs ALL")
    if c_tlb.best("coverage") != "spec17":
        failures.append(
            "TLB: expected spec17 to take the coverage lead, got "
            f"{c_tlb.best('coverage')}"
        )
    if not lm_tlb < 0.5 * lm_all:
        failures.append(
            "TLB: expected lmbench coverage to collapse "
            f"(got {lm_tlb:.4f} vs ALL {lm_all:.4f})"
        )
    return failures


def render(result):
    parts = []
    for focus in FOCUSES:
        parts.append(result.comparisons[focus].table())
        parts.append("")
    # Bar panels for the headline (all-events) comparison, mirroring the
    # paper's Fig. 3a bar chart.
    for score in SCORES:
        parts.append(result.comparisons["all"].bars(score))
        parts.append("")
    failures = check_expected_shape(result)
    if failures:
        parts.append("shape check FAILURES:")
        parts.extend(f"  - {f}" for f in failures)
    else:
        parts.append("shape check: all Section IV-A/B claims hold.")
    return "\n".join(parts)
