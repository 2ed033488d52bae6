"""Benchmark-suite subset generation via Latin hypercube sampling
(Section IV-C).

Running all 43 SPEC'17 workloads is expensive; researchers run subsets,
usually chosen by convenience. Perspector chooses them by *coverage*:

1. min-max normalize the suite's counter matrix to the unit hypercube
   (one dimension per PMU counter);
2. draw an LHS design with one point per requested subset slot -- LHS
   stratification guarantees every counter's range is sampled evenly;
3. assign each design point its nearest workload (globally-greedy
   unique matching), so the chosen workloads approximate a space-filling
   sample of the suite's own behaviour range.

The quality check re-scores the subset against the full suite: the paper
reports a 6.53% mean score deviation for SPEC'17 at 43 -> 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cluster_score import cluster_score
from repro.core.coverage_score import coverage_score
from repro.core.matrix import CounterMatrix
from repro.core.spread_score import spread_score
from repro.core.trend_score import trend_score
from repro.stats.distance import cdist
from repro.stats.lhs import maximin_latin_hypercube
from repro.stats.preprocessing import minmax_normalize


@dataclass(frozen=True)
class SubsetReport:
    """Subset plus its fidelity against the full suite.

    Attributes
    ----------
    selected:
        Chosen workload names, in selection order.
    full_scores / subset_scores:
        ``{score_name: value}`` for the full suite and the subset.
    deviations:
        ``{score_name: relative deviation in percent}``. Scores that are
        NaN on either side (e.g. trend without series) are excluded.
    mean_deviation_pct:
        Mean of the per-score deviations (the paper's 6.53% figure);
        NaN when no score produced a deviation.
    details:
        Optional provenance, e.g. the :class:`repro.engine.subset_eval.
        SubsetEvaluator` records per-event whether trend was sliced from
        the precomputed DTW matrix or recomputed via the fallback.
    """

    selected: tuple
    full_scores: dict
    subset_scores: dict
    deviations: dict
    mean_deviation_pct: float
    details: dict = field(default_factory=dict)

    def __str__(self):
        rows = [f"subset: {', '.join(self.selected)}"]
        for name in self.full_scores:
            if name in self.deviations:
                dev = f"{self.deviations[name]:.2f}%"
            else:
                dev = "n/a"
            rows.append(
                f"  {name:<9} full={self.full_scores[name]:.4f} "
                f"subset={self.subset_scores[name]:.4f} "
                f"dev={dev}"
            )
        rows.append(f"  mean deviation: {self.mean_deviation_pct:.2f}%")
        return "\n".join(rows)


def _mean_deviation(deviations):
    """Mean of the per-score deviations; NaN (without numpy's empty-mean
    warning) when every score was excluded as NaN."""
    if not deviations:
        return float("nan")
    return float(np.mean(list(deviations.values())))


def report_from_scores(selected, full_scores, subset_scores, details=None):
    """Assemble a :class:`SubsetReport` from already-computed score dicts.

    The deviation convention is shared by every scoring path (LHS
    report, random baseline, experiment drivers, the sliced evaluator):
    NaN scores are excluded, a zero full-suite score falls back to an
    absolute deviation.
    """
    deviations = {}
    for name, full_value in full_scores.items():
        sub_value = subset_scores[name]
        if np.isnan(full_value) or np.isnan(sub_value):
            continue
        denom = abs(full_value) if full_value != 0 else 1.0
        deviations[name] = 100.0 * abs(sub_value - full_value) / denom
    return SubsetReport(
        selected=tuple(selected),
        full_scores=full_scores,
        subset_scores=subset_scores,
        deviations=deviations,
        mean_deviation_pct=_mean_deviation(deviations),
        details=details if details is not None else {},
    )


def _greedy_unique_match(anchors, points):
    """Assign each anchor its nearest point, globally greedily, without
    reusing points. Returns point indices in anchor order."""
    d = cdist(anchors, points)
    n_anchors = anchors.shape[0]
    chosen = [-1] * n_anchors
    used_points = set()
    used_anchors = set()
    flat_order = np.argsort(d, axis=None)
    for flat in flat_order:
        a, p = divmod(int(flat), d.shape[1])
        if a in used_anchors or p in used_points:
            continue
        chosen[a] = p
        used_anchors.add(a)
        used_points.add(p)
        if len(used_anchors) == n_anchors:
            break
    return chosen


class LHSSubsetGenerator:
    """LHS-based subset selection.

    Parameters
    ----------
    subset_size:
        Number of workloads to keep.
    seed:
        LHS design seed.
    n_candidates:
        Maximin-LHS candidate draws (space-filling quality knob).
    """

    def __init__(self, subset_size, seed=0, n_candidates=32):
        if subset_size < 1:
            raise ValueError("subset_size must be >= 1")
        self.subset_size = subset_size
        self.seed = seed
        self.n_candidates = n_candidates

    def select(self, matrix):
        """Choose the subset workload names for a suite's CounterMatrix."""
        if not isinstance(matrix, CounterMatrix):
            raise TypeError("select needs a CounterMatrix")
        n = matrix.n_workloads
        if self.subset_size > n:
            raise ValueError(
                f"subset_size {self.subset_size} exceeds suite size {n}"
            )
        if self.subset_size == n:
            return tuple(matrix.workloads)
        normalized = minmax_normalize(matrix.values)
        design = maximin_latin_hypercube(
            self.subset_size, matrix.n_events, rng=self.seed,
            n_candidates=self.n_candidates,
        )
        chosen = _greedy_unique_match(design, normalized)
        return tuple(matrix.workloads[i] for i in chosen)

    def report(self, matrix, seed=0, full_scores=None, engine=None):
        """Choose a subset and score its fidelity (Section IV-C).

        The subset's matrix is normalized with the *full suite's* bounds
        so the two score sets are commensurable. ``full_scores`` may be
        passed in when the caller already computed them (scoring a large
        suite's TrendScore is the expensive part; experiment drivers
        compare many subsetting methods against one full-suite baseline).
        Alternatively, pass a shared :class:`repro.engine.Engine` as
        ``engine`` and repeated kernel work (full-suite scores, K-means
        fits, DTW pairs) is memoized across reports. To score many
        subsets of one suite, pass their names in one list to
        :meth:`repro.engine.subset_eval.SubsetEvaluator.evaluate_many`
        instead: it slices precomputed full-suite kernels and fits the
        candidates in blocks (bit-identical, much faster).

        Returns
        -------
        SubsetReport
        """
        selected = self.select(matrix)
        subset_matrix = matrix.select_workloads(selected)

        if full_scores is None:
            full_scores = _scores(matrix, seed=seed, engine=engine)
        subset_scores = _scores(subset_matrix, seed=seed,
                                bounds_from=matrix, engine=engine)
        return report_from_scores(selected, full_scores, subset_scores)


def _scores(matrix, seed=0, bounds_from=None, engine=None):
    """The four scores of one matrix; optionally normalized with another
    matrix's per-event bounds (for subset-vs-full comparability).

    With an ``engine``, the kernels run through its content-addressed
    cache -- results are bit-identical, repeats are free."""
    if bounds_from is not None:
        lo = bounds_from.values.min(axis=0)
        hi = bounds_from.values.max(axis=0)
        values = minmax_normalize(matrix.values, bounds=(lo, hi))
        values = np.clip(values, 0.0, 1.0)
        matrix = CounterMatrix(
            workloads=matrix.workloads,
            events=matrix.events,
            values=values,
            series=matrix.series,
            suite_name=matrix.suite_name,
        )
        normalize = False
    else:
        normalize = True

    if engine is not None:
        _cluster = engine.cluster_score
        _coverage = engine.coverage_score
        _spread = engine.spread_score
        _trend = engine.trend_score
    else:
        _cluster, _coverage = cluster_score, coverage_score
        _spread, _trend = spread_score, trend_score

    out = {}
    if matrix.n_workloads >= 4:
        out["cluster"] = _cluster(matrix, seed=seed,
                                  normalize=normalize).value
    else:
        out["cluster"] = float("nan")
    out["coverage"] = _coverage(matrix, normalize=normalize).value
    out["spread"] = _spread(matrix, normalize=normalize).value
    if matrix.has_series:
        out["trend"] = _trend(matrix).value
    else:
        out["trend"] = float("nan")
    return out


def random_subset_names(matrix, subset_size, seed=0):
    """The uniformly random subset draw behind
    :func:`random_subset_report`, exposed so other scoring paths (the
    sliced evaluator, the search driver) can reuse the exact draw."""
    rng = np.random.default_rng(seed)
    return tuple(
        matrix.workloads[i]
        for i in rng.choice(matrix.n_workloads, size=subset_size,
                            replace=False)
    )


def random_subset_report(matrix, subset_size, seed=0, full_scores=None,
                         engine=None):
    """Baseline: a uniformly random subset of the same size, scored the
    same way (used by the ablation bench to show LHS beats chance)."""
    names = random_subset_names(matrix, subset_size, seed=seed)
    subset_matrix = matrix.select_workloads(names)
    if full_scores is None:
        full_scores = _scores(matrix, seed=seed, engine=engine)
    subset_scores = _scores(subset_matrix, seed=seed, bounds_from=matrix,
                            engine=engine)
    return report_from_scores(names, full_scores, subset_scores)
