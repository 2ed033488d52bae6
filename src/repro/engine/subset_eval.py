"""Precompute-and-slice subset evaluation and multi-candidate search.

Section IV-C scores a candidate subset by re-running all four score
kernels on the subset matrix, normalized with the *full suite's* bounds
(``_scores(..., bounds_from=full)``). Under that shared-bounds
normalization the subset's kernels are sub-slices of the full-suite
ones, so a search over many candidate subsets can precompute the
expensive full-suite kernels **once** and score each candidate by index
slicing:

* the normalized counter matrix: a subset's normalized matrix is
  exactly the selected *rows* of the full normalized matrix (min-max
  normalization is elementwise per column, and clipping to [0, 1] is
  the identity there);
* **SpreadScore**: Eq. 14 KS-tests each workload *row* in isolation --
  the per-row D-values are precomputed once and a subset's score is
  their mean over the selected rows;
* **TrendScore**: when the per-series CDF normalization of a subset's
  series equals the full set's (see :meth:`SubsetEvaluator` and
  DESIGN.md section 8 for the exact condition), the subset's pairwise
  DTW matrix is the sliced submatrix of the full one, and ``TScore_z``
  is its off-diagonal mean. Where the condition fails, the evaluator
  falls back to the engine's cached per-pair path and records which
  path ran in ``SubsetReport.details['trend_paths']``;
* **ClusterScore / CoverageScore** depend on the subset *jointly*
  (K-means and PCA re-fit), so they re-run -- but on the already-sliced
  normalized rows, through the shared :class:`~repro.engine.Engine`
  cache, whose content-addressed keys make repeats across candidates
  (and across evaluator instances) free. The silhouette distance
  matrix is deliberately *not* sliced: BLAS-backed Euclidean distances
  are shape-dependent at the ULP level, so slicing would break bit
  identity (measured; see DESIGN.md section 8). Recomputing it on the
  tiny subset is microseconds and exact by construction.

Every sliced score is **bit-identical** to the from-scratch
shared-bounds path -- the sliced trend path is only taken when the
normalization equality holds exactly, and everything else either reuses
the identical floats or re-runs the identical kernel on bit-equal
inputs.

:class:`SubsetSearch` drives the evaluator over N candidates (LHS
seeds, random draws, or a greedy swap local search seeded by the
prior-work baselines) and returns the lowest-mean-deviation subset,
fanning candidate batches across the engine's worker pool when
``workers > 1`` (each worker runs an identical single-process
evaluator, so results are bit-identical at any worker count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.matrix import CounterMatrix
from repro.core.normalization import (
    CDF_QUANT_LEVELS,
    CDF_RELATIVE_FLOOR,
    normalize_series_set,
)
from repro.core.subset import (
    LHSSubsetGenerator,
    _scores,
    random_subset_names,
    report_from_scores,
)
from repro.engine.cache import content_key
from repro.engine.engine import Engine
from repro.obs.trace import span
from repro.stats.preprocessing import minmax_normalize


# -- worker task (top-level so it pickles) ----------------------------------


def _evaluate_batch_task(matrix, batch, seed, full_scores, n_points, band,
                         cdf, cache, cache_dir=None):
    """Evaluate one batch of candidate subsets in a worker with a fresh
    single-process evaluator -- the same code path the serial loop runs,
    so the reports are bit-identical to in-process evaluation. Sharing
    the owner's disk tier means the precomputed full-suite kernels are
    usually a disk hit instead of a recompute."""
    evaluator = SubsetEvaluator(
        matrix, seed=seed,
        engine=Engine(cache=cache, workers=1, cache_dir=cache_dir),
        full_scores=full_scores, n_points=n_points, band=band, cdf=cdf,
    )
    return [evaluator.evaluate(names) for names in batch]


@dataclass(frozen=True)
class _TrendEventKernel:
    """Precomputed full-suite trend state for one event.

    ``dmatrix`` is the full pairwise DTW matrix over the normalized
    series; the remaining fields are the per-series statistics the
    slice-exactness test needs (all over the *raveled* raw series,
    exactly as :func:`normalize_series_set` sees them).
    """

    dmatrix: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    floors: np.ndarray
    lo: float
    hi: float
    global_step: float


class SubsetEvaluator:
    """Score subsets of one suite by slicing precomputed full-suite
    kernels (bit-identical to ``_scores(..., bounds_from=full)``).

    Parameters
    ----------
    matrix:
        The full suite's :class:`CounterMatrix`.
    seed:
        Metric seed (the K-means sweep seed; same meaning as in
        :func:`repro.core.subset._scores`).
    engine:
        Shared :class:`~repro.engine.Engine`. A private single-process
        engine is built when omitted.
    full_scores:
        The full suite's score dict, when the caller already has it;
        computed once through the engine otherwise.
    n_points / band / cdf:
        Trend kernel knobs. The defaults mirror ``_scores`` (which is
        what the bit-identity contract is stated against); ``cdf`` other
        than ``"quantized"``/``"per_series"`` disables the sliced trend
        path entirely (``"pooled"`` normalization is set-global, so a
        slice is never exact).

    Notes
    -----
    ``evaluate`` results are memoized per exact candidate *order*:
    K-means consumes row order through its RNG draws, so ``(a, b)`` and
    ``(b, a)`` are different candidates with (slightly) different
    scores.
    """

    def __init__(self, matrix, seed=0, engine=None, full_scores=None,
                 n_points=100, band=None, cdf="quantized"):
        if not isinstance(matrix, CounterMatrix):
            raise TypeError("SubsetEvaluator needs a CounterMatrix")
        if matrix.n_workloads < 2:
            raise ValueError(
                "SubsetEvaluator needs at least 2 workloads"
            )
        self.matrix = matrix
        self.seed = seed
        self.engine = engine if engine is not None else Engine()
        self.n_points = n_points
        self.band = band
        self.cdf = cdf
        self._memo = {}
        self._index = {w: i for i, w in enumerate(matrix.workloads)}

        with span("subset.precompute", suite=str(matrix.suite_name or ""),
                  workloads=matrix.n_workloads):
            if full_scores is None:
                full_scores = _scores(matrix, seed=seed, engine=self.engine)
            self.full_scores = full_scores

            # The shared-bounds normalized matrix: identical (bitwise) to
            # what _scores(subset, bounds_from=full) builds, row for row
            # -- min-max normalization is elementwise per column and the
            # [0, 1] clip is the identity on already-in-bounds rows.
            values = matrix.values
            lo = values.min(axis=0)
            hi = values.max(axis=0)
            base = minmax_normalize(values, bounds=(lo, hi))
            self._base = np.clip(base, 0.0, 1.0)

            # Eq. 14 is row-local: one KS D-value per workload row,
            # reusable by every subset containing that row. Computed by
            # the engine's backend (bit-identical whichever is active).
            self._row_spread = tuple(
                float(d)
                for d in self.engine.backend.ks_columns(self._base.T)
            )

            self._events = list(matrix.series)
            self._trend = {
                event: self._trend_kernel(matrix.series[event])
                for event in self._events
            }

    # -- precompute --------------------------------------------------------

    def _trend_kernel(self, series_list):
        """Full-suite DTW matrix plus slice-exactness statistics for one
        event, through the engine cache (a preceding full-suite trend
        score has already paid for the norm set and every DTW pair)."""
        arrays = [np.asarray(s, dtype=float) for s in series_list]
        norm = self._normalized_set(arrays)
        dmatrix = self.engine.dtw_matrix(norm, band=self.band)
        raveled = [a.ravel() for a in arrays]
        mins = np.array([r.min() for r in raveled])
        maxs = np.array([r.max() for r in raveled])
        means = np.array([abs(float(r.mean())) for r in raveled])
        floors = np.maximum(means * CDF_RELATIVE_FLOOR,
                            2.0 * np.sqrt(means))
        lo = float(mins.min())
        hi = float(maxs.max())
        return _TrendEventKernel(
            dmatrix=dmatrix,
            mins=mins,
            maxs=maxs,
            floors=floors,
            lo=lo,
            hi=hi,
            global_step=(hi - lo) / CDF_QUANT_LEVELS,
        )

    def _normalized_set(self, arrays):
        """The Fig. 1-normalized series set, under the engine's
        ``norm-set`` cache key (shared with ``Engine.event_trend_scores``,
        so neither path recomputes the other's work)."""
        nkey = content_key("norm-set", tuple(arrays), self.n_points,
                           self.cdf)
        return self.engine.cache.get_or_compute(
            nkey,
            partial(normalize_series_set, arrays, n_points=self.n_points,
                    cdf=self.cdf),
        )

    # -- slice-exactness ---------------------------------------------------

    def _slice_exact(self, kernel, idx):
        """Whether the subset's trend normalization provably equals the
        full set's, making the DTW submatrix slice exact (DESIGN.md
        section 8).

        ``"per_series"`` is purely per-series, so always exact.
        ``"quantized"`` pools two set-level quantities -- the set minimum
        ``lo`` and the global quantization step ``(hi - lo) / Q`` -- and
        the slice is exact iff the subset reproduces ``lo`` and either
        reproduces ``hi`` too, or every selected series' own resolution
        floor dominates the full set's global step (the subset's global
        step can only shrink, so the per-series ``max`` then picks the
        identical floor either way). ``"pooled"`` normalizes against the
        pooled sample set, which a slice never reproduces.
        """
        if self.cdf == "per_series":
            return True
        if self.cdf != "quantized":
            return False
        sel = np.asarray(idx)
        if float(kernel.mins[sel].min()) != kernel.lo:
            return False
        if float(kernel.maxs[sel].max()) == kernel.hi:
            return True
        return bool(np.all(kernel.floors[sel] >= kernel.global_step))

    # -- evaluation --------------------------------------------------------

    def memoized(self, names):
        """Whether :meth:`evaluate` already holds a report for exactly
        this candidate (same workloads, same order)."""
        return self._candidate_key(names) in self._memo

    def adopt(self, names, report):
        """Install an externally-computed report for a candidate (used by
        the search driver to merge worker-pool results)."""
        self._memo[self._candidate_key(names)] = report

    def _candidate_key(self, names):
        key = tuple(self._index[w] for w in names)
        if len(set(key)) != len(key):
            raise ValueError(f"duplicate workloads in candidate: {names}")
        if len(key) < 2:
            raise ValueError("subsets need at least 2 workloads")
        return key

    def evaluate(self, names):
        """Score one candidate subset (workload names, order-sensitive).

        Returns
        -------
        repro.core.subset.SubsetReport
            Bit-identical to the from-scratch shared-bounds report;
            ``details['trend_paths']`` records, per event, whether the
            trend value was ``"sliced"`` from the precomputed DTW matrix
            or recomputed via the ``"fallback"`` engine path.
        """
        names = tuple(names)
        key = self._candidate_key(names)
        if key in self._memo:
            return self._memo[key]

        with span("subset.evaluate", size=len(key)) as sp:
            idx = list(key)
            k = len(idx)
            x = self._base[idx]
            subset_scores = {}
            if k >= 4:
                subset_scores["cluster"] = self.engine.cluster_score(
                    x, seed=self.seed, normalize=False,
                ).value
            else:
                subset_scores["cluster"] = float("nan")
            subset_scores["coverage"] = self.engine.coverage_score(
                x, normalize=False,
            ).value
            subset_scores["spread"] = float(
                np.mean([self._row_spread[i] for i in idx])
            )

            details = {}
            if self._events:
                per_event = {}
                paths = {}
                for event in self._events:
                    kernel = self._trend[event]
                    if self._slice_exact(kernel, idx):
                        sub = kernel.dmatrix[np.ix_(idx, idx)]
                        per_event[event] = float(sub.sum() / (k * (k - 1)))
                        paths[event] = "sliced"
                    else:
                        per_event[event] = self._fallback_event(event, idx)
                        paths[event] = "fallback"
                # Eq. 8 averages in event order; the summation order is
                # part of the bit-identity contract.
                subset_scores["trend"] = float(
                    np.mean([per_event[e] for e in self._events])
                )
                details["trend_paths"] = paths
                values = list(paths.values())
                sp.set(sliced=values.count("sliced"),
                       fallback=values.count("fallback"))
            else:
                subset_scores["trend"] = float("nan")

            report = report_from_scores(names, self.full_scores,
                                        subset_scores, details=details)
            self._memo[key] = report
            return report

    def _fallback_event(self, event, idx):
        """``TScore_z`` of one event recomputed from the subset's raw
        series -- the engine's cached per-pair path, run inline (no pool
        round-trip per candidate)."""
        arrays = [
            np.asarray(self.matrix.series[event][i], dtype=float)
            for i in idx
        ]
        norm = self._normalized_set(arrays)
        dmatrix = self.engine.dtw_matrix(norm, band=self.band)
        return Engine._tscore(dmatrix)


@dataclass(frozen=True)
class SubsetSearchResult:
    """Outcome of a multi-candidate subset search.

    Attributes
    ----------
    suite:
        Suite name of the searched matrix.
    subset_size:
        Target subset size.
    method:
        ``"lhs"``, ``"random"`` or ``"swap"``.
    n_candidates:
        The requested evaluation budget.
    best:
        The lowest-mean-deviation :class:`~repro.core.subset.SubsetReport`
        (first-found wins ties; NaN mean deviations rank last).
    reports:
        Every distinct candidate's report, in evaluation order.
    """

    suite: str
    subset_size: int
    method: str
    n_candidates: int
    best: object
    reports: tuple = field(repr=False)

    @property
    def n_evaluated(self):
        return len(self.reports)

    def __str__(self):
        devs = sorted(
            r.mean_deviation_pct for r in self.reports
            if not np.isnan(r.mean_deviation_pct)
        )
        lines = [
            f"subset search ({self.method}, {self.n_evaluated} candidates "
            f"evaluated, suite {self.suite or '<unnamed>'}):",
            str(self.best),
        ]
        if devs:
            lines.append(
                f"  candidate deviations: best {devs[0]:.2f}%, median "
                f"{devs[len(devs) // 2]:.2f}%, worst {devs[-1]:.2f}%"
            )
        return "\n".join(lines)


def _dev_rank(report):
    """Search objective: mean deviation, NaN ranking last."""
    dev = report.mean_deviation_pct
    return float("inf") if np.isnan(dev) else dev


class SubsetSearch:
    """Multi-candidate subset search over one suite.

    Parameters
    ----------
    matrix:
        The full suite's :class:`CounterMatrix`.
    subset_size:
        Target subset size.
    seed:
        Candidate-generation and metric seed.
    engine:
        Shared engine for the internal evaluator (ignored when
        ``evaluator`` is passed).
    evaluator:
        An existing :class:`SubsetEvaluator` to reuse (its memo then
        carries across searches).
    """

    METHODS = ("lhs", "random", "swap")

    def __init__(self, matrix, subset_size, seed=0, engine=None,
                 evaluator=None):
        if evaluator is None:
            evaluator = SubsetEvaluator(matrix, seed=seed, engine=engine)
        self.evaluator = evaluator
        self.matrix = evaluator.matrix
        if subset_size < 2 or subset_size > self.matrix.n_workloads:
            raise ValueError(
                f"subset_size must be in [2, {self.matrix.n_workloads}], "
                f"got {subset_size}"
            )
        self.subset_size = subset_size
        self.seed = seed

    def search(self, n_candidates=32, method="lhs"):
        """Evaluate up to ``n_candidates`` subsets; return the best.

        ``"lhs"`` scores ``n_candidates`` maximin-LHS designs under
        consecutive seeds; ``"random"`` scores uniform draws;
        ``"swap"`` seeds a pool (prior-work baselines plus LHS designs)
        and spends the remaining budget on greedy single-swap
        local-search refinement of the incumbent.

        Returns
        -------
        SubsetSearchResult
        """
        if n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if method not in self.METHODS:
            raise ValueError(
                f"method must be one of {self.METHODS}, got {method!r}"
            )
        if method == "swap":
            reports = self._swap_search(n_candidates)
        else:
            reports = self._evaluate_all(
                self._seed_candidates(n_candidates, method)
            )
        best = None
        for report in reports:
            if best is None or _dev_rank(report) < _dev_rank(best):
                best = report
        return SubsetSearchResult(
            suite=self.matrix.suite_name,
            subset_size=self.subset_size,
            method=method,
            n_candidates=n_candidates,
            best=best,
            reports=tuple(reports),
        )

    # -- candidate generation ----------------------------------------------

    def _seed_candidates(self, n, method):
        if method == "lhs":
            return [
                LHSSubsetGenerator(
                    subset_size=self.subset_size, seed=self.seed + i
                ).select(self.matrix)
                for i in range(n)
            ]
        return [
            random_subset_names(self.matrix, self.subset_size,
                                seed=self.seed + i)
            for i in range(n)
        ]

    def _swap_search(self, budget):
        from repro.baselines import baseline_subsets

        pool = []
        for names in baseline_subsets(self.matrix,
                                      self.subset_size).values():
            if names not in pool:
                pool.append(tuple(names))
        for i in range(max(1, budget // 4)):
            if len(pool) >= max(2, budget // 4):
                break
            cand = LHSSubsetGenerator(
                subset_size=self.subset_size, seed=self.seed + i
            ).select(self.matrix)
            if cand not in pool:
                pool.append(cand)
        pool = pool[:budget]

        reports = list(self._evaluate_all(pool))
        seen = {tuple(r.selected) for r in reports}
        best = min(reports, key=_dev_rank)
        while len(seen) < budget:
            current = tuple(best.selected)
            in_set = set(current)
            neighbors = []
            # Single-swap neighborhood, in deterministic (position,
            # suite-order) order; budget caps how much of it is scored.
            for pos in range(len(current)):
                for w in self.matrix.workloads:
                    if w in in_set:
                        continue
                    cand = current[:pos] + (w,) + current[pos + 1:]
                    if cand not in seen:
                        neighbors.append(cand)
                        seen.add(cand)
            neighbors = neighbors[:budget - len(reports)]
            if not neighbors:
                break
            fresh = self._evaluate_all(neighbors)
            reports.extend(fresh)
            round_best = min(fresh, key=_dev_rank)
            if _dev_rank(round_best) < _dev_rank(best):
                best = round_best
            else:
                break
            seen = {tuple(r.selected) for r in reports}
        return reports

    # -- evaluation fan-out ------------------------------------------------

    def _evaluate_all(self, candidates):
        """Evaluate candidates in order, fanning fresh ones out in
        contiguous batches across the engine's worker pool when
        ``workers > 1``. Each worker builds an identical single-process
        evaluator, so the merged reports are bit-identical to serial
        evaluation."""
        candidates = [tuple(c) for c in candidates]
        engine = self.evaluator.engine
        fresh = []
        for names in candidates:
            if not self.evaluator.memoized(names) and names not in fresh:
                fresh.append(names)
        if engine.workers > 1 and len(fresh) > 1:
            n_batches = min(engine.workers, len(fresh))
            size = -(-len(fresh) // n_batches)
            batches = [fresh[i:i + size]
                       for i in range(0, len(fresh), size)]
            results = engine.executor.map(
                _evaluate_batch_task,
                [(self.evaluator.matrix, batch, self.evaluator.seed,
                  self.evaluator.full_scores, self.evaluator.n_points,
                  self.evaluator.band, self.evaluator.cdf,
                  engine.cache.enabled, engine.cache_dir)
                 for batch in batches],
            )
            for batch, batch_reports in zip(batches, results):
                for names, report in zip(batch, batch_reports):
                    self.evaluator.adopt(names, report)
        return [self.evaluator.evaluate(names) for names in candidates]
