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
  falls back to recomputing the event -- every fallback event of every
  candidate of one block in a single DTW kernel call, from per-series
  normalizations memoized under ``(event, row, lo, step)`` -- and
  records which path ran in ``SubsetReport.details['trend_paths']``;
* **ClusterScore / CoverageScore** depend on the subset *jointly*
  (K-means and PCA re-fit), so they re-run -- but on the already-sliced
  normalized rows, through the shared :class:`~repro.engine.Engine`
  cache (memory tier only), whose content-addressed keys make repeats
  across candidates (and across evaluator instances) free. A block's
  K-means sweeps fit together, one lockstep fit per k
  (:meth:`~repro.engine.Engine.kmeans_sweeps`), bit-identical to
  fitting each alone. The silhouette distance matrix
  is deliberately *not* sliced: BLAS-backed Euclidean distances are
  shape-dependent at the ULP level, so slicing would break bit
  identity (measured; see DESIGN.md section 8).
  Recomputing it on the tiny subset is microseconds and exact by
  construction.

:meth:`SubsetEvaluator.evaluate_many` runs as stages over its
distinct candidates: look every report up (memo, memory, disk), compute
the misses in blocks of at most :data:`BATCH_CANDIDATES`, store.

With a disk tier, what persists is each candidate's whole report
(through the wire codec, keyed by one evaluator digest plus the
candidate's row order), not its intermediates, so a disk-warm search
computes no DTW pair (DESIGN.md section 8).

Every sliced score is **bit-identical** to the from-scratch
shared-bounds path -- the sliced trend path is only taken when the
normalization equality holds exactly, and everything else either reuses
the identical floats or re-runs the identical kernel on bit-equal
inputs.

:class:`SubsetSearch` drives the evaluator over N candidates (LHS
seeds, random draws, or a greedy swap local search seeded by the
prior-work baselines) and returns the lowest-mean-deviation subset.
When ``workers > 1`` the evaluator fans its misses across the engine's
worker pool in contiguous batches (each worker runs an identical
single-process evaluator, so results are bit-identical at any worker
count).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cluster_score import silhouette_sweep, sweep_seeds
from repro.core.matrix import CounterMatrix
from repro.core.normalization import (
    CDF_QUANT_LEVELS,
    normalize_quantized,
    normalize_series_set,
    quantization_floor,
)
from repro.core.subset import (
    LHSSubsetGenerator,
    _scores,
    random_subset_names,
    report_from_scores,
)
from repro.engine.cache import MISS, array_digest, content_key
from repro.engine.engine import Engine
from repro.engine.parallel import parallel_map
from repro.obs.trace import span
from repro.stats.backend import ks_columns
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
    return evaluator.evaluate_many(batch)


#: K-means restarts per k of a candidate's ClusterScore sweep: the
#: ``cluster_score`` default that ``_scores`` fits with.
KMEANS_RESTARTS = 8

#: Most candidates one block of :meth:`SubsetEvaluator.evaluate_many`
#: computes together: bounds what a block holds at once (K-means labels,
#: fallback sets, pair codes, DTW matrices) whatever the search budget.
BATCH_CANDIDATES = 64


@dataclass(frozen=True)
class _TrendEventKernel:
    """Precomputed full-suite trend state for one event.

    ``dmatrix`` is the full pairwise DTW matrix over the normalized
    series; ``series`` holds the *raveled* raw series, exactly as
    :func:`normalize_series_set` sees them, and the remaining fields are
    their per-series statistics, which the slice-exactness test and the
    fallback's per-series normalization share.
    """

    dmatrix: np.ndarray
    series: tuple
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
        #: (event, row, lo, step) -> (normalized series, its digest): a
        #: fallback event re-normalizes only series it has not met
        #: under that set minimum and step.
        self._norm_series = {}

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
            # reusable by every subset containing that row.
            self._row_spread = tuple(
                float(d) for d in ks_columns(self._base.T)
            )

            self._events = list(matrix.series)
            self._trend = {
                event: self._trend_kernel(matrix.series[event])
                for event in self._events
            }

            # Everything a report depends on besides the candidate's
            # rows, hashed once: the disk tier keys each candidate's
            # report by this plus its index order (see _report_key).
            self._digest = content_key(
                "subset-evaluator", values, tuple(matrix.workloads),
                tuple(matrix.events),
                {str(e): list(matrix.series[e]) for e in self._events},
                seed, n_points, band, cdf, dict(full_scores),
            )

    # -- precompute --------------------------------------------------------

    def _trend_kernel(self, series_list):
        """Full-suite DTW matrix plus slice-exactness statistics for one
        event, through the engine cache (a preceding full-suite trend
        score has already paid for the norm set and every DTW pair)."""
        arrays = [np.asarray(s, dtype=float) for s in series_list]
        norm = self.engine.normalized_set(arrays, self.n_points, self.cdf)
        dmatrix = self.engine.dtw_matrix(norm, band=self.band)
        raveled = tuple(a.ravel() for a in arrays)
        mins = np.array([r.min() for r in raveled])
        maxs = np.array([r.max() for r in raveled])
        floors = np.array([quantization_floor(r) for r in raveled])
        lo = float(mins.min())
        hi = float(maxs.max())
        return _TrendEventKernel(
            dmatrix=dmatrix,
            series=raveled,
            mins=mins,
            maxs=maxs,
            floors=floors,
            lo=lo,
            hi=hi,
            global_step=(hi - lo) / CDF_QUANT_LEVELS,
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

    def _candidate_key(self, names):
        key = tuple(self._index[w] for w in names)
        if len(set(key)) != len(key):
            raise ValueError(f"duplicate workloads in candidate: {names}")
        if len(key) < 2:
            raise ValueError("subsets need at least 2 workloads")
        return key

    def _report_key(self, key):
        """Cache key of one candidate's whole report: the evaluator
        digest (matrix, seed, trend knobs, full scores) plus the
        candidate's row order."""
        return content_key("subset-report", self._digest, key)

    def evaluate(self, names):
        """Score one candidate subset (workload names, order-sensitive):
        :meth:`evaluate_many` of it alone.

        Returns
        -------
        repro.core.subset.SubsetReport
            Bit-identical to the from-scratch shared-bounds report;
            ``details['trend_paths']`` records, per event, whether the
            trend value was ``"sliced"`` from the precomputed DTW matrix
            or recomputed via the ``"fallback"`` engine path.
        """
        return self.evaluate_many([names])[0]

    def evaluate_many(self, candidates):
        """Score candidate subsets, in three stages over the distinct
        candidates:

        1. *Look up.* Every candidate key is checked, then each one not
           in the evaluator's memo is looked up once: engine memory,
           then the disk tier.
        2. *Compute the misses* (:meth:`_compute`), in blocks of at most
           :data:`BATCH_CANDIDATES` -- or, on an engine with
           ``workers > 1`` and two or more misses, in contiguous batches
           across the worker pool.
        3. *Store* each computed report whole (disk included) under a
           ``subset.evaluate`` span per looked-up candidate (``tier``,
           ``sliced``, ``fallback``), and memoize every report.

        Returns
        -------
        list[repro.core.subset.SubsetReport]
            One per candidate, in input order (a repeat is the same
            object).
        """
        keys, names_of = [], {}
        for names in candidates:
            key = self._candidate_key(names)
            keys.append(key)
            names_of.setdefault(key, tuple(names))
        found = {}
        for key in names_of:
            if key not in self._memo:
                rkey = self._report_key(key)
                found[key] = (rkey, *self.engine.cache.lookup_tier(rkey))
        misses = [key for key, (_rkey, report, _tier) in found.items()
                  if report is MISS]
        computed = dict(zip(misses, self._compute(
            [(key, names_of[key]) for key in misses])))
        for key, (rkey, report, tier) in found.items():
            with span("subset.evaluate", size=len(key), tier=tier) as sp:
                if report is MISS:
                    report = self.engine.cache.put(rkey, computed[key])
                paths = list(report.details.get("trend_paths", {}).values())
                sp.set(sliced=paths.count("sliced"),
                       fallback=paths.count("fallback"))
            self._memo[key] = report
        return [self._memo[key] for key in keys]

    def _compute(self, todo):
        """Reports of the ``(key, names)`` candidates ``todo``, in
        order. In-process, each block of :data:`BATCH_CANDIDATES` fits
        its K-means sweeps in lockstep and its trend fallbacks in one
        DTW pass, and its intermediates are memory-only and dropped
        before the next block. With ``workers > 1`` and two or more
        candidates, contiguous batches go to the worker pool, each to
        an identical single-process evaluator, so the reports are
        bit-identical either way."""
        engine = self.engine
        if engine.workers > 1 and len(todo) > 1:
            size = -(-len(todo) // min(engine.workers, len(todo)))
            batches = [[names for _key, names in todo[i:i + size]]
                       for i in range(0, len(todo), size)]
            results = parallel_map(
                _evaluate_batch_task,
                [(self.matrix, batch, self.seed, self.full_scores,
                  self.n_points, self.band, self.cdf, engine.cache.enabled,
                  engine.cache_dir) for batch in batches],
                engine.workers, engine.metrics,
            )
            return [report for reports in results for report in reports]
        with engine.cache.memory_only():
            return [report for i in range(0, len(todo), BATCH_CANDIDATES)
                    for report in self._compute_block(
                        todo[i:i + BATCH_CANDIDATES])]

    def _compute_block(self, block):
        """Reports of one block of ``(key, names)`` candidates: one
        :meth:`Engine.kmeans_sweeps` call per subset size (candidates of
        at least 4 rows; below that there is no ClusterScore), one
        :meth:`_fallbacks_pass`, then each report assembled from those
        parts, which are dropped on return."""
        xs = [self._base[list(key)] for key, _names in block]
        by_size = {}
        for position, (key, _names) in enumerate(block):
            if len(key) >= 4:
                by_size.setdefault(len(key), []).append(position)
        sweeps = [None] * len(block)
        for size, positions in by_size.items():
            fitted = self.engine.kmeans_sweeps(
                [xs[p] for p in positions], sweep_seeds(size, self.seed),
                KMEANS_RESTARTS)
            for position, labels in zip(positions, fitted):
                sweeps[position] = labels
        fallbacks = self._fallbacks_pass([key for key, _names in block])
        return [self._report(names, key, x, labels, fallback)
                for (key, names), x, labels, fallback
                in zip(block, xs, sweeps, fallbacks)]

    def _fallbacks_pass(self, keys):
        """Each candidate's ``{event: DTW matrix}`` of its fallback
        events, from one :meth:`Engine.dtw_matrices` call under a
        ``subset.fallbacks`` span (no call and no span when none has
        one)."""
        plans = [(key, self._fallback_events(key)) for key in keys]
        sets = [self._fallback_set(event, key)
                for key, events in plans for event in events]
        matrices = []
        if sets:
            with span("subset.fallbacks", candidates=len(keys)) as sp:
                matrices, pairs = self.engine.dtw_matrices(sets,
                                                           band=self.band)
                sp.set(dtw_pairs=pairs, dtw_calls=int(pairs > 0))
        matrices = iter(matrices)
        return [{event: next(matrices) for event in events}
                for _key, events in plans]

    def _fallback_events(self, idx):
        """The events whose trend the candidate ``idx`` recomputes: those
        whose DTW submatrix is not an exact slice (:meth:`_slice_exact`)."""
        return [event for event in self._events
                if not self._slice_exact(self._trend[event], idx)]

    def _report(self, names, idx, x, labels_by_k, fallback):
        """One candidate's report, from its rows ``x``, its fitted
        K-means sweep (``None`` below 4 rows) and its fallback events'
        DTW matrices."""
        k = len(idx)
        subset_scores = {"cluster": float("nan")}
        if labels_by_k is not None:
            subset_scores["cluster"] = silhouette_sweep(
                x, self.engine.pairwise_distances(x), labels_by_k).value
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
                if event in fallback:
                    per_event[event] = Engine._tscore(fallback[event])
                    paths[event] = "fallback"
                else:
                    sub = self._trend[event].dmatrix[np.ix_(idx, idx)]
                    per_event[event] = float(sub.sum() / (k * (k - 1)))
                    paths[event] = "sliced"
            # Eq. 8 averages in event order; the summation order is
            # part of the bit-identity contract.
            subset_scores["trend"] = float(
                np.mean([per_event[e] for e in self._events])
            )
            details["trend_paths"] = paths
        else:
            subset_scores["trend"] = float("nan")

        return report_from_scores(names, self.full_scores, subset_scores,
                                  details=details)

    def _fallback_set(self, event, idx):
        """The subset's normalized series of one fallback event and
        their digests, ready for :meth:`Engine.dtw_matrices`.

        Under ``"quantized"`` each series' normalization depends only on
        the subset's minimum ``lo`` and the series' own step, so it is
        memoized under ``(event, row, lo, step)`` -- the very arithmetic
        :func:`normalize_series_set` runs, through the same per-series
        helpers. Other readings normalize the set whole."""
        kernel = self._trend[event]
        if self.cdf != "quantized":
            norm = normalize_series_set([kernel.series[i] for i in idx],
                                        n_points=self.n_points,
                                        cdf=self.cdf)
            return norm, [array_digest(a) for a in norm]
        sel = np.asarray(idx)
        lo = float(kernel.mins[sel].min())
        global_step = (float(kernel.maxs[sel].max()) - lo) / CDF_QUANT_LEVELS
        arrays, digests = [], []
        for i in idx:
            step = max(global_step, kernel.floors[i])
            mkey = (event, i, lo, float(step))
            hit = self._norm_series.get(mkey)
            if hit is None:
                norm = normalize_quantized(kernel.series[i], lo, step,
                                           n_points=self.n_points)
                hit = self._norm_series[mkey] = (norm, array_digest(norm))
            arrays.append(hit[0])
            digests.append(hit[1])
        return arrays, digests


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
            reports = self.evaluator.evaluate_many(
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

        reports = self.evaluator.evaluate_many(pool)
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
            fresh = self.evaluator.evaluate_many(neighbors)
            reports.extend(fresh)
            round_best = min(fresh, key=_dev_rank)
            if _dev_rank(round_best) < _dev_rank(best):
                best = round_best
            else:
                break
            seen = {tuple(r.selected) for r in reports}
        return reports
