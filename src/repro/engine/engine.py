"""The memoizing, parallel scoring engine.

:class:`Engine` sits between the :class:`~repro.core.perspector.Perspector`
facade and the Section III score kernels. It adds two orthogonal
capabilities without changing a single output bit:

* **Memoization** (:mod:`repro.engine.cache`): normalized series sets,
  pairwise DTW matrices *and* the individual DTW pairs inside them, PCA
  decompositions (via whole CoverageScore results) and per-k K-means
  labels are cached under content-addressed keys. Focused re-scoring,
  subset fidelity checks and repeated experiment runs hit the cache
  instead of recomputing. Every DTW matrix -- trend scoring's and the
  subset evaluator's -- is filled through the pair store: the missing
  pairs of one or several matrices go to the kernel in one
  deduplicated batch (:meth:`Engine.dtw_matrices`).
* **Parallel fan-out** (:mod:`repro.engine.parallel`): the per-k
  K-means sweep, per-suite comparison scoring and subset candidate
  batches fan across a process pool when ``workers > 1``. Results are
  reassembled in input order and each element is computed by the exact
  kernel the serial path uses, so scorecards are bit-identical at any
  worker count -- a property ``repro.qa.determinism`` checks.

Determinism-under-caching hinges on one rule: a DTW distance's bits
are a function of ``(a, b, band)`` alone, whatever batch computes it
and in either orientation (:mod:`repro.stats.dtw`). The engine
dispatches every DTW pair batch through its one
:class:`~repro.stats.backend.ComputeBackend` record
(:attr:`Engine.backend`, :func:`repro.stats.backend.kernels` by
default), so mixing cached and fresh pairs is safe whichever batch
computed them.
"""

from __future__ import annotations

import numpy as np

from repro.core.cluster_score import cluster_score as core_cluster_score
from repro.core.coverage_score import (
    DEFAULT_VARIANCE,
    coverage_score as core_coverage_score,
)
from repro.core.matrix import CounterMatrix
from repro.core.normalization import normalize_series_set
from repro.core.report import SuiteScorecard
from repro.core.spread_score import spread_score as core_spread_score
from repro.core.trend_score import trend_score as core_trend_score
from repro.engine.cache import (
    MISS,
    KernelCache,
    array_digest,
    content_key,
    pair_key,
)
from repro.engine.parallel import POOL_COUNTERS, parallel_map
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.stats.backend import kernels
from repro.stats.distance import pairwise_distances
from repro.stats.dtw import validate_series_list
from repro.stats.kmeans import KMeans, fit_stack


# -- worker tasks (top-level so they pickle) --------------------------------


def _kmeans_task(x, k, seed, n_restarts):
    """Labels of one K-means fit (one k of the Eq. 6 sweep)."""
    return KMeans(k=k, seed=seed, n_restarts=n_restarts).fit(x).labels


def _score_matrix_task(matrix, config, focus_value, normalize, cache,
                       cache_dir=None):
    """Score one suite matrix in a worker with a fresh single-process
    engine -- the same code path the serial loop runs. The worker
    shares the owner's disk tier (atomic renames make concurrent
    writers safe), so its kernel results warm later runs too."""
    engine = Engine(cache=cache, workers=1, cache_dir=cache_dir)
    return engine.score_matrix(matrix, config, focus_value,
                               normalize=normalize)


def _pair_codes(id_lists, idx_i, idx_j, n_rows):
    """``min * n_rows + max`` of the series ids of every pair
    ``(idx_i, idx_j)`` of every equal-length id list, one row of pairs
    per list, raveled. A function of its own so that its temporaries
    are freed before the kernel's buffers are allocated: a search's
    fallback pass codes tens of thousands of pairs."""
    ids = np.array(id_lists, dtype=np.int64).reshape(len(id_lists), -1)
    a, b = ids[:, idx_i], ids[:, idx_j]
    code = np.minimum(a, b)
    code *= n_rows
    code += np.maximum(a, b, out=b)
    return code.ravel()


class Engine:
    """Memoizing, optionally parallel scoring engine.

    Parameters
    ----------
    cache:
        Enable the content-addressed kernel cache (results are
        bit-identical either way; the cache only buys speed).
    workers:
        Process count for the parallel fan-outs. ``1`` (default) keeps
        today's serial path with zero pool overhead; higher values fan
        out over the process's spawn pool of that width
        (:func:`~repro.engine.parallel.parallel_map`), which every
        engine in the process shares.
    cache_dir:
        Optional directory for the on-disk cache tier
        (:class:`~repro.engine.diskcache.DiskCache`): kernel results
        persist under the same content-addressed keys, so warm starts
        survive across processes and CLI invocations. ``None`` (default)
        keeps the cache memory-only.
    backend:
        A :class:`~repro.stats.backend.ComputeBackend` record to
        dispatch through instead of :func:`~repro.stats.backend.kernels`
        -- a seam for wrapped copies that count or record kernel calls.
        Every DTW pair this engine computes goes through it; engines
        built inside pool tasks use ``kernels()``.
    """

    def __init__(self, cache=True, workers=1, cache_dir=None, backend=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: The ComputeBackend record DTW pair batches dispatch through.
        self.backend = kernels() if backend is None else backend
        #: One registry for every counter across the engine's layers --
        #: kernel cache, disk tier, worker pool.
        #: ``details['engine']`` is a ``snapshot().delta()`` view over it.
        self.metrics = MetricsRegistry()
        disk = None
        if cache and cache_dir is not None:
            from repro.engine.diskcache import DiskCache

            disk = DiskCache(cache_dir, metrics=self.metrics)
        self.cache = KernelCache(enabled=cache, disk=disk,
                                 metrics=self.metrics)
        # Registered up front, so details['engine'] carries the pool
        # counters at any worker count.
        for name in POOL_COUNTERS:
            self.metrics.counter(name)

    @property
    def cache_dir(self):
        disk = self.cache.disk
        return None if disk is None else disk.root

    @classmethod
    def from_config(cls, config):
        """Build an engine from any config carrying ``workers``/``cache``
        /``cache_dir`` knobs
        (:class:`~repro.core.perspector.PerspectorConfig`,
        :class:`~repro.experiments.runner.ExperimentConfig`)."""
        return cls(cache=getattr(config, "cache", True),
                   workers=getattr(config, "workers", 1),
                   cache_dir=getattr(config, "cache_dir", None))

    # -- bookkeeping -------------------------------------------------------

    def _engine_details(self, before):
        """The ``SuiteScorecard.details['engine']`` payload for one
        scoring pass that started at registry snapshot ``before``
        (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`): every
        counter's movement since ``before``, plus the non-counter
        engine facts."""
        details = self.metrics.snapshot().delta(before)
        details["cache_entries"] = len(self.cache)
        details["cache_enabled"] = self.cache.enabled
        details["cache_dir"] = self.cache_dir
        details["workers"] = self.workers
        return details

    # -- traced cache access -----------------------------------------------

    def _cached(self, kind, key, disk=True):
        """A :meth:`~repro.engine.cache.KernelCache.lookup` under a
        ``cache.lookup`` span carrying the kernel ``kind`` and serving
        ``tier``. Coarse kernel lookups only -- per-pair DTW probes are
        far too hot for a span each and stay metrics-only."""
        with span("cache.lookup", kind=kind) as sp:
            value, tier = self.cache.lookup_tier(key, disk=disk)
            sp.set(tier=tier)
        return value

    # -- DTW (matrix + pair granularity) -----------------------------------

    def dtw_matrix(self, series, band=None):
        """Cached pairwise DTW matrix: the one-set case of
        :meth:`_dtw_matrix_entries`.

        Misses are filled at pair granularity: any pair already known --
        from another event's matrix, a previous full-matrix computation
        over a superset, or an earlier identical subset -- is reused,
        and only the genuinely new pairs are computed, in one
        :meth:`dtw_matrices` batch.
        """
        return self._dtw_matrix_entries([series], band)[0]

    def _dtw_matrix_entries(self, series_lists, band):
        """The ``dtw-matrix`` entry of every series list, in order.

        Each list's matrix is looked up under its own entry; every list
        whose entry misses is filled by one :meth:`dtw_matrices` pass,
        and its matrix stored under that entry.
        """
        out, pending = [], []
        for series in series_lists:
            arrays = validate_series_list(series)
            mkey = content_key("dtw-matrix", tuple(arrays), band)
            cached = self._cached("dtw-matrix", mkey)
            if cached is MISS:
                pending.append((len(out), mkey, arrays))
            out.append(cached)
        if pending:
            matrices, _computed = self.dtw_matrices(
                [(arrays, [array_digest(a) for a in arrays])
                 for _position, _mkey, arrays in pending], band)
            for (position, mkey, _arrays), dmatrix in zip(pending,
                                                          matrices):
                out[position] = self.cache.put(mkey, dmatrix)
        return out

    def dtw_matrices(self, sets, band=None):
        """Pairwise DTW matrices of several series sets, from at most
        one kernel call.

        ``sets`` holds ``(arrays, digests)`` pairs: validated series and
        their :func:`~repro.engine.cache.array_digest`, which the caller
        computes once (the subset evaluator memoizes them per series).
        Each distinct digest becomes one integer series id, and each
        pair of every set one ``min * R + max`` code over the ``R`` ids,
        so the pairs are deduplicated across all sets by one
        ``np.unique``. Only the distinct pairs consult the pair store
        (under their :func:`~repro.engine.cache.pair_key`); the missing
        ones go to one ``pair_distances`` call, so each reaches the
        kernel once. A pair's distance depends only on the pair and the
        band, so no bit depends on the batching or the orientation, and
        sets of any lengths may share the call.

        Returns
        -------
        (list[numpy.ndarray], int)
            One symmetric matrix per set, and how many pairs the kernel
            computed.
        """
        rows, row_of = [], {}
        by_size = {}
        for position, (arrays, digests) in enumerate(sets):
            ids = []
            for a, d in zip(arrays, digests):
                row = row_of.get(d)
                if row is None:
                    row = row_of[d] = len(rows)
                    rows.append(a)
                ids.append(row)
            members, id_lists = by_size.setdefault(len(ids), ([], []))
            members.append(position)
            id_lists.append(ids)
        # Sets of one size share one (sets, pairs) code block.
        n_rows = len(rows)
        groups = [(members, n, *np.triu_indices(n, k=1))
                  for n, (members, _ids) in by_size.items()]
        distinct, inverse = np.unique(
            np.concatenate([np.empty(0, dtype=np.int64)] + [
                _pair_codes(by_size[n][1], idx_i, idx_j, n_rows)
                for _members, n, idx_i, idx_j in groups]),
            return_inverse=True)
        first, second = np.divmod(distinct, n_rows)
        digest_of = list(row_of)
        values = np.empty(distinct.shape[0])
        missing, missing_keys = [], []
        for p, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
            key = pair_key(digest_of[i], digest_of[j], band)
            # Pair entries stay memory-only (disk=False): one file per
            # float would drown the disk tier, and the matrices above
            # them persist.
            value = self.cache.lookup(key, disk=False)
            if value is MISS:
                missing.append(p)
                missing_keys.append(key)
            else:
                values[p] = value
        if missing:
            fresh = self.backend.pair_distances(rows, first[missing],
                                                second[missing], band)
            values[missing] = fresh
            for key, value in zip(missing_keys, fresh):
                self.cache.put(key, float(value), disk=False)
        matrices = [None] * len(sets)
        start = 0
        for members, n, idx_i, idx_j in groups:
            stop = start + len(members) * idx_i.shape[0]
            pair_values = values[inverse[start:stop]].reshape(len(members),
                                                              -1)
            out = np.zeros((len(members), n, n))
            out[:, idx_i, idx_j] = pair_values
            out[:, idx_j, idx_i] = pair_values
            for position, matrix in zip(members, out):
                matrices[position] = matrix
            start = stop
        return matrices, len(missing)

    # -- kernels hooks (consumed by repro.core via `kernels=`) -------------

    def normalized_set(self, arrays, n_points=100, cdf="quantized"):
        """The Fig. 1-normalized set of float ``arrays``, cached under
        its ``norm-set`` key -- the one normalization both
        :meth:`event_trend_scores` and the subset evaluator's
        precompute read."""
        nkey = content_key("norm-set", tuple(arrays), n_points, cdf)
        norm = self._cached("norm-set", nkey)
        if norm is MISS:
            norm = self.cache.put(nkey, normalize_series_set(
                arrays, n_points=n_points, cdf=cdf))
        return norm

    def event_trend_scores(self, series_by_event, n_points=100, band=None,
                           normalize=True, cdf="quantized"):
        """Per-event ``TScore_z`` values (Eq. 7) for a ``{event: [series]}``
        map -- the cached replacement for the serial loop in
        :func:`repro.core.trend_score.trend_score`.

        Each event's normalized set and DTW matrix persist under their
        own ``norm-set`` and ``dtw-matrix`` entries. Every event whose
        matrix misses is filled in one :meth:`dtw_matrices` pass
        (:meth:`_dtw_matrix_entries`, as for :meth:`dtw_matrix`), so a
        cold score computes each pair the pair store lacks once,
        whichever events share it: every series that is flat at the
        quantized-CDF resolution normalizes to the same array, and its
        pairs repeat across workloads and events. Values come back in
        event order -- the Eq. 8 mean sums them in this order, and
        bit-reproducibility includes the summation order.
        """
        sets = {}
        for event, series_list in series_by_event.items():
            arrays = [np.asarray(s, dtype=float) for s in series_list]
            if len(arrays) < 2:
                continue
            if normalize:
                arrays = self.normalized_set(arrays, n_points, cdf)
            sets[event] = arrays
        dmatrices = dict(zip(sets, self._dtw_matrix_entries(
            list(sets.values()), band)))
        return {
            event: (self._tscore(dmatrices[event]) if event in dmatrices
                    else 0.0)
            for event in series_by_event
        }

    @staticmethod
    def _tscore(dmatrix):
        n = dmatrix.shape[0]
        return float(dmatrix.sum() / (n * (n - 1)))

    def pairwise_distances(self, x):
        """Cached :func:`repro.stats.distance.pairwise_distances` -- the
        silhouette distance matrix of Eq. 2-5. One call per
        :func:`~repro.core.cluster_score.cluster_score` invocation, but
        subset-candidate searches re-score identical row sets, and the
        content key makes those repeats free."""
        x = np.asarray(x, dtype=float)
        key = content_key("pairwise-distances", x)
        cached = self._cached("pairwise-distances", key)
        if cached is not MISS:
            return cached
        return self.cache.put(key, pairwise_distances(x))

    def kmeans_sweep(self, x, kseeds, n_restarts):
        """``{k: labels}`` for the Eq. 6 sweep of one ``x`` (``kseeds``
        maps each k to its seed): the hook ``cluster_score`` calls, and
        the one-x case of :meth:`kmeans_sweeps`."""
        return self._sweeps([x], kseeds, n_restarts)[0]

    def kmeans_sweeps(self, xs, kseeds, n_restarts):
        """One ``{k: labels}`` per equal-shape ``x`` of ``xs`` (a
        candidate subset's rows each), fitted in lockstep under a
        ``kernel.kmeans_lockstep`` span; ``kseeds`` come from
        :func:`~repro.core.cluster_score.sweep_seeds`."""
        with span("kernel.kmeans_lockstep", candidates=len(xs)):
            return self._sweeps(xs, kseeds, n_restarts)

    def _sweeps(self, xs, kseeds, n_restarts):
        """The sweeps of :meth:`kmeans_sweeps`. Each ``(x, k)`` entry is
        looked up once and every fit stored. At each k, two or more
        C-contiguous misses fit in one :func:`~repro.stats.kmeans.fit_stack`;
        any other miss (a lone ``x``, or a layout ``fit_stack``'s slices
        would not reproduce) fits alone by ``KMeans.fit``, one pool task
        per fit. The labels are ``KMeans.fit``'s, cache on or off."""
        xs = [np.asarray(x, dtype=float) for x in xs]
        ks = sorted(kseeds)
        keys = [[content_key("kmeans-labels", x, k, kseeds[k], n_restarts)
                 for k in ks] for x in xs]
        labels, todo = {}, {k: {} for k in ks}
        for x, row in zip(xs, keys):
            for k, key in zip(ks, row):
                if key not in labels and key not in todo[k]:
                    found = self._cached("kmeans-labels", key)
                    if found is MISS:
                        todo[k][key] = x
                    else:
                        labels[key] = found
        alone = []
        for k, pending in todo.items():
            stack = {key: x for key, x in pending.items()
                     if x.flags.c_contiguous}
            if len(stack) > 1:
                fits = fit_stack(list(stack.values()), k, kseeds[k],
                                 n_restarts)
                for key, fit in zip(stack, fits):
                    labels[key] = self.cache.put(key, fit.labels)
            alone += [(key, x, k) for key, x in pending.items()
                      if key not in labels]
        if alone:
            fits = parallel_map(
                _kmeans_task,
                [(x, k, kseeds[k], n_restarts) for _key, x, k in alone],
                self.workers, self.metrics,
            )
            for (key, _x, _k), fit in zip(alone, fits):
                labels[key] = self.cache.put(key, fit)
        return [{k: labels[key] for k, key in zip(ks, row)} for row in keys]

    # -- cached score kernels ----------------------------------------------

    @staticmethod
    def _values_of(matrix):
        if isinstance(matrix, CounterMatrix):
            return matrix.values
        return np.asarray(matrix, dtype=float)

    def cluster_score(self, matrix, seed=0, n_restarts=8, normalize=True,
                      per_cluster_average=True):
        """Cached :func:`repro.core.cluster_score.cluster_score` with the
        per-k K-means fits memoized and fanned out individually."""
        with span("kernel.cluster"):
            key = content_key(
                "cluster-score", self._values_of(matrix), seed, n_restarts,
                normalize, per_cluster_average,
            )
            cached = self._cached("cluster-score", key)
            if cached is not MISS:
                return cached
            result = core_cluster_score(
                matrix, seed=seed, n_restarts=n_restarts,
                normalize=normalize,
                per_cluster_average=per_cluster_average, kernels=self,
            )
            return self.cache.put(key, result)

    def trend_score(self, matrix_or_series, events=None, n_points=100,
                    band=None, normalize=True, cdf="quantized"):
        """Cached :func:`repro.core.trend_score.trend_score` with
        normalized sets, DTW matrices and DTW pairs memoized; each
        event's matrix computes only the pairs the pair store lacks."""
        if isinstance(matrix_or_series, CounterMatrix):
            series_by_event = matrix_or_series.series
        else:
            series_by_event = dict(matrix_or_series)
        hashable = {
            str(event): [np.asarray(s, dtype=float) for s in series_list]
            for event, series_list in series_by_event.items()
        }
        with span("kernel.trend", events=len(hashable)):
            key = content_key(
                "trend-score", hashable,
                None if events is None else tuple(str(e) for e in events),
                n_points, band, normalize, cdf,
            )
            cached = self._cached("trend-score", key)
            if cached is not MISS:
                return cached
            result = core_trend_score(
                matrix_or_series, events=events, n_points=n_points,
                band=band, normalize=normalize, cdf=cdf, kernels=self,
            )
            return self.cache.put(key, result)

    def coverage_score(self, matrix, variance=DEFAULT_VARIANCE,
                       normalize=True):
        """Cached :func:`repro.core.coverage_score.coverage_score`; the
        value *is* the memoized PCA decomposition."""
        with span("kernel.coverage"):
            key = content_key(
                "coverage-score", self._values_of(matrix), variance,
                normalize,
            )
            cached = self._cached("coverage-score", key)
            if cached is not MISS:
                return cached
            result = core_coverage_score(matrix, variance=variance,
                                         normalize=normalize)
            return self.cache.put(key, result)

    def spread_score(self, matrix, normalize=True, axis="workloads",
                     sampled=False, rng=0):
        """Cached :func:`repro.core.spread_score.spread_score`. The key
        includes the row/column names: ``per_item`` is keyed by them, so
        same values under different names must not alias."""
        if isinstance(matrix, CounterMatrix):
            names = (tuple(matrix.workloads), tuple(matrix.events))
        else:
            names = None
        with span("kernel.spread"):
            key = content_key(
                "spread-score", self._values_of(matrix), names, normalize,
                axis, sampled, rng,
            )
            cached = self._cached("spread-score", key)
            if cached is not MISS:
                return cached
            result = core_spread_score(matrix, normalize=normalize,
                                       axis=axis, sampled=sampled, rng=rng)
            return self.cache.put(key, result)

    # -- suite-level scoring -----------------------------------------------

    def score_matrix(self, matrix, config, focus_value, normalize=True):
        """All four Section III scores of one :class:`CounterMatrix`,
        through the cached kernels. Mirrors the Perspector scoring
        contract; ``details['engine']`` carries this pass's cache
        hit/miss counters."""
        with span("engine.score_matrix",
                  suite=str(matrix.suite_name or "<unnamed>")):
            return self._score_matrix(matrix, config, focus_value,
                                      normalize=normalize)

    def _score_matrix(self, matrix, config, focus_value, normalize=True):
        before = self.metrics.snapshot()
        if matrix.n_workloads >= 4:
            cluster = self.cluster_score(
                matrix, seed=config.seed, n_restarts=config.kmeans_restarts,
                normalize=normalize,
            )
            cluster_value = cluster.value
        else:
            # The Eq. 6 sweep needs k in [2, n-1]: undefined below 4
            # workloads.
            cluster = None
            cluster_value = float("nan")
        coverage = self.coverage_score(
            matrix, variance=config.pca_variance, normalize=normalize,
        )
        spread = self.spread_score(
            matrix, normalize=normalize, axis=config.spread_axis,
        )
        if matrix.has_series:
            trend = self.trend_score(
                matrix, n_points=config.trend_points, band=config.dtw_band,
            )
            trend_value = trend.value
        else:
            trend = None
            trend_value = float("nan")
        details = {
            "coverage": coverage,
            "spread": spread,
        }
        if cluster is not None:
            details["cluster"] = cluster
        if trend is not None:
            details["trend"] = trend
        details["engine"] = self._engine_details(before)
        return SuiteScorecard(
            suite_name=matrix.suite_name or "<unnamed>",
            focus=focus_value,
            cluster=cluster_value,
            trend=trend_value,
            coverage=coverage.value,
            spread=spread.value,
            details=details,
        )

    def score_matrices(self, matrices, config, focus_value, normalize=True):
        """Score several (already jointly-normalized) suite matrices,
        fanning one suite per worker when ``workers > 1``. Scorecards
        come back in input order and are bit-identical to the serial
        path: each worker runs the identical single-process engine."""
        matrices = list(matrices)
        if self.workers == 1 or len(matrices) < 2:
            return [
                self.score_matrix(m, config, focus_value,
                                  normalize=normalize)
                for m in matrices
            ]
        return parallel_map(
            _score_matrix_task,
            [(m, config, focus_value, normalize, self.cache.enabled,
              self.cache_dir)
             for m in matrices],
            self.workers, self.metrics,
        )
