"""The memoizing, parallel scoring engine.

:class:`Engine` sits between the :class:`~repro.core.perspector.Perspector`
facade and the Section III score kernels. It adds two orthogonal
capabilities without changing a single output bit:

* **Memoization** (:mod:`repro.engine.cache`): normalized series sets,
  pairwise DTW matrices *and* the individual DTW pairs inside them, PCA
  decompositions (via whole CoverageScore results) and per-k K-means
  labels are cached under content-addressed keys. Focused re-scoring,
  subset fidelity checks and repeated experiment runs hit the cache
  instead of recomputing. The missing DTW pairs of one or several
  matrices go to the kernel in one deduplicated batch
  (:meth:`Engine.dtw_matrices`).
* **Parallel fan-out** (:mod:`repro.engine.parallel`): per-event DTW
  matrices, the per-k K-means sweep and per-suite comparison scoring
  fan across a process pool when ``workers > 1``. Results are
  reassembled in input order and each element is computed by the exact
  kernel the serial path uses, so scorecards are bit-identical at any
  worker count -- a property ``repro.qa.determinism`` checks.

Determinism-under-caching hinges on one kernel-selection rule: a given
(series pair, band) always yields the same bits whatever code path
computes it. The engine dispatches DTW pairs through the one
:class:`~repro.stats.backend.ComputeBackend` record
(:func:`repro.stats.backend.kernels`), whose batched kernels are
bit-identical to one ``dtw_distance`` per pair, so mixing cached and
fresh pairs is safe whichever batch computed them.
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
from repro.engine.parallel import ParallelExecutor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.stats.backend import kernels
from repro.stats.distance import pairwise_distances
from repro.stats.dtw import validate_series_list
from repro.stats.kmeans import KMeans


# -- worker tasks (top-level so they pickle) --------------------------------


def _trend_event_task(series_list, n_points, band, normalize, cdf):
    """Normalize one event's series set (optionally) and compute its
    pairwise DTW matrix. Pure: returns everything it computed."""
    arrays = [np.asarray(s, dtype=float) for s in series_list]
    if normalize:
        norm = normalize_series_set(arrays, n_points=n_points, cdf=cdf)
    else:
        norm = validate_series_list(arrays)
    return norm, _dtw_matrix_direct(norm, band)


def _dtw_matrix_direct(arrays, band):
    """The plain (cache-free) pairwise DTW matrix over validated arrays,
    via the same kernels the cached assembly path uses."""
    arrays = validate_series_list(arrays)
    n = len(arrays)
    out = np.zeros((n, n))
    if n < 2:
        return out
    idx_i, idx_j = np.triu_indices(n, k=1)
    totals = kernels().pair_distances(arrays, idx_i, idx_j, band)
    out[idx_i, idx_j] = totals
    out[idx_j, idx_i] = totals
    return out


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


class Engine:
    """Memoizing, optionally parallel scoring engine.

    Parameters
    ----------
    cache:
        Enable the content-addressed kernel cache (results are
        bit-identical either way; the cache only buys speed).
    workers:
        Process count for the parallel fan-outs. ``1`` (default) keeps
        today's serial path with zero pool overhead; higher values run
        a *persistent* spawn pool, created lazily on the first fan-out
        and reused across every subsequent one.
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
        Pool tasks always use ``kernels()``.
    """

    def __init__(self, cache=True, workers=1, cache_dir=None, backend=None):
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
        self.executor = ParallelExecutor(workers=workers,
                                         metrics=self.metrics)
        #: Digests seen in any cached DTW pair -- lets
        #: :meth:`_any_pair_cached` answer "fully cold" in O(1) instead
        #: of hashing O(n^2) candidate keys per trend call.
        self._pair_digests = set()

    @property
    def workers(self):
        return self.executor.workers

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

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Shut the worker pool down (idempotent; also runs at
        gc/interpreter exit via the executor's finalizer, so forgetting
        it leaks nothing)."""
        self.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- bookkeeping -------------------------------------------------------

    def stats(self):
        """Cache hit/miss counters (:class:`~repro.engine.cache.CacheStats`)."""
        return self.cache.stats()

    def clear(self):
        """Drop all in-memory cached kernel results (the disk tier, if
        any, is content-addressed and needs no invalidation)."""
        self.cache.clear()
        self._pair_digests.clear()

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
        """Cached pairwise DTW matrix.

        Misses are filled at pair granularity: any pair already known --
        from a previous full-matrix computation over a superset, or an
        earlier identical subset -- is reused, and only the genuinely
        new pairs are computed (batched, when fast-path eligible).
        """
        arrays = validate_series_list(series)
        mkey = content_key("dtw-matrix", tuple(arrays), band)
        cached = self._cached("dtw-matrix", mkey)
        if cached is not MISS:
            return cached
        return self._fill_dtw_matrix(arrays, mkey, band)

    def _fill_dtw_matrix(self, arrays, mkey, band):
        """Compute (reusing cached pairs) and store the matrix of
        validated ``arrays`` whose ``mkey`` lookup missed."""
        digests = [array_digest(a) for a in arrays]
        (out,), _computed = self.dtw_matrices([(arrays, digests)], band)
        return self.cache.put(mkey, out)

    def dtw_matrices(self, sets, band=None):
        """Pairwise DTW matrices of several series sets, from at most
        one kernel call.

        ``sets`` holds ``(arrays, digests)`` pairs: validated series and
        their :func:`~repro.engine.cache.array_digest`, which the caller
        computes once (the subset evaluator memoizes them per series).
        Pairs already in the pair store are reused; the missing ones are
        deduplicated by :func:`~repro.engine.cache.pair_key` across all
        sets, so each distinct pair reaches the kernel once, and go to
        one ``pair_distances`` call. The kernel is elementwise over the
        pair axis, so no bit depends on the batching -- as long as the
        batch takes the same kernel path each set would alone, which is
        why several sets must share one 1-D length (the equal-length
        fast path is chosen per call).

        Returns
        -------
        (list[numpy.ndarray], int)
            One symmetric matrix per set, and how many pairs the kernel
            computed.
        """
        if len(sets) > 1:
            lengths = {a.shape for arrays, _digests in sets for a in arrays}
            if len(lengths) > 1 or any(len(shape) != 1 for shape in lengths):
                raise ValueError(
                    "dtw_matrices batches several sets only over 1-D "
                    f"series of one length, got shapes {sorted(lengths)}"
                )
        # Every distinct series of the batch rides along, not only those
        # in missing pairs: for one set this is the argument list
        # dtw_matrix always passed, so the kernel path cannot change.
        rows, row_of = [], {}
        known, missing = {}, {}
        set_keys = []
        for arrays, digests in sets:
            for a, d in zip(arrays, digests):
                if d not in row_of:
                    row_of[d] = len(rows)
                    rows.append(a)
            n = len(arrays)
            keys = []
            for i in range(n):
                for j in range(i + 1, n):
                    key = pair_key(digests[i], digests[j], band)
                    keys.append(key)
                    if key in known or key in missing:
                        continue
                    # Pair entries stay memory-only (disk=False): one
                    # file per float would drown the disk tier, and the
                    # matrices above them persist.
                    value = self.cache.lookup(key, disk=False)
                    if value is MISS:
                        missing[key] = (row_of[digests[i]],
                                        row_of[digests[j]])
                    else:
                        known[key] = value
            set_keys.append(keys)
            self._pair_digests.update(digests)
        if missing:
            idx = np.array(list(missing.values())).reshape(-1, 2)
            fresh = self.backend.pair_distances(rows, idx[:, 0], idx[:, 1],
                                                band)
            for key, value in zip(missing, fresh):
                known[key] = self.cache.put(key, float(value), disk=False)
        matrices = []
        for (arrays, _digests), keys in zip(sets, set_keys):
            n = len(arrays)
            out = np.zeros((n, n))
            if n > 1:
                idx_i, idx_j = np.triu_indices(n, k=1)
                values = [known[key] for key in keys]
                out[idx_i, idx_j] = values
                out[idx_j, idx_i] = values
            matrices.append(out)
        return matrices, len(missing)

    def dtw_pair(self, a, b, band=None):
        """Cached DTW distance of one pair, sharing the pair store with
        :meth:`dtw_matrix` (and computed by the same kernel family)."""
        arrays = validate_series_list([a, b])
        digests = [array_digest(s) for s in arrays]
        pkey = pair_key(digests[0], digests[1], band)
        value = self.cache.lookup(pkey, disk=False)
        if value is not MISS:
            return value
        value = float(self.backend.pair_distances(
            arrays, np.array([0]), np.array([1]), band,
        )[0])
        self._pair_digests.update(digests)
        return self.cache.put(pkey, value, disk=False)

    def _store_trend_event(self, nkey, norm, band, dmatrix):
        """Merge one worker-computed trend-event result into the cache:
        the normalized set, the matrix, and every individual pair."""
        if nkey is not None:
            self.cache.put(nkey, norm)
        digests = [array_digest(a) for a in norm]
        n = len(norm)
        for i in range(n):
            for j in range(i + 1, n):
                self.cache.put(pair_key(digests[i], digests[j], band),
                               float(dmatrix[i, j]), disk=False)
        self._pair_digests.update(digests)
        self.cache.put(
            content_key("dtw-matrix", tuple(norm), band), dmatrix,
        )

    # -- kernels hooks (consumed by repro.core via `kernels=`) -------------

    def event_trend_scores(self, series_by_event, n_points=100, band=None,
                           normalize=True, cdf="quantized"):
        """Per-event ``TScore_z`` values (Eq. 7) for a ``{event: [series]}``
        map -- the cached/parallel replacement for the serial loop in
        :func:`repro.core.trend_score.trend_score`.

        Events whose normalized set (or DTW matrix) is cached are served
        in-process; the rest fan out across the worker pool as whole
        normalize-plus-DTW tasks, merged back in event order.
        """
        events = list(series_by_event)
        values = {}
        pending = []
        for event in events:
            arrays = [
                np.asarray(s, dtype=float) for s in series_by_event[event]
            ]
            if len(arrays) < 2:
                values[event] = 0.0
                continue
            if normalize:
                nkey = content_key("norm-set", tuple(arrays), n_points, cdf)
                norm = self._cached("norm-set", nkey)
            else:
                nkey, norm = None, validate_series_list(arrays)
            if norm is MISS:
                # Nothing cached for this event: whole task to the pool.
                pending.append((event, arrays, nkey, True))
                continue
            mkey = content_key("dtw-matrix", tuple(norm), band)
            # Memory, then disk: a disk-warm run reads the matrix back
            # instead of recomputing every pair.
            dmatrix = self._cached("dtw-matrix", mkey)
            if dmatrix is MISS:
                if not self._any_pair_cached(norm, band):
                    # Normalization known but DTW entirely cold: the
                    # matrix is the expensive half, so it still goes to
                    # the pool.
                    pending.append((event, norm, None, False))
                    continue
                dmatrix = self._fill_dtw_matrix(
                    validate_series_list(norm), mkey, band)
            values[event] = self._tscore(dmatrix)
        if pending:
            results = self.executor.map(
                _trend_event_task,
                [(tuple(arrays), n_points, band, do_norm, cdf)
                 for (_event, arrays, _nkey, do_norm) in pending],
            )
            for (event, _arrays, nkey, _do_norm), (norm, dmatrix) in zip(
                    pending, results):
                self._store_trend_event(nkey, norm, band, dmatrix)
                values[event] = self._tscore(dmatrix)
        # Rebuild in event order: the Eq. 8 mean sums the values in this
        # order, and bit-reproducibility includes the summation order.
        return {event: values[event] for event in events}

    def _any_pair_cached(self, arrays, band):
        """Whether any DTW pair over ``arrays`` is already cached -- the
        inline-vs-pool routing heuristic for a trend event.

        Routing only affects *where* a matrix is computed, never its
        bits, so this may be cheap: the ``_pair_digests`` index answers
        the common fully-cold case in O(1) (the old implementation
        digested every series and hashed O(n^2) candidate keys per
        call even when the cache was empty), digests are computed once
        per call, and only pairs whose *both* digests have ever been
        stored are worth a key hash + peek."""
        if not self.cache.enabled or not self._pair_digests:
            return False
        digests = [array_digest(a) for a in arrays]
        known = [d for d in digests if d in self._pair_digests]
        if len(known) < 2:
            return False
        return any(
            self.cache.peek(pair_key(known[i], known[j], band)) is not MISS
            for i in range(len(known)) for j in range(i + 1, len(known))
        )

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
        """``{k: labels}`` for the Eq. 6 sweep -- the cached/parallel
        replacement for the per-k loop in
        :func:`repro.core.cluster_score.cluster_score`. ``kseeds`` maps
        each k to the seed the serial loop would have drawn for it."""
        x = np.asarray(x, dtype=float)
        ks = sorted(kseeds)
        labels_by_k = {}
        pending = []
        for k in ks:
            key = content_key("kmeans-labels", x, k, kseeds[k], n_restarts)
            labels = self._cached("kmeans-labels", key)
            if labels is MISS:
                pending.append((k, key))
            else:
                labels_by_k[k] = labels
        if pending:
            results = self.executor.map(
                _kmeans_task,
                [(x, k, kseeds[k], n_restarts) for k, _key in pending],
            )
            for (k, key), labels in zip(pending, results):
                labels_by_k[k] = self.cache.put(key, labels)
        return labels_by_k

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
        normalized sets, DTW matrices and DTW pairs memoized and
        per-event work fanned out."""
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
        return self.executor.map(
            _score_matrix_task,
            [(m, config, focus_value, normalize, self.cache.enabled,
              self.cache_dir)
             for m in matrices],
        )
