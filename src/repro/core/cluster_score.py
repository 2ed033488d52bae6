"""ClusterScore: the diversity metric (Section III-A, Eq. 1-6).

The benchmarks of a good suite should *not* cluster: if K-means finds
well-separated clusters in the normalized counter matrix, several
benchmarks are measuring the same thing. The score is the mean silhouette
score over every cluster count k from 2 to n-1 (Eq. 6); **lower is
better** (0 would mean no cluster structure at all, 1 perfectly tight
redundant clusters, negative values mean K-means had to split genuinely
uniform data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matrix import CounterMatrix
from repro.core.normalization import normalize_matrix
from repro.stats.distance import pairwise_distances
from repro.stats.kmeans import KMeans
from repro.stats.silhouette import silhouette_score


@dataclass(frozen=True)
class ClusterScoreResult:
    """ClusterScore plus its per-k decomposition.

    Attributes
    ----------
    value:
        The Eq. 6 average. Lower is better.
    per_k:
        ``{k: S(W)_k}`` -- the Eq. 5 silhouette at each cluster count.
    best_k:
        The k with the highest silhouette (the "natural" cluster count;
        useful diagnostics when a suite does cluster).
    labels_at_best_k:
        K-means labels at ``best_k`` (for Fig. 4-style plots).
    """

    value: float
    per_k: dict
    best_k: int
    labels_at_best_k: np.ndarray

    def __format__(self, spec):
        return format(self.value, spec)


def sweep_seeds(n, seed):
    """``{k: seed}`` for the Eq. 6 sweep over ``k`` in ``2..n-1``, drawn
    up front from one ``default_rng(seed)`` stream in ``k`` order -- the
    seeds every path that fits an ``n``-row sweep uses (the serial loop,
    the cached/parallel ``kmeans_sweep`` hook and the engine's lockstep
    ``kmeans_sweeps``)."""
    rng = np.random.default_rng(seed)
    return {k: int(rng.integers(2 ** 31)) for k in range(2, n)}


def cluster_score(matrix, seed=0, n_restarts=8, normalize=True,
                  per_cluster_average=True, kernels=None):
    """Compute the ClusterScore of a suite (Eq. 6).

    Parameters
    ----------
    matrix:
        :class:`CounterMatrix` or plain ``(n, m)`` ndarray of counter
        totals.
    seed:
        K-means seed (the score sweeps k with a shared RNG stream).
    n_restarts:
        K-means++ restarts per k.
    normalize:
        Min-max normalize the matrix first (the paper always does; turn
        off only if the input is already normalized).
    per_cluster_average:
        Use the paper's Eq. 5 cluster-weighted silhouette (default) or
        the conventional sample-weighted mean (ablation knob).
    kernels:
        Optional kernel provider with ``kmeans_sweep`` and (optionally)
        ``pairwise_distances`` hooks (see :class:`repro.engine.Engine`);
        replaces the serial per-k K-means loop with a cached/parallel
        one and memoizes the silhouette distance matrix across the
        sweep and across repeated calls. The per-k seeds are drawn from
        one stream (:func:`sweep_seeds`), every fit equals
        ``KMeans.fit`` bit for bit and the distance kernel is the same
        either way, so results are bit-identical.

    Returns
    -------
    ClusterScoreResult
    """
    if isinstance(matrix, CounterMatrix):
        x = matrix.values
    else:
        x = np.asarray(matrix, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {x.shape}")
    n = x.shape[0]
    if n < 4:
        raise ValueError(
            f"ClusterScore needs at least 4 workloads (k sweeps 2..n-1), "
            f"got {n}"
        )
    if normalize:
        x = normalize_matrix(x)

    distances = getattr(kernels, "pairwise_distances",
                        pairwise_distances)(x)
    # Per-k seeds come from one stream drawn up front, so a cached or
    # parallel sweep (the `kernels` hook) sees the exact seeds the
    # serial loop would.
    kseeds = sweep_seeds(n, seed)
    if kernels is not None:
        labels_by_k = kernels.kmeans_sweep(x, kseeds, n_restarts)
    else:
        labels_by_k = {
            k: KMeans(k=k, seed=kseed, n_restarts=n_restarts).fit(x).labels
            for k, kseed in kseeds.items()
        }
    return silhouette_sweep(x, distances, labels_by_k, per_cluster_average)


def silhouette_sweep(x, distances, labels_by_k, per_cluster_average=True):
    """The :class:`ClusterScoreResult` of a fitted Eq. 6 sweep
    (``{k: labels}``): each k's Eq. 5 silhouette over ``distances`` and
    their mean, in ascending k. The one loop :func:`cluster_score` and
    the subset evaluator's lockstep-fitted candidates both end in."""
    per_k, best_k, best_score, best_labels = {}, 2, -np.inf, None
    for k in sorted(labels_by_k):
        labels = labels_by_k[k]
        per_k[k] = score = silhouette_score(
            x, labels, precomputed_distances=distances,
            per_cluster=per_cluster_average,
        )
        if score > best_score:
            best_k, best_score, best_labels = k, score, labels
    return ClusterScoreResult(
        value=float(np.mean(list(per_k.values()))),
        per_k=per_k,
        best_k=best_k,
        labels_at_best_k=best_labels,
    )
