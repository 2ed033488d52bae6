"""K-means clustering.

The ClusterScore (Section III-A of the paper) clusters the normalized
counter matrix with K-means [24] and grades the clustering with the
silhouette score. This module provides the clustering half:

* k-means++ seeding (D^2-weighted sampling), the standard defence against
  poor random initial centroids;
* Lloyd's iterations with an explicit convergence tolerance;
* multiple restarts keeping the lowest-inertia solution, so the downstream
  silhouette values are stable across runs;
* deterministic behaviour under an explicit seed, which the experiment
  harness relies on.

Empty clusters -- likely here because benchmark-suite matrices are tiny
(tens of rows) -- are repaired by reseeding the empty centroid at the point
farthest from its assigned centroid.

All restarts of one fit advance in lockstep as stacked arrays, and the
result is bit-identical to running them one at a time (the per-restart
loop is kept as the oracle in ``tests/test_stats_kmeans.py``). Why:

* **Distances.** Each slice of the stacked ``x @ C.transpose(0, 2, 1)``
  is the same BLAS call, with the same operand shapes and strides, that
  ``cdist(x, c, "sqeuclidean")`` makes per restart; BLAS results are
  shape-dependent at the ULP level, so the shapes are kept, never merged
  across restarts. The row norms ``xx`` are the same ``sum(x * x,
  axis=1)`` of the same ``x``, computed once per fit.
* **Draw order.** The serial fit draws, per restart, ``integers(n)``
  and then one ``random()`` inside each ``rng.choice(n, p=...)``. The
  lockstep seeding takes exactly those draws up front, in that order,
  and replays ``choice``'s own arithmetic on them (see
  :func:`_d2_pick`), so the picks and the generator state after the fit
  match. The one branch that draws differently -- every point already
  covered, ``integers(n)`` instead of ``random()`` -- only occurs with
  repeated rows; then the generator is rewound and every restart is
  seeded serially.
* **Centroid means.** ``members.mean(axis=0)`` on a ``(m, d)`` block
  with ``d >= 2`` adds rows one by one from ``+0.0``, which is what
  ``np.add.at`` does over all restarts at once. With a single column
  numpy coalesces the block to 1-D and sums it pairwise, so ``add.at``
  would differ in the last bit; that case keeps the per-cluster mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a K-means run.

    Attributes
    ----------
    labels:
        Cluster index per input row, shape ``(n_samples,)``.
    centroids:
        Final centroids, shape ``(k, n_features)``.
    inertia:
        Sum of squared distances of samples to their assigned centroid.
    n_iter:
        Lloyd iterations executed by the best restart.
    converged:
        Whether the best restart met the tolerance before ``max_iter``.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    n_iter: int
    converged: bool

    @property
    def k(self):
        """Number of clusters."""
        return int(self.centroids.shape[0])

    def cluster_sizes(self):
        """Number of points assigned to each cluster, shape ``(k,)``."""
        return np.bincount(self.labels, minlength=self.k)


def _sq_dists(x, xx, c):
    """Squared distances from the rows of ``x`` to stacked centroids.

    ``c`` is ``(restarts, m, d)``; the result is ``(restarts, n, m)``.
    Each slice is :func:`~repro.stats.distance.cdist`'s ``sqeuclidean``
    expression on the same operands, with the row norms ``xx`` computed
    once per fit and no per-call validation.
    """
    cc = np.sum(c * c, axis=2)[:, None, :]
    sq = xx + cc - 2.0 * (x @ c.transpose(0, 2, 1))
    np.maximum(sq, 0.0, out=sq)
    return sq


def _d2_pick(closest, u):
    """``rng.choice(n, p=closest / total)`` per row, given its uniform ``u``.

    Generator.choice's own steps: ``cdf = p.cumsum(); cdf /= cdf[-1]``,
    then ``searchsorted(u, side="right")``, which on a non-decreasing
    ``cdf`` is the count of entries ``<= u``. A non-finite total is where
    ``choice`` rejects ``p``, so it raises here too.
    """
    total = closest.sum(axis=1)
    if not np.all(np.isfinite(total)):
        raise ValueError("k-means++ weights are not finite")
    cdf = (closest / total[:, None]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def _seed_one(x, xx, k, rng):
    """k-means++ seeding for one restart, drawing as it goes.

    Returns the ``k`` chosen row indices. When every point coincides
    with a chosen centroid (``total <= 0``) the next index is uniform,
    drawn with ``integers`` instead of ``random``.
    """
    n = x.shape[0]
    idx = [int(rng.integers(n))]
    closest = _sq_dists(x, xx, x[idx][None])[:, :, 0]
    for _ in range(1, k):
        if closest.sum() <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(_d2_pick(closest, np.array([rng.random()]))[0])
        idx.append(pick)
        new_sq = _sq_dists(x, xx, x[[pick]][None])[:, :, 0]
        np.minimum(closest, new_sq, out=closest)
    return idx


def _seed(x, xx, k, n_restarts, rng):
    """k-means++ seeding (D^2-weighted) for every restart in lockstep.

    Every restart's draws are taken up front in the serial order --
    ``integers(n)`` for the first centroid, then one ``random()`` per
    D^2 step -- so the stream and the final generator state match
    seeding the restarts one at a time. Only the all-covered branch
    draws differently; if any restart reaches it, the generator is
    rewound and every restart is seeded serially instead.

    Returns the ``(n_restarts, k, d)`` initial centroids.
    """
    n = x.shape[0]
    state = rng.bit_generator.state
    first = np.empty(n_restarts, dtype=int)
    u = np.empty((n_restarts, k - 1))
    for r in range(n_restarts):
        first[r] = rng.integers(n)
        u[r] = rng.random(k - 1)
    idx = np.empty((n_restarts, k), dtype=int)
    idx[:, 0] = first
    closest = _sq_dists(x, xx, x[first][:, None, :])[:, :, 0]
    for i in range(1, k):
        total = closest.sum(axis=1)
        if not np.all(np.isfinite(total) & (total > 0)):
            rng.bit_generator.state = state
            return x[[_seed_one(x, xx, k, rng) for _ in range(n_restarts)]]
        idx[:, i] = _d2_pick(closest, u[:, i - 1])
        new_sq = _sq_dists(x, xx, x[idx[:, i]][:, None, :])[:, :, 0]
        np.minimum(closest, new_sq, out=closest)
    return x[idx]


def _centroid_means(x, labels, k):
    """Per-restart cluster means ``(restarts, k, d)`` and the empty mask.

    ``np.add.at`` adds member rows in index order, which is how
    ``members.mean(axis=0)`` reduces a ``(m, d)`` block for ``d >= 2``,
    from the same ``+0.0`` start (so ``-0.0`` members sum to ``+0.0``). A
    single column is reduced pairwise by ``mean``, so that case keeps
    the per-cluster ``mean``. Empty clusters' rows are left unset.
    """
    restarts, n = labels.shape
    d = x.shape[1]
    groups = (np.arange(restarts)[:, None] * k + labels).ravel()
    counts = np.bincount(groups, minlength=restarts * k)
    empty = (counts == 0).reshape(restarts, k)
    if d == 1:
        means = np.empty((restarts, k, 1))
        for r, j in zip(*np.nonzero(~empty)):
            means[r, j] = x[labels[r] == j].mean(axis=0)
        return means, empty
    sums = np.zeros((restarts * k, d))
    np.add.at(sums, groups, np.broadcast_to(x, (restarts, n, d)).reshape(-1, d))
    means = sums / np.maximum(counts, 1)[:, None]
    return means.reshape(restarts, k, d), empty


def _lloyd(x, xx, centroids, max_iter, tol):
    """Lloyd's algorithm for stacked restarts, advancing in lockstep.

    A restart that meets the tolerance is frozen with its own ``n_iter``
    and ``converged``; the others keep iterating. Returns per-restart
    labels ``(restarts, n)``, centroids, inertias, ``n_iter`` and
    ``converged`` arrays.
    """
    restarts = centroids.shape[0]
    centroids = centroids.copy()
    n_iter = np.full(restarts, max(max_iter, 0))
    converged = np.zeros(restarts, dtype=bool)
    live = np.arange(restarts)
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        current = centroids[live]
        dists = _sq_dists(x, xx, current)
        labels = np.argmin(dists, axis=2)
        new, empty = _centroid_means(x, labels, current.shape[1])
        if empty.any():
            # Repair: move an empty centroid to the point currently
            # worst-served by its centroid.
            worst = np.argmax(np.min(dists, axis=2), axis=1)
            rows, _ = np.nonzero(empty)
            new[empty] = x[worst[rows]]
        if not np.all(np.isfinite(new)):
            raise ValueError("centroids contain non-finite values")
        shift = np.sqrt(np.sum(((new - current) ** 2).reshape(live.size, -1),
                               axis=1))
        centroids[live] = new
        done = shift <= tol
        n_iter[live[done]] = it
        converged[live[done]] = True
        live = live[~done]
    dists = _sq_dists(x, xx, centroids)
    labels = np.argmin(dists, axis=2)
    inertia = np.take_along_axis(dists, labels[:, :, None], axis=2)[:, :, 0]
    return labels, centroids, inertia.sum(axis=1), n_iter, converged


@dataclass
class KMeans:
    """Configurable K-means estimator.

    Parameters
    ----------
    k:
        Number of clusters. Must satisfy ``1 <= k <= n_samples``.
    n_restarts:
        Independent k-means++ initializations; the lowest-inertia solution
        wins.
    max_iter:
        Iteration cap per restart.
    tol:
        Centroid-shift (Frobenius) convergence threshold.
    seed:
        Seed for the internal :class:`numpy.random.Generator`. Defaults
        to 0 so an unconfigured KMeans is still deterministic.
    """

    k: int
    n_restarts: int = 8
    max_iter: int = 300
    tol: float = 1e-9
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {self.n_restarts}")
        self._rng = np.random.default_rng(self.seed)

    def fit(self, x):
        """Cluster the rows of ``x``.

        Returns
        -------
        KMeansResult
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        n = x.shape[0]
        if n < self.k:
            raise ValueError(f"cannot form {self.k} clusters from {n} samples")
        if self.k == 1:
            centroid = x.mean(axis=0, keepdims=True)
            inertia = float(np.sum((x - centroid) ** 2))
            return KMeansResult(
                labels=np.zeros(n, dtype=int),
                centroids=centroid,
                inertia=inertia,
                n_iter=0,
                converged=True,
            )

        if not np.all(np.isfinite(x)):
            raise ValueError("x contains non-finite values")

        xx = np.sum(x * x, axis=1)[:, None]
        init = _seed(x, xx, self.k, self.n_restarts, self._rng)
        labels, centroids, inertia, n_iter, converged = _lloyd(
            x, xx, init, self.max_iter, self.tol
        )
        best = 0
        for r in range(1, self.n_restarts):
            if inertia[r] < inertia[best]:
                best = r
        return KMeansResult(
            labels=labels[best].copy(),
            centroids=centroids[best].copy(),
            inertia=float(inertia[best]),
            n_iter=int(n_iter[best]),
            converged=bool(converged[best]),
        )


def kmeans(x, k, seed=0, n_restarts=8):
    """Functional shorthand for ``KMeans(k, ...).fit(x)``."""
    return KMeans(k=k, seed=seed, n_restarts=n_restarts).fit(x)
