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

All restarts of one fit advance in lockstep as stacked arrays, and so
do the fits of many candidates at one k (:func:`fit_stack`): the
stacked axis is (candidate x restart), with one ``x`` per slice, and
:meth:`KMeans.fit` is the one-candidate case, its ``x`` shared by every
restart. The result is bit-identical to running every restart of every
candidate one at a time (the per-restart loop is kept as the oracle in
``tests/test_stats_kmeans.py``). Why:

* **Distances.** Each slice of the stacked ``x @ C.transpose(0, 2, 1)``
  is the same BLAS call, with the same operand shapes and strides, that
  ``cdist(x, c, "sqeuclidean")`` makes per restart; BLAS results are
  shape-dependent at the ULP level, so the shapes are kept, never merged
  across slices. A shared ``x`` is ``x[None]``, with its own strides;
  :func:`fit_stack` stacks its candidates C-contiguously, so each slice
  has the layout of a C-contiguous ``x``. The row norms ``xx`` are the
  same ``sum(x * x)`` per row of the same ``x``, computed once per fit.
* **Draw order.** The serial fit draws, per restart, ``integers(n)``
  and then one ``random()`` inside each ``rng.choice(n, p=...)``. The
  lockstep seeding takes exactly those draws up front, in that order,
  and replays ``choice``'s own arithmetic on them (see
  :func:`_d2_pick`), so the picks and the generator state after the fit
  match. Every candidate of :func:`fit_stack` starts from a fresh
  generator with the same seed, so the draws are taken once and shared.
  The one branch that draws differently -- every point already
  covered, ``integers(n)`` instead of ``random()`` -- only occurs with
  repeated rows; such a slice leaves the lockstep, and then
  :meth:`KMeans.fit` rewinds the generator and seeds every restart
  serially, while :func:`fit_stack` fits that candidate alone with
  :meth:`KMeans.fit` and keeps the others in lockstep.
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
    """Squared distances from each slice's rows to its stacked centroids.

    ``x`` is ``(S, n, d)`` with its row norms ``xx`` ``(S, n, 1)``, and
    ``c`` is ``(B, m, d)``; the result is ``(B, n, m)``. ``S`` is 1 (one
    ``x`` shared by every slice) or ``B`` (one ``x`` per slice). Each
    slice is :func:`~repro.stats.distance.cdist`'s ``sqeuclidean``
    expression on the same operands, with the row norms computed once
    per fit and no per-call validation.
    """
    cc = np.sum(c * c, axis=2)[:, None, :]
    sq = xx + cc - 2.0 * (x @ c.transpose(0, 2, 1))
    np.maximum(sq, 0.0, out=sq)
    return sq


def _seed_sq(x, xx, rows):
    """``(B, n)`` squared distances from each slice's rows to its one
    new seed ``rows[b]`` (``rows`` is ``(B, d)``): :func:`_sq_dists`,
    except that a row equal to the seed is exactly 0. The expansion can
    leave a rounding residue there (8.9e-16), which would give the
    seed's copies D^2 weight and let k-means++ seed twice on one point.
    """
    sq = _sq_dists(x, xx, rows[:, None, :])[:, :, 0]
    sq[(x == rows[:, None, :]).all(axis=-1)] = 0.0
    return sq


def _row_norms(x):
    """``sum(x * x)`` per row of an ``(S, n, d)`` stack, as ``(S, n, 1)``."""
    return np.sum(x * x, axis=2)[:, :, None]


def _slices(a, which):
    """Slices ``which`` (ascending) of a per-slice stack, without a copy
    when that is every slice; a shared ``(1, ...)`` stack serves every
    slice as it is."""
    return a if a.shape[0] in (1, which.size) else a[which]


def _rows(x, idx):
    """Row ``idx[b]`` of slice ``b``'s ``x``: ``(B,)`` indices give
    ``(B, d)``, ``(B, k)`` give ``(B, k, d)``."""
    if x.shape[0] == 1:
        return x[0, idx]
    slots = np.arange(idx.shape[0])
    return x[slots[:, None] if idx.ndim == 2 else slots, idx]


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
    """k-means++ seeding for one restart of one ``(n, d)`` ``x``, drawing
    as it goes.

    Returns the ``k`` chosen row indices. When every point coincides
    with a chosen centroid (``total <= 0``) the next index is uniform,
    drawn with ``integers`` instead of ``random``.
    """
    n = x.shape[0]
    idx = [int(rng.integers(n))]
    closest = _seed_sq(x, xx, x[idx])
    for _ in range(1, k):
        if closest.sum() <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(_d2_pick(closest, np.array([rng.random()]))[0])
        idx.append(pick)
        np.minimum(closest, _seed_sq(x, xx, x[[pick]]), out=closest)
    return idx


def _draws(rng, n, k, n_restarts):
    """Every restart's seeding draws in the serial order: per restart,
    ``integers(n)`` for the first centroid, then one ``random()`` per
    D^2 step. Returns ``first`` ``(n_restarts,)`` and ``u``
    ``(n_restarts, k - 1)``."""
    first = np.empty(n_restarts, dtype=int)
    u = np.empty((n_restarts, k - 1))
    for r in range(n_restarts):
        first[r] = rng.integers(n)
        u[r] = rng.random(k - 1)
    return first, u


def _seed(x, xx, k, first, u):
    """k-means++ seeding (D^2-weighted) for every slice in lockstep.

    Slice ``b`` starts at row ``first[b]`` of its ``x`` and takes its
    D^2 steps with the uniforms ``u[b]``, as serial seeding from those
    draws would. A slice that reaches the branch serial seeding draws
    differently for -- every point already covered -- or whose weights
    are not finite is dropped from the lockstep and flagged.

    Returns the ``(B, k)`` chosen row indices and the ``(B,)`` mask of
    slices seeded in lockstep; a flagged slice's indices are unset.
    """
    idx = np.zeros((first.shape[0], k), dtype=int)
    idx[:, 0] = first
    live = np.arange(first.shape[0])
    ok = np.ones(first.shape[0], dtype=bool)
    closest = _seed_sq(x, xx, _rows(x, first))
    for i in range(1, k):
        total = closest.sum(axis=1)
        good = np.isfinite(total) & (total > 0)
        if not good.all():
            ok[live[~good]] = False
            live, closest = live[good], closest[good]
            if live.size == 0:
                break
        idx[live, i] = _d2_pick(closest, u[live, i - 1])
        xl = _slices(x, live)
        new_sq = _seed_sq(xl, _slices(xx, live), _rows(xl, idx[live, i]))
        np.minimum(closest, new_sq, out=closest)
    return idx, ok


def _centroid_means(x, labels, k):
    """Per-slice cluster means ``(B, k, d)`` and the empty mask.

    ``np.add.at`` adds member rows in index order, which is how
    ``members.mean(axis=0)`` reduces a ``(m, d)`` block for ``d >= 2``,
    from the same ``+0.0`` start (so ``-0.0`` members sum to ``+0.0``). A
    single column is reduced pairwise by ``mean``, so that case keeps
    the per-cluster ``mean``. Empty clusters' rows are left unset.
    """
    slices, n = labels.shape
    d = x.shape[2]
    groups = (np.arange(slices)[:, None] * k + labels).ravel()
    counts = np.bincount(groups, minlength=slices * k)
    empty = (counts == 0).reshape(slices, k)
    if d == 1:
        means = np.empty((slices, k, 1))
        for b, j in zip(*np.nonzero(~empty)):
            xb = x[b if x.shape[0] > 1 else 0]
            means[b, j] = xb[labels[b] == j].mean(axis=0)
        return means, empty
    sums = np.zeros((slices * k, d))
    np.add.at(sums, groups, np.broadcast_to(x, (slices, n, d)).reshape(-1, d))
    means = sums / np.maximum(counts, 1)[:, None]
    return means.reshape(slices, k, d), empty


def _lloyd(x, xx, centroids, max_iter, tol):
    """Lloyd's algorithm for stacked slices, advancing in lockstep.

    ``x``/``xx`` are shared or per-slice stacks (see :func:`_sq_dists`)
    and ``centroids`` the ``(B, k, d)`` starting points. A slice that
    meets the tolerance is frozen with its own ``n_iter`` and
    ``converged``; the others keep iterating. Returns per-slice labels
    ``(B, n)``, centroids, inertias, ``n_iter`` and ``converged`` arrays.
    """
    slices = centroids.shape[0]
    centroids = centroids.copy()
    n_iter = np.full(slices, max(max_iter, 0))
    converged = np.zeros(slices, dtype=bool)
    live = np.arange(slices)
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        current = _slices(centroids, live)
        xl = _slices(x, live)
        dists = _sq_dists(xl, _slices(xx, live), current)
        labels = np.argmin(dists, axis=2)
        new, empty = _centroid_means(xl, labels, current.shape[1])
        if empty.any():
            # Repair: move an empty centroid to the point currently
            # worst-served by its centroid.
            worst = np.argmax(np.min(dists, axis=2), axis=1)
            rows, _ = np.nonzero(empty)
            new[empty] = _rows(xl, worst)[rows]
        if not np.all(np.isfinite(new)):
            raise ValueError("centroids contain non-finite values")
        step = new - current
        step *= step
        shift = np.sqrt(np.sum(step.reshape(live.size, -1), axis=1))
        centroids[live] = new
        done = shift <= tol
        n_iter[live[done]] = it
        converged[live[done]] = True
        live = live[~done]
    dists = _sq_dists(x, xx, centroids)
    labels = np.argmin(dists, axis=2)
    inertia = np.take_along_axis(dists, labels[:, :, None], axis=2)[:, :, 0]
    return labels, centroids, inertia.sum(axis=1), n_iter, converged


def _best(fits, first, n_restarts):
    """The lowest-inertia restart among slices ``first .. first +
    n_restarts - 1`` of :func:`_lloyd`'s arrays (first-found wins ties),
    as a :class:`KMeansResult`."""
    labels, centroids, inertia, n_iter, converged = fits
    best = first
    for r in range(first + 1, first + n_restarts):
        if inertia[r] < inertia[best]:
            best = r
    return KMeansResult(
        labels=labels[best].copy(),
        centroids=centroids[best].copy(),
        inertia=float(inertia[best]),
        n_iter=int(n_iter[best]),
        converged=bool(converged[best]),
    )


def _check_x(x, k):
    if x.shape[-2] < k:
        raise ValueError(
            f"cannot form {k} clusters from {x.shape[-2]} samples"
        )
    if k > 1 and not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite values")


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
        _check_x(x, self.k)
        n = x.shape[0]
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

        # One x shared by every restart: x[None] keeps its strides, so
        # each restart's product sees this x's own layout.
        xs = x[None]
        xx = _row_norms(xs)
        state = self._rng.bit_generator.state
        first, u = _draws(self._rng, n, self.k, self.n_restarts)
        idx, ok = _seed(xs, xx, self.k, first, u)
        if ok.all():
            init = _rows(xs, idx)
        else:
            self._rng.bit_generator.state = state
            init = x[[_seed_one(x, xx[0], self.k, self._rng)
                      for _ in range(self.n_restarts)]]
        fits = _lloyd(xs, xx, init, self.max_iter, self.tol)
        return _best(fits, 0, self.n_restarts)


#: Most slices (candidate x restart) one lockstep pass stacks: bounds
#: the pass's temporaries. 64 candidates of 8 x 14 rows at k = 2..7 peak
#: at 0.8 MB in blocks of 128 slices against 2.9 MB in one block, in the
#: same time (in-process, tracemalloc).
MAX_SLICES = 128


def fit_stack(xs, k, seed=0, n_restarts=8, max_iter=300, tol=1e-9):
    """``KMeans(k, n_restarts, max_iter, tol, seed).fit(x)`` for every
    ``x`` of ``xs``, with the candidates' restarts in lockstep (in
    blocks of at most :data:`MAX_SLICES` slices).

    Every candidate's fit starts from a fresh ``default_rng(seed)``, so
    they all take the same seeding draws; those are drawn once and
    shared. ``xs`` (equal-shape ``(n, d)`` matrices) is stacked
    C-contiguous, so each slice's product has the layout a C-contiguous
    ``x`` gives :meth:`KMeans.fit`. A candidate with a restart whose
    seeding finds every point already covered is fitted alone by
    :meth:`KMeans.fit`, which rewinds to serial seeding; the others stay
    in lockstep.

    Returns
    -------
    list[KMeansResult]
        One per candidate, bit-identical to :meth:`KMeans.fit` on it.
    """
    model = KMeans(k=k, n_restarts=n_restarts, max_iter=max_iter, tol=tol,
                   seed=seed)
    xs = np.ascontiguousarray(np.stack([np.asarray(x, dtype=float)
                                        for x in xs]))
    if xs.ndim != 3:
        raise ValueError(f"xs must stack 2-D matrices, got shape {xs.shape}")
    _check_x(xs, k)
    if k == 1:
        return [model.fit(x) for x in xs]
    first, u = _draws(model._rng, xs.shape[1], k, n_restarts)
    per = max(1, MAX_SLICES // n_restarts)
    results = []
    for start in range(0, len(xs), per):
        results.extend(_fit_block(xs[start:start + per], model, first, u))
    return results


def _fit_block(xs, model, first, u):
    """:func:`fit_stack`'s lockstep pass over one block of candidates,
    from the shared draws ``first`` and ``u``."""
    n_cand, restarts = len(xs), model.n_restarts
    owner = np.repeat(np.arange(n_cand), restarts)
    x, xx = xs[owner], _row_norms(xs)[owner]
    idx, ok = _seed(x, xx, model.k, np.tile(first, n_cand),
                    np.tile(u, (n_cand, 1)))
    alone = ~ok.reshape(n_cand, restarts).all(axis=1)
    init = _rows(x, idx)
    if alone.any():
        keep = ~alone[owner]
        x, xx, init = x[keep], xx[keep], init[keep]
    fits = _lloyd(x, xx, init, model.max_iter, model.tol)
    results, start = [], 0
    for c in range(n_cand):
        if alone[c]:
            results.append(KMeans(k=model.k, n_restarts=restarts,
                                  max_iter=model.max_iter, tol=model.tol,
                                  seed=model.seed).fit(xs[c]))
        else:
            results.append(_best(fits, start, restarts))
            start += restarts
    return results


def kmeans(x, k, seed=0, n_restarts=8):
    """Functional shorthand for ``KMeans(k, ...).fit(x)``."""
    return KMeans(k=k, seed=seed, n_restarts=n_restarts).fit(x)
