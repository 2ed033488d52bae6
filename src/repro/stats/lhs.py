"""Latin hypercube sampling (LHS).

Section IV-C builds benchmark-suite subsets with LHS [33]: each of the
``M`` dimensions (one per PMU counter) is divided into as many equal
regions as points requested, and exactly one point is sampled per region
per dimension. This stratification guarantees marginal coverage that plain
uniform sampling does not.

Two variants:

* :func:`latin_hypercube` -- classic LHS (random permutations per
  dimension, random jitter within each stratum);
* :func:`maximin_latin_hypercube` -- draws several LHS designs and keeps
  the one maximizing the minimum pairwise point distance, improving the
  space-filling property (used by the subset generator so the selected
  anchor points, and hence the chosen workloads, are well spread).

Both draw through one loop, :func:`_designs`; :func:`latin_hypercube`
is its one-design case. The maximin variant draws and scores all its
designs at once, on one C-contiguous ``(designs, n, d)`` stack,
bit-identical to one :func:`latin_hypercube` and one
:func:`~repro.stats.distance.pairwise_distances` per design: the draws
keep :func:`latin_hypercube`'s order, and each slice of the stack has
the layout of one design, so its distance product is the one ``cdist``
makes for that design (the per-design loop, drawing with
``Generator.permutation`` and ``uniform``, is kept as the oracle in
``tests/test_stats_lhs.py``).
"""

from __future__ import annotations

import numpy as np


def _check_args(n_samples, n_dims):
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if n_dims < 1:
        raise ValueError(f"n_dims must be >= 1, got {n_dims}")


def latin_hypercube(n_samples, n_dims, rng=0, centered=False):
    """Draw an LHS design in the unit hypercube.

    Parameters
    ----------
    n_samples:
        Number of points (== number of strata per dimension).
    n_dims:
        Dimensionality of the design.
    rng:
        :class:`numpy.random.Generator` or seed.
    centered:
        If ``True``, place each point at the centre of its stratum instead
        of jittering uniformly inside it (deterministic given the
        permutations).

    Returns
    -------
    numpy.ndarray
        Design matrix of shape ``(n_samples, n_dims)`` with every column a
        permutation of the stratified values -- i.e. exactly one point per
        ``1/n_samples``-wide interval in every dimension.
    """
    _check_args(n_samples, n_dims)
    return _designs(n_samples, n_dims, np.random.default_rng(rng), 1,
                    centered)[0]


def maximin_latin_hypercube(n_samples, n_dims, rng=0, n_candidates=32,
                            centered=False):
    """LHS design maximizing the minimum pairwise distance.

    Draws ``n_candidates`` independent LHS designs and returns the one with
    the largest minimum inter-point distance (the first such design on a
    tie). With ``n_samples == 1`` the criterion is vacuous and a single
    draw is returned.

    All designs are drawn and scored at once (:func:`_designs`,
    :func:`_min_distances`), bit-identical to one design at a time.
    """
    _check_args(n_samples, n_dims)
    if n_candidates < 1:
        raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
    rng = np.random.default_rng(rng)
    if n_samples == 1:
        return latin_hypercube(1, n_dims, rng=rng, centered=centered)

    designs = _designs(n_samples, n_dims, rng, n_candidates, centered)
    return designs[np.argmax(_min_distances(designs))].copy()


def _designs(n_samples, n_dims, rng, count, centered):
    """``count`` LHS designs from ``rng`` as one C-contiguous
    ``(count, n_samples, n_dims)`` stack: per design and dimension, a
    random permutation of the strata, then (unless ``centered``) a
    uniform jitter within each, and the point ``(perm + jitter) / n``.

    Each permutation is ``rng.shuffle`` of a copy of ``arange(n)`` and
    each jitter ``rng.random`` into its row, which draw the very bits
    and stream positions of ``rng.permutation(n)`` and
    ``rng.uniform(size=n)``, without their per-call argument handling
    (that loop is kept as the oracle in ``tests/test_stats_lhs.py``)."""
    perms = np.empty((count, n_dims, n_samples), dtype=np.int64)
    perms[...] = np.arange(n_samples)
    offsets = np.full((count, n_dims, n_samples), 0.5)
    shuffle, uniform = rng.shuffle, rng.random
    for c in range(count):
        for d in range(n_dims):
            shuffle(perms[c, d])
            if not centered:
                uniform(out=offsets[c, d])
    return np.ascontiguousarray(
        ((perms + offsets) / n_samples).transpose(0, 2, 1))


def _min_distances(designs):
    """Each design's minimum pairwise point distance: ``cdist``'s
    Euclidean expression per slice, then
    :func:`~repro.stats.distance.pairwise_distances`' exact symmetry,
    with the diagonal left out."""
    norms = np.sum(designs * designs, axis=2)
    sq = (norms[:, :, None] + norms[:, None, :]
          - 2.0 * (designs @ designs.transpose(0, 2, 1)))
    np.maximum(sq, 0.0, out=sq)
    dist = np.sqrt(sq)
    dist = 0.5 * (dist + dist.transpose(0, 2, 1))
    diag = np.arange(designs.shape[1])
    dist[:, diag, diag] = np.inf
    return dist.min(axis=(1, 2))


def lhs_strata(n_samples):
    """Stratum boundaries for an ``n_samples``-point LHS in one dimension.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n_samples + 1,)``: ``[0, 1/n, 2/n, ..., 1]``.
    """
    _check_args(n_samples, 1)
    return np.linspace(0.0, 1.0, n_samples + 1)


def is_latin_hypercube(design, atol=1e-12):
    """Check the LHS invariant: one point per stratum in every dimension."""
    design = np.asarray(design, dtype=float)
    if design.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {design.shape}")
    n = design.shape[0]
    if np.any(design < -atol) or np.any(design > 1 + atol):
        return False
    strata = np.floor(np.clip(design, 0, np.nextafter(1, 0)) * n).astype(int)
    for d in range(design.shape[1]):
        if np.unique(strata[:, d]).size != n:
            return False
    return True
