"""The one compute dispatch for the DTW / KS hot paths.

The scoring pipeline funnels its two numerical hot loops through one
kernel each:

* :func:`pair_distances` -- batched DTW pair distances (TrendScore,
  Section III-B): the equal-length unbanded batch
  (:func:`repro.stats.dtw.batched_pair_distances`), the banded
  anti-diagonal wavefront
  (:func:`repro.stats.dtw.banded_pair_distances`) or shape-bucketed
  batches (:func:`repro.stats.dtw.bucketed_pair_distances`). Engines
  and pool tasks call it through the :class:`ComputeBackend` record
  that :func:`kernels` returns, so a wrapped copy can count the pairs.
* :func:`ks_columns` -- per-column one-sample KS statistics
  (SpreadScore, Section III-D) through the column-batched kernel
  (:func:`repro.stats.kstest.ks_statistic_uniform_columns`).

Each kernel is bit-identical to the per-pair / per-column loop over
:func:`repro.stats.dtw.dtw_distance` and
:func:`repro.stats.kstest.ks_statistic_uniform` (the IEEE
``min``-exactness argument is documented in :mod:`repro.stats.dtw`);
the test suite keeps those loops as oracles.

Every function in this module is top-level and effect-free, which the
deep lint's backend-purity rule enforces: the engine calls through a
record attribute, which is opaque to the call graph, so the whole
module is held to the worker-safe standard wholesale. The kernels are
imported inside the dispatch functions, so importing this module
imports no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ComputeBackend:
    """The DTW pair kernel as a record, so a caller can swap in a
    wrapped copy (``dataclasses.replace``) to count or record calls.

    Attributes
    ----------
    pair_distances:
        ``(arrays, idx_i, idx_j, band) -> (pairs,) float array`` of DTW
        distances for the selected pairs of validated 1-D series.
    """

    pair_distances: Callable


def pair_distances(arrays, idx_i, idx_j, band=None):
    """Batched DTW pair distances, bit-identical to one
    ``dtw_distance`` per pair (``band=L`` for the unbanded batch).

    Dispatch: equal-length unbanded pairs run the batch kernel;
    equal-length banded pairs run the banded wavefront; any other 1-D
    mix runs shape-bucketed batches. Multivariate (2-D) series run one
    ``dtw_distance`` per pair -- the batched kernels are univariate and
    silently flattening would change the cost matrix.
    """
    import numpy as np

    from repro.stats.dtw import (
        banded_pair_distances,
        batched_pair_distances,
        bucketed_pair_distances,
        dtw_distance,
    )

    if any(a.ndim != 1 for a in arrays):
        return np.array(
            [
                dtw_distance(arrays[i], arrays[j], band=band)
                for i, j in zip(idx_i, idx_j)
            ]
        )
    if len({a.shape[0] for a in arrays}) == 1:
        stacked = np.vstack(arrays)
        if band is None:
            return batched_pair_distances(stacked, idx_i, idx_j)
        return banded_pair_distances(stacked, idx_i, idx_j, band)
    return bucketed_pair_distances(arrays, idx_i, idx_j, band=band)


def ks_columns(x):
    """One-sample KS D-values against U(0, 1), one per column of a 2-D
    ``(samples, columns)`` matrix; bit-identical to one
    ``ks_statistic_uniform`` per column."""
    from repro.stats.kstest import ks_statistic_uniform_columns

    return ks_statistic_uniform_columns(x)


# One entry, read only through kernels(). It stays a mapping because
# the benchmark harness's tracer replaces every record in it to count
# DTW pairs; the benchmark-only change on ROADMAP item (1) retires it.
_BACKENDS = {"batched": ComputeBackend(pair_distances=pair_distances)}


def kernels():
    """The :class:`ComputeBackend` every engine and pool task
    dispatches through, read at call time."""
    return _BACKENDS["batched"]
