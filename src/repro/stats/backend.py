"""Pluggable compute backends for the DTW / KS hot paths.

The scoring pipeline funnels its two numerical hot loops -- batched DTW
pair distances (TrendScore, Section III-B) and per-column one-sample KS
statistics (SpreadScore, Section III-D) -- through a
:class:`ComputeBackend` picked by name:

* ``reference`` -- the per-pair / per-column fills in
  :mod:`repro.stats.dtw` and :mod:`repro.stats.kstest`, kept as the
  bit-identity oracle.
* ``vectorized`` -- the batched anti-diagonal wavefronts
  (:func:`repro.stats.dtw.banded_pair_distances`,
  :func:`repro.stats.dtw.bucketed_pair_distances`) and the column-batched
  KS kernel (:func:`repro.stats.kstest.ks_statistic_uniform_columns`).

Backends are a *performance* knob, never a numerical one: every kernel a
backend may dispatch to is bit-identical to its reference twin (the IEEE
``min``-exactness argument is documented in :mod:`repro.stats.dtw`), so
cache keys stay backend-free and ``repro qa --backend vectorized``
cross-checks full scorecards bit-for-bit on every execution variant.

Selection precedence is explicit argument > ``$REPRO_BACKEND`` >
``reference`` (see :func:`resolve_backend`); the environment read lives
only there. The registry is a fixed mapping -- no mutation hooks -- and
every function in this module is top-level and effect-free, which the
deep lint's backend-purity rule enforces (attribute calls through a
backend object are opaque to the call graph, so the whole module is held
to the worker-safe standard wholesale). The kernels are imported inside
the dispatch functions, so naming the backends (the CLI's
``--backend`` choices) imports no numpy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

DEFAULT_BACKEND = "reference"

# Environment variable consulted by resolve_backend when no explicit
# backend is given (CLI flags read it too, so `repro qa` subprocesses
# inherit the selection).
ENV_VAR = "REPRO_BACKEND"


@dataclass(frozen=True)
class ComputeBackend:
    """A named bundle of hot-path kernels.

    Attributes
    ----------
    name:
        Registry key; recorded in run manifests and health reports.
    pair_distances:
        ``(arrays, idx_i, idx_j, band) -> (pairs,) float array`` of DTW
        distances for the selected pairs of validated 1-D series.
    ks_columns:
        ``(matrix) -> (columns,) float array`` of one-sample KS D-values
        against U(0, 1), one per column of a 2-D ``(samples, columns)``
        matrix.
    """

    name: str
    pair_distances: Callable
    ks_columns: Callable


def _aligned_fast_path(arrays, band):
    """True when the pair set can use the equal-length unbanded batch."""
    if band is not None or not arrays:
        return False
    length = arrays[0].shape[0]
    return all(
        a.ndim == 1 and a.shape[0] == length for a in arrays
    )


def reference_pair_distances(arrays, idx_i, idx_j, band=None):
    """Oracle DTW pair distances.

    Matches what the engine historically computed: the equal-length
    unbanded case uses :func:`batched_pair_distances`, everything else
    one :func:`dtw_distance` per pair. The batch is bit-identical to
    ``dtw_distance(a, b, band=L)`` per pair, the exact per-pair oracle
    for it; unbanded ``dtw_distance`` associates the first-row border
    differently and can differ in the last bit (see
    :mod:`repro.stats.dtw`).
    """
    import numpy as np

    from repro.stats.dtw import batched_pair_distances, dtw_distance

    if _aligned_fast_path(arrays, band):
        return batched_pair_distances(np.vstack(arrays), idx_i, idx_j)
    return np.array(
        [
            dtw_distance(arrays[i], arrays[j], band=band)
            for i, j in zip(idx_i, idx_j)
        ]
    )


def vectorized_pair_distances(arrays, idx_i, idx_j, band=None):
    """Batched DTW pair distances; bit-identical to the reference.

    Dispatch: equal-length unbanded pairs share the reference's batch
    kernel; equal-length banded pairs run the banded wavefront; any
    other 1-D mix runs shape-bucketed batches. Multivariate (2-D)
    series fall back to the per-pair reference -- the batched kernels
    are univariate and silently flattening would change the cost matrix.
    """
    import numpy as np

    from repro.stats.dtw import (
        banded_pair_distances,
        batched_pair_distances,
        bucketed_pair_distances,
        dtw_distance,
    )

    if _aligned_fast_path(arrays, band):
        return batched_pair_distances(np.vstack(arrays), idx_i, idx_j)
    if any(a.ndim != 1 for a in arrays):
        return np.array(
            [
                dtw_distance(arrays[i], arrays[j], band=band)
                for i, j in zip(idx_i, idx_j)
            ]
        )
    lengths = {a.shape[0] for a in arrays}
    if band is not None and len(lengths) == 1:
        return banded_pair_distances(np.vstack(arrays), idx_i, idx_j, band)
    return bucketed_pair_distances(arrays, idx_i, idx_j, band=band)


def reference_ks_columns(x):
    """Oracle per-column KS D-values: one reference call per column."""
    import numpy as np

    from repro.stats.kstest import ks_statistic_uniform

    x = np.asarray(x, dtype=float)
    return np.array(
        [ks_statistic_uniform(x[:, j]) for j in range(x.shape[1])]
    )


def vectorized_ks_columns(x):
    """Column-batched KS D-values; bit-identical to the reference."""
    from repro.stats.kstest import ks_statistic_uniform_columns

    return ks_statistic_uniform_columns(x)


_BACKENDS = {
    "reference": ComputeBackend(
        name="reference",
        pair_distances=reference_pair_distances,
        ks_columns=reference_ks_columns,
    ),
    "vectorized": ComputeBackend(
        name="vectorized",
        pair_distances=vectorized_pair_distances,
        ks_columns=vectorized_ks_columns,
    ),
}


def available_backends():
    """Sorted tuple of registered backend names."""
    return tuple(sorted(_BACKENDS))


def get_backend(name):
    """Look up a backend by name (a ComputeBackend passes through)."""
    if isinstance(name, ComputeBackend):
        return name
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of "
            f"{available_backends()}"
        ) from None


def resolve_backend(name=None):
    """Resolve the active backend: explicit > $REPRO_BACKEND > reference.

    The only place the environment is consulted, so the selection is
    auditable and the rest of the module stays effect-free apart from
    this one sanctioned read.
    """
    if name is not None:
        return get_backend(name)
    return get_backend(os.environ.get(ENV_VAR) or DEFAULT_BACKEND)
