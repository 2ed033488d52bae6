"""SpreadScore: the uniformity metric (Section III-D, Eq. 14).

Coverage alone can be inflated by a couple of outlier workloads (Fig. 2:
suite WA has high variance but clumps plus outliers; suite WB fills the
space evenly). The SpreadScore runs KS tests against the uniform
distribution on [0, 1] over the normalized counter matrix and averages
the D-values. **Lower is better**; a D-value in [0, 0.5] reads as
"weakly uniform" per the paper.

Axis conventions
----------------
Eq. 14 is explicit: ``n`` is the number of workloads and ``X_norm_i`` is
the *i-th column* of the paper's ``m x n`` matrix -- i.e. one workload's
m-dimensional normalized event vector, tested against ``U(0, 1, m)``.
That per-workload reading is the default (``axis="workloads"``).

The per-*event* reading -- test each event column's distribution of
workloads against U(0,1), which is the more direct formalization of
"workloads should tile the parameter space" -- is available with
``axis="events"`` and is used by the ablation bench.

Eq. 14 literally compares against ``m`` random draws from U(0,1) (a
two-sample test). The default here is the *exact* one-sample KS statistic
against the U(0,1) CDF -- the same quantity without sampling noise --
with the paper-literal sampled variant available via ``sampled=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matrix import CounterMatrix
from repro.core.normalization import normalize_matrix
from repro.qa.contracts import ArraySpec, checked_array
from repro.stats.backend import ks_columns
from repro.stats.kstest import ks_two_sample

#: Paper's reading: D below this = weakly uniform.
WEAKLY_UNIFORM_THRESHOLD = 0.5


@dataclass(frozen=True)
class SpreadScoreResult:
    """SpreadScore plus its decomposition.

    Attributes
    ----------
    value:
        Mean KS D-value. Lower is better.
    per_item:
        Workload name (axis="workloads") or event name (axis="events")
        -> D-value.
    axis:
        Which reading of Eq. 14 produced this result.
    weakly_uniform:
        Whether the mean D falls in the paper's [0, 0.5] band.
    """

    value: float
    per_item: dict
    axis: str
    weakly_uniform: bool

    def __format__(self, spec):
        return format(self.value, spec)


@checked_array(matrix=ArraySpec(ndim=2, finite=True))
def spread_score(matrix, normalize=True, axis="workloads", sampled=False,
                 rng=0):
    """Compute the SpreadScore of a suite (Eq. 14).

    Parameters
    ----------
    matrix:
        :class:`CounterMatrix` or ``(n, m)`` ndarray (workloads as rows).
    normalize:
        Min-max normalize first (required for the U(0,1) reference to
        make sense); disable only for pre-normalized input.
    axis:
        ``"workloads"`` -- Eq. 14 literal: KS-test each workload's event
        vector. ``"events"`` -- KS-test each event's column of workloads.
    sampled:
        Use the paper-literal two-sample formulation against fresh
        uniform draws instead of the exact one-sample statistic.
    rng:
        Seed/Generator for the sampled variant.

    Returns
    -------
    SpreadScoreResult
    """
    if axis not in ("workloads", "events"):
        raise ValueError(f"axis must be 'workloads' or 'events', got {axis!r}")
    if isinstance(matrix, CounterMatrix):
        x = matrix.values
        workload_names = matrix.workloads
        event_names = matrix.events
    else:
        x = np.asarray(matrix, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {x.shape}")
        workload_names = tuple(range(x.shape[0]))
        event_names = tuple(range(x.shape[1]))
    if x.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValueError("SpreadScore needs at least 2 workloads")
    if normalize:
        x = normalize_matrix(x)

    rng = np.random.default_rng(rng)
    if axis == "workloads":
        vectors = {name: x[i, :] for i, name in enumerate(workload_names)}
    else:
        vectors = {name: x[:, j] for j, name in enumerate(event_names)}

    if sampled:
        per_item = {}
        for name, values in vectors.items():
            reference = rng.uniform(size=max(values.shape[0], 32))
            per_item[name] = float(ks_two_sample(values, reference).statistic)
    else:
        columns = np.stack(list(vectors.values()), axis=1)
        stats = ks_columns(columns)
        per_item = {name: float(d) for name, d in zip(vectors, stats)}

    value = float(np.mean(list(per_item.values())))
    return SpreadScoreResult(
        value=value,
        per_item=per_item,
        axis=axis,
        weakly_uniform=value <= WEAKLY_UNIFORM_THRESHOLD,
    )
