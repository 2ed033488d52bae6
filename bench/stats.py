"""Sample statistics shared by the harness and ``compare.py``.

Every timing is reported as its median, its quartiles and the highest
tail percentile that still has at least ten samples beyond it, always
with the sample count: a p95 of 20 samples is one sample and says
nothing, so it is not printed.
"""

from __future__ import annotations

import statistics

#: Tail percentiles tried, highest first, in per-mille so the
#: ">= 10 samples beyond" test is exact integer arithmetic.
TAIL_PERMILLE = (999, 990, 950, 900)

#: Samples a percentile needs beyond it before it is reported.
MIN_BEYOND = 10


def percentile(values, p):
    """The ``p``-th percentile by linear interpolation between the two
    closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = p / 100 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """The highest percentile in :data:`TAIL_PERMILLE` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    for permille in TAIL_PERMILLE:
        if n * (1000 - permille) >= MIN_BEYOND * 1000:
            return permille / 10
    return None


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values):
    """``{"n", "median", "q1", "q3"}`` plus ``"tail": {"p", "value"}``
    when :func:`tail_percentile` allows one."""
    values = list(values)
    if not values:
        return {"n": 0}
    q1, med, q3 = quartiles(values)
    out = {"n": len(values), "median": med, "q1": q1, "q3": q3}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail"] = {"p": p, "value": percentile(values, p)}
    return out


def relative_spread(values):
    """Inter-quartile distance as a share of the median (0 for one
    sample or a zero median)."""
    q1, med, q3 = quartiles(list(values))
    return (q3 - q1) / med if med else 0.0
