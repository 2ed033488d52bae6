"""Address-stream and branch-stream kernels.

Each kernel produces a numpy array of byte addresses with a
characteristic locality structure. Workload phases are weighted mixes of
these kernels (see :mod:`repro.workloads.base`).

Cost model: one interval costs O(ops) -- the number of accesses asked
for -- never O(working set). Every kernel is vectorized except the
pointer chase, whose address sequence is inherently serial: one Python
step per access. Anything the size of the working set (the chase's
permutation, the Zipf CDF) is built once per workload and kept in the
cursor, so it costs O(working set) once per workload, not per interval.

Kernels are *stateful across intervals* via the ``cursor`` dict a caller
threads through: a streaming kernel continues where the previous interval
stopped, which keeps cache behaviour realistic across interval
boundaries.
"""

from __future__ import annotations

import numpy as np

LINE = 64


def sequential_stream(n, rng, working_set, stride=LINE, base=0, cursor=None):
    """Unit-stride (or strided) streaming sweep over a working set.

    Models copy/scan/stream kernels: very low cache miss rate within a
    line, misses exactly once per line, dTLB friendly.
    """
    start = 0 if cursor is None else cursor.get("seq", 0)
    offsets = (start + stride * np.arange(n)) % working_set
    if cursor is not None:
        cursor["seq"] = int((start + stride * n) % working_set)
    return base + offsets


def random_uniform(n, rng, working_set, base=0, granularity=LINE):
    """Uniform random accesses over a working set.

    Models hash tables and unstructured pointer soup: miss rate tracks
    ``working_set`` against each cache level's capacity.
    """
    slots = max(working_set // granularity, 1)
    return base + rng.integers(0, slots, size=n) * granularity


def zipfian(n, rng, working_set, alpha=1.1, base=0, granularity=LINE,
            cursor=None):
    """Zipf-distributed accesses: a few hot lines, a long cold tail.

    Models key-value stores and caches with skewed popularity. Uses the
    inverse-CDF of a truncated zeta distribution, vectorized. The CDF is
    built once per ``(slots, alpha)`` and kept in ``cursor``.
    """
    slots = max(working_set // granularity, 1)
    key = ("zipf", slots, alpha)
    cdf = None if cursor is None else cursor.get(key)
    if cdf is None:
        # Built in one buffer: a 56 MB working set has 917,504 slots,
        # and separate rank, weight and sum arrays would triple the
        # ~7 MB the kept CDF costs.
        cdf = np.arange(1, slots + 1, dtype=float)
        np.power(cdf, -alpha, out=cdf)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        if cursor is not None:
            cursor[key] = cdf
    u = rng.uniform(size=n)
    idx = np.searchsorted(cdf, u)
    # Scatter ranks over the address space so hot lines do not all share
    # cache sets (deterministic multiplicative hash).
    scattered = (idx * 2654435761) % slots
    return base + scattered * granularity


def pointer_chase(n, rng, working_set, base=0, granularity=LINE,
                  cursor=None):
    """Serial walk of a random permutation: every access depends on the
    previous load.

    Models linked lists and graph traversals (the ``lat_mem_rd`` pattern):
    maximal miss rate once the working set exceeds a cache level, no
    spatial locality.

    The walk follows ``perm`` from ``perm[0]``, so it visits only the
    cycle of the permutation that contains ``perm[0]``, not every slot:
    a uniform permutation's cycle through a given slot covers about half
    the slots on average, and can cover under 1% of them.
    """
    slots = max(working_set // granularity, 2)
    key = ("chase", working_set, base)
    if cursor is not None and key in cursor:
        perm, pos = cursor[key]
    else:
        perm = rng.permutation(slots)
        pos = int(perm[0])
    # A zero-copy view yields one Python int per step. A list copy of the
    # permutation would cost O(slots) per call, or peak RSS if cached.
    step = memoryview(perm)
    out = []
    append = out.append
    for _ in range(n):
        append(pos)
        pos = step[pos]
    if cursor is not None:
        cursor[key] = (perm, pos)
    return base + np.array(out, dtype=np.int64) * granularity


def hot_cold(n, rng, hot_bytes, cold_bytes, hot_fraction=0.9, base=0,
             granularity=LINE):
    """Bimodal locality: ``hot_fraction`` of accesses in a small hot
    region, the rest uniform over a large cold region.

    Models interpreter/VM workloads with a hot dispatch core.
    """
    hot_slots = max(hot_bytes // granularity, 1)
    cold_slots = max(cold_bytes // granularity, 1)
    is_hot = rng.uniform(size=n) < hot_fraction
    hot_addr = rng.integers(0, hot_slots, size=n)
    cold_addr = hot_slots + rng.integers(0, cold_slots, size=n)
    return base + np.where(is_hot, hot_addr, cold_addr) * granularity


def stencil2d(n, rng, rows, cols, element_bytes=8, base=0, cursor=None):
    """Five-point stencil sweep over a 2-D grid.

    Models HPC kernels (fluid dynamics, PDE solvers): mixed unit-stride
    and ``cols``-stride reuse, cache-blocking sensitive.
    """
    start = 0 if cursor is None else cursor.get("stencil", 0)
    total = rows * cols
    centers = (start + np.arange((n + 4) // 5)) % total
    if cursor is not None:
        cursor["stencil"] = int((start + centers.shape[0]) % total)
    r = centers // cols
    c = centers % cols
    north = ((r - 1) % rows) * cols + c
    south = ((r + 1) % rows) * cols + c
    west = r * cols + (c - 1) % cols
    east = r * cols + (c + 1) % cols
    pattern = np.stack([centers, north, south, west, east], axis=1).ravel()
    return base + pattern[:n] * element_bytes


def gather_scatter(n, rng, index_bytes, data_bytes, base=0,
                   granularity=LINE, cursor=None):
    """Alternating sequential index reads and random data accesses.

    Models sparse linear algebra and graph frontier expansion: half the
    stream is prefetch-friendly, half is not.
    """
    half = n // 2
    idx_part = sequential_stream(
        n - half, rng, working_set=index_bytes, base=base, cursor=cursor
    )
    data_part = random_uniform(
        half, rng, working_set=data_bytes,
        base=base + index_bytes, granularity=granularity,
    )
    out = np.empty(n, dtype=np.int64)
    out[0::2] = idx_part[: (n + 1) // 2]
    out[1::2] = data_part[: n // 2]
    return out


def page_stride(n, rng, working_set, page_bytes=4096, base=0, cursor=None):
    """One access per page, striding through a large region.

    Models TLB torture (``lat_mmap`` / page-fault microbenchmarks): every
    access touches a new page, maximizing dTLB misses and walks while
    barely using each cache line.
    """
    start = 0 if cursor is None else cursor.get("page", 0)
    pages = max(working_set // page_bytes, 1)
    offsets = ((start + np.arange(n)) % pages) * page_bytes
    if cursor is not None:
        cursor["page"] = int((start + n) % pages)
    return base + offsets


def fresh_pages(n, rng, page_bytes=4096, touches_per_page=1, base=0,
                cursor=None):
    """Touch never-before-seen pages, forever.

    Models allocation-heavy code and the ``lat_pagefault`` benchmark:
    every page is new, so the demand pager faults continuously.
    ``touches_per_page`` accesses land on each page before moving on
    (writing a freshly faulted page touches several of its cache lines),
    which sets the ratio of dTLB pressure to fault pressure.
    """
    if touches_per_page < 1:
        raise ValueError("touches_per_page must be >= 1")
    start = 0 if cursor is None else cursor.get("fresh", 0)
    page_idx = start + np.arange(n) // touches_per_page
    line_offset = (np.arange(n) % touches_per_page) * LINE
    addrs = base + page_idx * page_bytes + line_offset
    if cursor is not None:
        cursor["fresh"] = int(page_idx[-1] + 1) if n else start
    return addrs


KERNELS = {
    "sequential_stream": sequential_stream,
    "random_uniform": random_uniform,
    "zipfian": zipfian,
    "pointer_chase": pointer_chase,
    "hot_cold": hot_cold,
    "stencil2d": stencil2d,
    "gather_scatter": gather_scatter,
    "page_stride": page_stride,
    "fresh_pages": fresh_pages,
}

_STATEFUL = {"sequential_stream", "zipfian", "pointer_chase", "stencil2d",
             "gather_scatter", "page_stride", "fresh_pages"}


def generate_addresses(kernel, n, rng, params, cursor=None):
    """Dispatch to a kernel by name.

    Parameters
    ----------
    kernel:
        Key into :data:`KERNELS`.
    n:
        Number of accesses to generate.
    rng:
        :class:`numpy.random.Generator`.
    params:
        Kernel keyword arguments.
    cursor:
        Mutable per-workload state dict for stateful kernels.
    """
    if kernel not in KERNELS:
        raise KeyError(
            f"unknown kernel {kernel!r}; expected one of {sorted(KERNELS)}"
        )
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return np.array([], dtype=np.int64)
    fn = KERNELS[kernel]
    if kernel in _STATEFUL:
        return np.asarray(fn(n, rng, cursor=cursor, **params), dtype=np.int64)
    return np.asarray(fn(n, rng, **params), dtype=np.int64)


# -- branch streams ----------------------------------------------------------


def biased_branches(n, rng, n_sites=64, taken_prob=0.9, site_base=0):
    """Per-site biased branches: each site has a stable taken probability
    jittered around ``taken_prob``. Easy for bimodal predictors."""
    if n == 0:
        return (np.array([], dtype=np.int64), np.array([], dtype=bool))
    sites = site_base + rng.integers(0, max(n_sites, 1), size=n)
    site_bias = np.clip(
        taken_prob + rng.normal(scale=0.05, size=max(n_sites, 1)), 0.0, 1.0
    )
    taken = rng.uniform(size=n) < site_bias[sites - site_base]
    return sites, taken


def loop_branches(n, rng, body=8, n_sites=8, site_base=0):
    """Loop back-edges: taken ``body`` times then not taken, repeating.
    Highly predictable for history-based predictors."""
    if n == 0:
        return (np.array([], dtype=np.int64), np.array([], dtype=bool))
    pattern = np.concatenate([np.ones(body, dtype=bool), [False]])
    taken = np.tile(pattern, n // pattern.shape[0] + 1)[:n]
    sites = site_base + (np.arange(n) // (body + 1)) % max(n_sites, 1)
    return sites.astype(np.int64), taken


def random_branches(n, rng, n_sites=256, taken_prob=0.5, site_base=0):
    """Data-dependent branches: outcomes independent of history and site.
    Worst case for every predictor."""
    if n == 0:
        return (np.array([], dtype=np.int64), np.array([], dtype=bool))
    sites = site_base + rng.integers(0, max(n_sites, 1), size=n)
    taken = rng.uniform(size=n) < taken_prob
    return sites, taken


BRANCH_MODELS = {
    "biased": biased_branches,
    "loop": loop_branches,
    "random": random_branches,
}


def generate_branches(model, n, rng, params):
    """Dispatch to a branch model by name."""
    if model not in BRANCH_MODELS:
        raise KeyError(
            f"unknown branch model {model!r}; expected one of "
            f"{sorted(BRANCH_MODELS)}"
        )
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return BRANCH_MODELS[model](n, rng, **params)
