"""Content-addressed kernel cache.

The scoring entry points (``Perspector.compare``, focused scoring,
subset re-scoring, the stability/ablation experiments) recompute the
same expensive kernels -- normalized series sets, pairwise DTW, PCA,
per-k K-means -- over heavily overlapping inputs. :class:`KernelCache`
memoizes those results under content-addressed keys: the SHA-256 of the
input arrays' raw bytes plus every kernel-config knob that affects the
output. Two consequences fall out of keying on content:

* **Correctness without invalidation.** Any change to a value or a
  config knob changes the key, so a kernel entry cannot go stale;
  there is nothing to invalidate.
* **Cross-entry-point reuse.** A focused re-scoring that selects an
  event subset feeds byte-identical series to the trend kernel and hits
  the cache, no matter which code path computed them first.

:func:`content_key` also keys the disk tier's measured-suite and
scorecard entries (:mod:`repro.experiments.runner`). Those keys name a
suite and its settings rather than hashing input bytes, so they are
valid only for the code that wrote them; the disk tier checks each
entry against :func:`repro.engine.diskcache.source_digest` when it
reads it. :func:`content_key` imports nothing beyond hashlib and
functools: it touches numpy only for ndarray and numpy-scalar parts,
which cannot exist unless numpy is already imported.

Cached values are returned by reference; they are treated as immutable
by every engine code path (and are frozen dataclasses or arrays nobody
writes to).
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import contextmanager
from functools import lru_cache

#: Sentinel distinguishing "missing" from a cached ``None``.
MISS = object()

#: Lookup-tier vocabulary (:meth:`KernelCache.lookup_tier` returns and
#: the ``cache.lookup`` span ``tier`` attribute carries these).
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_MISS = "miss"


@lru_cache(maxsize=64)
def _dtype_tag(dtype):
    """``str(dtype)``, encoded, once per dtype: numpy builds the string
    in Python (``_dtype.__str__``), and a subset search keys thousands
    of arrays of one or two dtypes."""
    return str(dtype).encode()


def _feed(h, part):
    """Feed one key part into a hash, with type tags so e.g. the string
    ``"1"`` and the integer ``1`` cannot collide."""
    np = sys.modules.get("numpy")  # no numpy loaded: no numpy parts
    if np is not None and isinstance(part, np.ndarray):
        a = np.ascontiguousarray(part)
        h.update(b"<nd>")
        h.update(_dtype_tag(a.dtype))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    elif np is not None and isinstance(part, (np.floating, np.integer)):
        _feed(h, part.item())
    elif isinstance(part, bytes):
        h.update(b"<b>")
        h.update(part)
    elif isinstance(part, str):
        h.update(b"<s>")
        h.update(part.encode())
    elif part is None or isinstance(part, (bool, int, float)):
        h.update(f"<{type(part).__name__}>{part!r}".encode())
    elif isinstance(part, (tuple, list)):
        h.update(f"<seq:{len(part)}>".encode())
        for item in part:
            _feed(h, item)
    elif isinstance(part, dict):
        h.update(f"<map:{len(part)}>".encode())
        for key in sorted(part, key=repr):
            _feed(h, key)
            _feed(h, part[key])
    else:
        raise TypeError(
            f"unhashable cache-key part of type {type(part).__name__}: "
            f"{part!r}"
        )


def content_key(kind, *parts):
    """SHA-256 content key for a kernel invocation.

    Parameters
    ----------
    kind:
        Kernel name (``"dtw-pair"``, ``"pca"``, ...); namespaces the key.
    parts:
        Arrays, scalars, strings, or nested tuples/lists/dicts of those.
        Arrays hash dtype + shape + raw bytes, so any value change (down
        to the last NaN bit pattern) changes the key.

    Returns
    -------
    str
        Hex digest.
    """
    h = hashlib.sha256()
    _feed(h, str(kind))
    for part in parts:
        _feed(h, part)
    return h.hexdigest()


def array_digest(array):
    """Digest of one array's contents (used to orient symmetric pairs)."""
    import numpy as np

    h = hashlib.sha256()
    _feed(h, np.asarray(array))
    return h.hexdigest()


def pair_key(digest_a, digest_b, band):
    """Key of one DTW pair from the two series' :func:`array_digest` values.

    A DTW distance's bits depend only on the pair and the band, and
    are exactly symmetric in the pair (:mod:`repro.stats.dtw`), so the
    digests are sorted and both orientations share one entry. The key
    is a plain tuple, not a hash: pair entries are memory-only (one
    file per float would drown the disk tier), and a pass over a few
    thousand pairs should not re-hash what the digests already name."""
    if digest_b < digest_a:
        digest_a, digest_b = digest_b, digest_a
    return ("dtw-pair", digest_a, digest_b, band)


class KernelCache:
    """In-process store for kernel results, keyed by content.

    Parameters
    ----------
    enabled:
        A disabled cache never stores and reports every lookup as a
        miss; callers need no branching.
    disk:
        Optional :class:`~repro.engine.diskcache.DiskCache` second
        tier. Memory misses fall through to it (hits are promoted back
        into memory), and puts write through -- under the *same*
        content-addressed keys, so entries survive across processes and
        CLI invocations. The tier only stores numeric payloads; other
        values silently stay memory-only.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to count
        into (the owning engine shares one registry across all its
        layers); a private registry is created when omitted. The
        ``cache_hits``/``cache_misses`` counters there are the *only*
        copies.
    """

    def __init__(self, enabled=True, disk=None, metrics=None):
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.enabled = bool(enabled)
        self.disk = disk if self.enabled else None
        self.metrics = metrics
        self._store = {}
        self._memory_only = False
        self._hits = metrics.counter("cache_hits")
        self._misses = metrics.counter("cache_misses")

    # -- lookup ------------------------------------------------------------

    def lookup(self, key, disk=True):
        """The cached value for ``key``, or :data:`MISS`; counts the
        outcome. ``disk=False`` skips the disk tier (used for
        fine-grained entries -- per-pair DTW floats -- where one file
        per value would drown the tier in inodes)."""
        return self.lookup_tier(key, disk=disk)[0]

    def lookup_tier(self, key, disk=True):
        """Like :meth:`lookup`, but also names the serving tier:
        ``(value, "memory" | "disk" | "miss")`` -- the engine attaches
        the tier to its ``cache.lookup`` spans."""
        if not self.enabled:
            self._misses.inc()
            return MISS, TIER_MISS
        if key in self._store:
            self._hits.inc()
            return self._store[key], TIER_MEMORY
        self._misses.inc()
        if disk and self.disk is not None and not self._memory_only:
            value = self.disk.get(key)
            if value is not MISS:
                return self._remember(key, value), TIER_DISK
        return MISS, TIER_MISS

    def put(self, key, value, disk=True):
        """Store a value (no-op when disabled). Returns the value, so
        ``return cache.put(key, compute())`` reads naturally. Writes
        through to the disk tier unless ``disk=False``."""
        if self.enabled:
            self._remember(key, value)
            if disk and self.disk is not None and not self._memory_only:
                self.disk.put(key, value)
        return value

    @contextmanager
    def memory_only(self):
        """Treat every lookup and put inside the block as ``disk=False``.

        For intermediates computed through shared kernels whose callers
        cannot pass ``disk=False`` themselves: the subset evaluator
        scores each candidate inside this block, so the candidate's
        K-means labels and silhouette distances stay in memory while
        its whole report persists (DESIGN.md section 8). Not
        re-entrant across threads; the engine's callers are
        single-threaded."""
        saved, self._memory_only = self._memory_only, True
        try:
            yield
        finally:
            self._memory_only = saved

    def _remember(self, key, value):
        """Memory-tier insert (no disk side effects)."""
        self._store[key] = value
        return value

    def get_or_compute(self, key, compute, disk=True):
        """The cached value for ``key``, computing and storing on miss."""
        value = self.lookup(key, disk=disk)
        if value is MISS:
            value = self.put(key, compute(), disk=disk)
        return value

    def __len__(self):
        return len(self._store)

    def __contains__(self, key):
        return key in self._store
