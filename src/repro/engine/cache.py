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
valid only while the suite models, the simulator and the scoring code
stay the same; :data:`repro.engine.diskcache.FORMAT_VERSION` is bumped
when they change. :func:`content_key` imports nothing beyond hashlib:
it touches numpy only for ndarray and numpy-scalar parts, which cannot
exist unless numpy is already imported.

Cached values are returned by reference; they are treated as immutable
by every engine code path (and are frozen dataclasses or arrays nobody
writes to).
"""

from __future__ import annotations

import hashlib
import sys
from collections import OrderedDict
from dataclasses import dataclass

#: Sentinel distinguishing "missing" from a cached ``None``.
MISS = object()

#: Lookup-tier vocabulary (:meth:`KernelCache.lookup_tier` returns and
#: the ``cache.lookup`` span ``tier`` attribute carries these).
TIER_MEMORY = "memory"
TIER_DISK = "disk"
TIER_MISS = "miss"


def _feed(h, part):
    """Feed one key part into a hash, with type tags so e.g. the string
    ``"1"`` and the integer ``1`` cannot collide."""
    np = sys.modules.get("numpy")  # no numpy loaded: no numpy parts
    if np is not None and isinstance(part, np.ndarray):
        a = np.ascontiguousarray(part)
        h.update(b"<nd>")
        h.update(str(a.dtype).encode())
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


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`KernelCache`.

    Attributes
    ----------
    hits / misses:
        Lookup outcomes since construction (or the last counter reset).
        A disabled cache counts every lookup as a miss.
    entries:
        Values currently stored.
    """

    hits: int
    misses: int
    entries: int

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        """Hits per lookup in [0, 1]; 0.0 before any lookup."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def delta(self, earlier):
        """Counter movement since an ``earlier`` snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            entries=self.entries,
        )

    def as_dict(self):
        return {"hits": self.hits, "misses": self.misses,
                "entries": self.entries}


class KernelCache:
    """In-process LRU store for kernel results, keyed by content.

    Parameters
    ----------
    enabled:
        A disabled cache never stores and reports every lookup as a
        miss; callers need no branching.
    max_entries:
        Optional LRU bound (``None`` = unbounded; suite matrices are
        tiny, so the default is safe for experiment-sized runs).
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
        copies -- :meth:`stats` is a view over them.
    """

    def __init__(self, enabled=True, max_entries=None, disk=None,
                 metrics=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.enabled = bool(enabled)
        self.max_entries = max_entries
        self.disk = disk if self.enabled else None
        self.metrics = metrics
        self._store = OrderedDict()
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
            self._store.move_to_end(key)
            return self._store[key], TIER_MEMORY
        self._misses.inc()
        if disk and self.disk is not None:
            value = self.disk.get(key)
            if value is not MISS:
                return self._remember(key, value), TIER_DISK
        return MISS, TIER_MISS

    def peek(self, key):
        """Like :meth:`lookup` but without touching the counters (for
        probing several assembly strategies before committing to one)."""
        if not self.enabled:
            return MISS
        return self._store.get(key, MISS)

    def put(self, key, value, disk=True):
        """Store a value (no-op when disabled). Returns the value, so
        ``return cache.put(key, compute())`` reads naturally. Writes
        through to the disk tier unless ``disk=False``."""
        if self.enabled:
            self._remember(key, value)
            if disk and self.disk is not None:
                self.disk.put(key, value)
        return value

    def _remember(self, key, value):
        """Memory-tier insert + LRU bound (no disk side effects)."""
        self._store[key] = value
        self._store.move_to_end(key)
        if self.max_entries is not None:
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
        return value

    def get_or_compute(self, key, compute, disk=True):
        """The cached value for ``key``, computing and storing on miss."""
        value = self.lookup(key, disk=disk)
        if value is MISS:
            value = self.put(key, compute(), disk=disk)
        return value

    # -- bookkeeping -------------------------------------------------------

    def stats(self):
        """Current :class:`CacheStats` snapshot (a view over the
        registry's ``cache_hits``/``cache_misses`` counters)."""
        return CacheStats(hits=self._hits.value, misses=self._misses.value,
                          entries=len(self._store))

    def reset_counters(self):
        """Zero the hit/miss counters (entries stay)."""
        self._hits.reset()
        self._misses.reset()

    def clear(self):
        """Drop every entry and zero the counters."""
        self._store.clear()
        self.reset_counters()

    def __len__(self):
        return len(self._store)

    def __contains__(self, key):
        return key in self._store
