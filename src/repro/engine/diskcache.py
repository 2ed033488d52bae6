"""On-disk cache tier under the engine's keys.

The in-process :class:`~repro.engine.cache.KernelCache` evaporates when
the process exits, so every CLI invocation (and every spawned worker)
starts cold. :class:`DiskCache` persists results across processes under
the same SHA-256 keys, and entries are safe to share between concurrent
processes.

**Keys and staleness.** Two kinds of key live here. Kernel results are
keyed by the SHA-256 of their input arrays' bytes plus every knob that
affects the output, so a changed input can never hit a stale entry.
Measured suites (``"measured-suite"``) and whole scorecards
(``"scorecard"``, see :mod:`repro.experiments.runner`) are keyed by
suite *name* and settings instead: the measurement fields, and for a
scorecard also ``metric_seed`` and the focus. Those entries are right
only for the code that wrote them, so every entry's header carries
:func:`source_digest`, the SHA-256 of the whole ``repro`` package's
source. An entry written by other code reads as a miss and is deleted:
any edit to the suite models, the simulator, the scoring code or this
file's own layout (and the payload codec in
:mod:`repro.service.protocol`) retires every entry, with no rule for
anyone to remember.

**What persists.** Results a later run asks for: full-suite kernel
results, measured suites, whole scorecards and a subset search's
per-candidate :class:`~repro.core.subset.SubsetReport`. Intermediates
used once stay in memory: DTW pairs (one file per float would drown
the tier) and everything a subset candidate computes on the way to its
report -- its normalized series, DTW matrices, K-means labels and
silhouette distances (the subset evaluator scores candidates under
:meth:`~repro.engine.cache.KernelCache.memory_only`). Writing those
cost more than recomputing them, and almost none were read back.

**Payloads** are scalars, ndarrays, flat sequences of ndarrays,
:class:`~repro.core.matrix.CounterMatrix` (the measured suites
themselves, so a warm CLI run skips simulation),
:class:`~repro.core.report.SuiteScorecard` and
:class:`~repro.core.subset.SubsetReport`. Every file is

* one JSON header line -- magic, a ``version`` holding the writing
  code's :func:`source_digest`, payload metadata, array count (an entry
  written by other code reads as a miss and is deleted);
* the arrays, raw :func:`np.lib.format.write_array` streams
  (``allow_pickle=False`` both ways -- a cache directory is shared
  state and must never execute on read).

Scalars are stored as 0-d float64/int64 arrays, so round-trips are
bit-exact. A scorecard has no arrays at all: its header carries
:func:`repro.service.protocol.scorecard_record`, every float as its
IEEE-754 hex bits, so reading one back needs neither numpy nor the
simulator (the disk-warm ``repro score`` path). A subset report is
stored the same way, through
:func:`repro.service.protocol.subset_report_record`. Values outside the
payload grammar (kernel-result dataclasses, ...) are simply not
persisted (:func:`encode` returns ``None``) and recomputed --
correctness never depends on the tier.

**Writes are atomic**: payload to a ``*.tmp`` file in the same
directory, then :func:`os.replace`. A crash or KeyboardInterrupt
mid-write leaves only a ``*.tmp`` orphan, never a partial file visible
under a valid key; ``repro qa`` checks for stale orphans
(:func:`stale_artifacts`) and :meth:`DiskCache.put` sweeps expired ones
opportunistically.

**Concurrent writers are safe** -- pool workers, a scoring daemon and
CLI invocations may share one ``--cache-dir``, possibly over network
storage (DESIGN.md section 9). There is no separate index file to corrupt: the directory *is*
the LRU index (mtimes order it), so the only shared-write hazards are
the tmp file and the final rename. Tmp names carry a host discriminator
plus pid plus a process-local sequence (two hosts on shared storage
can collide on pid alone), and a racing :func:`os.replace` -- possible
on filesystems where rename-over-existing is not atomic -- is retried,
then conceded as a benign lost race when the competing writer's entry
is already in place (one key always maps to the same bytes;
``disk_put_races`` counts concessions).

**Eviction** is size-capped LRU on mtime: every hit touches the entry,
and a put that pushes the tier past ``max_bytes`` removes
least-recently-used entries until it fits.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import time

from repro.engine.cache import MISS

_MAGIC = "repro-diskcache"

#: The one subdirectory of a cache root that holds entries.
_ENTRIES = "entries"

#: Default size cap -- 1 GiB of kernel results.
DEFAULT_MAX_BYTES = 1 << 30

#: ``*.tmp`` orphans older than this (seconds) are presumed dead writers
#: and swept; younger ones may be a live concurrent write.
STALE_TMP_SECONDS = 3600.0

#: Attempts for a racing :func:`os.replace` before giving up.
_REPLACE_ATTEMPTS = 3

_TMP_SEQUENCE = itertools.count()
_HOST_TAG = None


@functools.cache
def source_digest():
    """SHA-256 over the relative path and bytes of every ``.py`` file
    in the ``repro`` package (``__pycache__`` and hidden directories
    skipped), computed once per process. The code that wrote an entry
    is the code it is valid for."""
    package = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = []
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = [d for d in dirnames
                       if d != "__pycache__" and not d.startswith(".")]
        files.extend(os.path.join(dirpath, name) for name in filenames
                     if name.endswith(".py"))
    digest = hashlib.sha256()
    for relative, path in sorted(
            (os.path.relpath(path, package).replace(os.sep, "/"), path)
            for path in files):
        with open(path, "rb") as f:
            data = f.read()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _writer_tag():
    """Unique-per-writer tmp-file suffix: an 8-hex host discriminator,
    the pid, and a process-local sequence number. Pid alone is not
    unique when two hosts share one cache directory over the network."""
    global _HOST_TAG
    if _HOST_TAG is None:
        if hasattr(os, "uname"):
            host = os.uname().nodename
        else:
            import socket

            host = socket.gethostname()
        _HOST_TAG = hashlib.sha256(
            host.encode("utf-8", "replace")).hexdigest()[:8]
    return f"{_HOST_TAG}-{os.getpid()}-{next(_TMP_SEQUENCE)}"


# -- payload grammar ---------------------------------------------------------


def encode(value):
    """``(meta, arrays)`` for a supported value, else ``None``."""
    import numpy as np

    if isinstance(value, bool):
        return None  # not a kernel result; keep the grammar numeric
    if isinstance(value, (int, np.integer)):
        scalar = np.int64(int(value))
        return {"type": "int"}, [np.asarray(scalar)]
    if isinstance(value, (float, np.floating)):
        scalar = np.float64(float(value))
        return {"type": "float"}, [np.asarray(scalar)]
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            return None
        return {"type": "array"}, [value]
    if isinstance(value, (list, tuple)):
        if not all(
            isinstance(a, np.ndarray) and not a.dtype.hasobject
            for a in value
        ):
            return None
        kind = "list" if isinstance(value, list) else "tuple"
        return {"type": "array-seq", "seq": kind}, list(value)
    from repro.core.matrix import CounterMatrix
    from repro.core.report import SuiteScorecard

    if isinstance(value, SuiteScorecard):
        from repro.service.protocol import scorecard_record

        return {"type": "scorecard", "card": scorecard_record(value)}, []
    # Only a process that imported repro.core.subset can hold a report.
    subset = sys.modules.get("repro.core.subset")
    if subset is not None and isinstance(value, subset.SubsetReport):
        from repro.service.protocol import subset_report_record

        return {"type": "subset-report",
                "report": subset_report_record(value)}, []
    if isinstance(value, CounterMatrix):
        arrays = [value.values]
        counts = {}
        for event in value.events:
            series_list = value.series.get(event)
            if series_list is None:
                continue
            if not all(isinstance(s, np.ndarray) for s in series_list):
                return None
            counts[str(event)] = len(series_list)
            arrays.extend(series_list)
        meta = {
            "type": "counter-matrix",
            "workloads": [str(w) for w in value.workloads],
            "events": [str(e) for e in value.events],
            "suite_name": value.suite_name,
            "series_counts": counts,
        }
        return meta, arrays
    return None


def decode(meta, arrays):
    """Rebuild a value from its header metadata + array list."""
    kind = meta["type"]
    if kind == "int":
        return int(arrays[0][()])
    if kind == "float":
        return float(arrays[0][()])
    if kind == "array":
        return arrays[0]
    if kind == "array-seq":
        return list(arrays) if meta["seq"] == "list" else tuple(arrays)
    if kind == "scorecard":
        from repro.service.protocol import decode_stored_scorecard

        return decode_stored_scorecard(meta["card"])
    if kind == "subset-report":
        from repro.service.protocol import decode_subset_report

        return decode_subset_report(meta["report"])
    if kind == "counter-matrix":
        from repro.core.matrix import CounterMatrix

        events = tuple(meta["events"])
        series = {}
        cursor = 1
        for event in events:
            count = meta["series_counts"].get(event)
            if count is None:
                continue
            series[event] = list(arrays[cursor:cursor + count])
            cursor += count
        return CounterMatrix(
            workloads=tuple(meta["workloads"]),
            events=events,
            values=arrays[0],
            series=series,
            suite_name=meta["suite_name"],
        )
    raise ValueError(f"unknown disk-cache payload type {kind!r}")


# -- the tier -----------------------------------------------------------------


class DiskCache:
    """Content-keyed persistent store under one directory.

    Parameters
    ----------
    root:
        Cache directory (created on demand). Entries live under its
        ``entries`` subdirectory, fanned out by the first two key hex
        digits.
    max_bytes:
        Size cap; LRU-evicted on overflow.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to count
        into (the owning engine shares one registry across its layers);
        a private registry is created when omitted. The ``disk_*``
        counters there are the tier's only counts.
    """

    def __init__(self, root, max_bytes=DEFAULT_MAX_BYTES, metrics=None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.root = os.path.abspath(os.fspath(root))
        self.max_bytes = max_bytes
        self.metrics = metrics
        self._dir = os.path.join(self.root, _ENTRIES)
        self._digest = source_digest()
        self._bytes = None  # lazily summed, then tracked incrementally
        self._hits = metrics.counter("disk_hits")
        self._misses = metrics.counter("disk_misses")
        self._writes = metrics.counter("disk_writes")
        self._evictions = metrics.counter("disk_evictions")
        self._put_races = metrics.counter("disk_put_races")

    # -- paths -------------------------------------------------------------

    def _path(self, key):
        return os.path.join(self._dir, key[:2], f"{key}.bin")

    # -- read --------------------------------------------------------------

    def get(self, key):
        """The stored value for ``key``, or :data:`MISS`.

        Any read failure -- missing file, truncated payload, magic
        mismatch, an entry written by other code, undecodable array --
        counts as a miss, and such a file is deleted so it cannot fail
        again.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                line = f.readline()
                if not line.endswith(b"\n"):
                    # An entry without arrays is its header alone, so
                    # the newline is what tells it from a truncation.
                    raise ValueError("truncated header")
                header = json.loads(line.decode("utf-8"))
                if header.get("magic") != _MAGIC:
                    raise ValueError("bad magic")
                if header.get("version") != self._digest:
                    raise ValueError("written by other code")
                arrays = []
                if header["n_arrays"]:
                    # A scorecard entry has no arrays: its hit path
                    # never imports numpy.
                    import numpy as np

                    arrays = [
                        np.lib.format.read_array(f, allow_pickle=False)
                        for _ in range(header["n_arrays"])
                    ]
            value = decode(header["meta"], arrays)
        except FileNotFoundError:
            self._misses.inc()
            return MISS
        # A cache entry is untrusted input: any decode failure -- bad
        # JSON, bad magic, short read, npy format error -- must read as
        # a miss, not crash the scoring run.
        except Exception:  # qa-ignore[overbroad-except]
            self._misses.inc()
            self._remove(path)
            return MISS
        self._hits.inc()
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        return value

    # -- write -------------------------------------------------------------

    def put(self, key, value):
        """Persist a supported value under ``key``; returns whether it
        was stored. Unsupported values are skipped (not an error)."""
        import numpy as np

        encoded = encode(value)
        if encoded is None:
            return False
        meta, arrays = encoded
        path = self._path(key)
        if os.path.exists(path):
            # Content-addressed: same key, same bytes -- no rewrite
            # needed. But a re-put is a *use*: without the same LRU
            # touch `get` performs, an entry recomputed by a second
            # process would keep its cold mtime and be evicted first
            # despite being demonstrably hot.
            try:
                os.utime(path)
            except OSError:
                pass
            return False
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(directory, f".{key}.{_writer_tag()}.tmp")
        header = {
            "magic": _MAGIC,
            "version": self._digest,
            "n_arrays": len(arrays),
            "meta": meta,
        }
        try:
            with open(tmp, "wb") as f:
                f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
                f.write(b"\n")
                for a in arrays:
                    if not a.flags.c_contiguous:
                        # note: np.ascontiguousarray would also promote
                        # 0-d scalars to 1-d; restore the true shape so
                        # decode round-trips exactly
                        a = np.ascontiguousarray(a).reshape(a.shape)
                    np.lib.format.write_array(f, a, allow_pickle=False)
            size = os.path.getsize(tmp)
            if not self._commit(tmp, path):
                return False
        except BaseException:
            self._remove(tmp)
            raise
        self._writes.inc()
        if self._bytes is not None:
            self._bytes += size
        self._evict_if_needed()
        return True

    def _commit(self, tmp, path):
        """Rename ``tmp`` into place; returns whether *this* writer's
        bytes landed. A failing rename is retried; if a concurrent
        writer's entry appears under the key meanwhile, the race is
        conceded (same key means same bytes) with an LRU touch, exactly
        like the re-put path above."""
        for attempt in range(_REPLACE_ATTEMPTS):
            try:
                os.replace(tmp, path)
                return True
            except OSError:
                if os.path.exists(path):
                    self._remove(tmp)
                    self._put_races.inc()
                    try:
                        os.utime(path)
                    except OSError:
                        pass
                    return False
                if attempt == _REPLACE_ATTEMPTS - 1:
                    raise
                # Transient rename failure (network fs hiccup); the
                # pause is bounded and tiny.
                time.sleep(0.01 * (attempt + 1))
        return False

    # -- eviction ----------------------------------------------------------

    def _entries(self):
        """``(mtime, size, path)`` for every committed entry; sweeps
        expired ``*.tmp`` orphans on the way."""
        out = []
        # Wall-clock staleness cutoff, not a timing measurement: tmp
        # orphans are judged against file mtimes, which share this clock.
        now = time.time()  # qa-ignore[obs-discipline]
        for dirpath, _dirnames, filenames in os.walk(self._dir):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                if filename.endswith(".tmp"):
                    if now - stat.st_mtime > STALE_TMP_SECONDS:
                        self._remove(path)
                    continue
                out.append((stat.st_mtime, stat.st_size, path))
        return out

    def _evict_if_needed(self):
        if self.max_bytes is None:
            return
        if self._bytes is None or self._bytes > self.max_bytes:
            entries = self._entries()
            self._bytes = sum(size for _mtime, size, _path in entries)
            if self._bytes <= self.max_bytes:
                return
            for _mtime, size, path in sorted(entries):
                self._remove(path)
                self._bytes -= size
                self._evictions.inc()
                if self._bytes <= self.max_bytes:
                    break

    @staticmethod
    def _remove(path):
        try:
            os.remove(path)
        except OSError:
            pass

    # -- bookkeeping -------------------------------------------------------

    def __len__(self):
        return len(self._entries())


def stale_artifacts(root):
    """Paths of ``*.tmp`` write orphans anywhere under a cache root --
    the ``repro qa`` stale-lock check (a clean run leaves none: writers
    either rename their tmp into place or unlink it in ``finally``)."""
    out = []
    for dirpath, _dirnames, filenames in os.walk(os.path.abspath(root)):
        out.extend(
            os.path.join(dirpath, f) for f in filenames
            if f.endswith(".tmp")
        )
    return sorted(out)
