"""Memoizing, parallel scoring engine behind the Perspector facade.

* :mod:`repro.engine.cache` -- content-addressed kernel cache: results
  keyed by the SHA-256 of the input arrays' bytes plus every config knob
  that affects the output, so stale hits are impossible by construction.
* :mod:`repro.engine.diskcache` -- on-disk second tier under the same
  keys (``--cache-dir`` / ``$REPRO_CACHE_DIR``): atomic, versioned,
  size-capped LRU files that let warm starts survive across processes
  and CLI invocations.
* :mod:`repro.engine.parallel` -- deterministic fan-out over a
  persistent ``spawn`` process pool with input-order reassembly.
* :mod:`repro.engine.shm` -- shared-memory operand transport: large
  read-only arrays are published once per fan-out under their content
  digest and workers attach zero-copy instead of receiving pickled
  copies.
* :mod:`repro.engine.engine` -- :class:`Engine`, which wires both under
  the Section III score kernels (normalized series sets, DTW matrices
  and pairs, PCA/coverage, per-k K-means) and exposes suite-level
  scoring used by ``Perspector`` and the experiment drivers.
* :mod:`repro.engine.subset_eval` -- :class:`SubsetEvaluator`, which
  precomputes the full-suite kernels once and scores any candidate
  subset by index slicing (bit-identical to the from-scratch
  shared-bounds path), and :class:`SubsetSearch`, the multi-candidate
  LHS/random/swap search driver behind ``repro subset --search``.

The engine is a pure accelerator: with the cache off and one worker it
runs exactly today's serial path, and every acceleration preserves
bit-identical scorecards (checked by ``repro.qa.determinism``).
"""

from repro.engine.cache import (
    MISS,
    CacheStats,
    KernelCache,
    array_digest,
    content_key,
)
from repro.engine.diskcache import DiskCache
from repro.engine.engine import Engine
from repro.engine.parallel import ParallelExecutor
from repro.engine.shm import ShmRef, ShmStore, leaked_segments
from repro.engine.subset_eval import (
    SubsetEvaluator,
    SubsetSearch,
    SubsetSearchResult,
)

__all__ = [
    "MISS",
    "CacheStats",
    "DiskCache",
    "KernelCache",
    "ShmRef",
    "ShmStore",
    "array_digest",
    "content_key",
    "leaked_segments",
    "Engine",
    "ParallelExecutor",
    "SubsetEvaluator",
    "SubsetSearch",
    "SubsetSearchResult",
]
