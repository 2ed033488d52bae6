"""Memoizing, parallel scoring engine behind the Perspector facade.

* :mod:`repro.engine.cache` -- content-addressed kernel cache: results
  keyed by the SHA-256 of the input arrays' bytes plus every config knob
  that affects the output, so a kernel entry cannot go stale.
* :mod:`repro.engine.diskcache` -- on-disk second tier under the same
  keys (``--cache-dir`` / ``$REPRO_CACHE_DIR``): atomic, size-capped
  LRU files that let warm starts survive across processes and CLI
  invocations. It also holds measured suites and whole scorecards,
  keyed by suite name and settings rather than by input bytes; every
  entry carries the digest of the package source that wrote it, and
  reads as a miss under any other code.
* :mod:`repro.engine.parallel` -- :func:`~repro.engine.parallel.parallel_map`,
  deterministic fan-out over the process-wide ``spawn`` pool with
  input-order reassembly.
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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.cache": (
        "MISS", "KernelCache", "array_digest", "content_key",
    ),
    "repro.engine.diskcache": ("DiskCache",),
    "repro.engine.engine": ("Engine",),
    "repro.engine.subset_eval": (
        "SubsetEvaluator", "SubsetSearch", "SubsetSearchResult",
    ),
})
