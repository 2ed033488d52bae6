"""Observability for the scoring pipeline (DESIGN.md section 10).

* :mod:`repro.obs.trace` -- nested, ``perf_counter_ns``-timestamped
  spans with attributes; a thread-safe in-process collector; a shared
  no-op handle that makes permanently-wired instrumentation free while
  tracing is off; and cross-process collection (workers buffer spans
  locally, ship them back piggybacked on task results through the
  pool's pickle pipe, and the owner re-parents them under the
  dispatching ``parallel.map`` span).
* :mod:`repro.obs.metrics` -- the unified
  :class:`~repro.obs.metrics.MetricsRegistry` behind every
  engine-layer counter:
  kernel-cache hits, disk-tier traffic, pool lifecycle events.
  ``SuiteScorecard.details["engine"]`` is a ``snapshot()``/``delta()``
  view over it.
* :mod:`repro.obs.export` -- JSONL span logs and Chrome
  ``chrome://tracing`` trace-event JSON.
* :mod:`repro.obs.manifest` -- run manifests written next to every
  trace: argv, resolved config + digest, git describe, versions.
* :mod:`repro.obs.summary` -- the ``repro obs summary`` report: top
  spans by self time, per-kernel cache-tier hit rates, pool
  utilization.
* :mod:`repro.obs.history` -- the longitudinal layer (DESIGN.md
  section 15): an append-only run-history store keyed by config
  digest, bit-exact run diffing over the wire records
  (:func:`repro.service.protocol.record_diff`), and
  trajectory regression gates (``repro obs history`` / ``diff`` /
  ``check``). The recorder those runs publish into
  (:class:`~repro.obs.trace.HistoryRecorder`, :func:`publish`,
  ``install_recorder``) lives in :mod:`repro.obs.trace`, next to the
  tracer, so handlers publish without importing the store.

The hard invariant (enforced by ``repro qa``'s ``traced`` and
``recorded`` rows): tracing on vs off is bit-identical in every score
output, and so is history recording on vs off. Spans and history
records observe; they never perturb.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.export": (
        "FORMAT_CHROME", "FORMAT_JSONL", "FORMATS", "chrome_events",
        "load_spans", "load_spans_tolerant", "write_trace",
    ),
    "repro.obs.history": (
        "HistoryStore", "RunDiff", "TrajectoryFinding", "build_record",
        "check_trajectories", "check_trajectory", "diff_records",
        "render_diff", "render_history", "window_trajectory",
    ),
    "repro.obs.manifest": (
        "build_manifest", "config_digest", "load_manifest", "manifest_path",
        "resolved_env", "write_manifest",
    ),
    "repro.obs.metrics": (
        "Counter", "MetricsRegistry", "MetricsSnapshot",
    ),
    "repro.obs.summary": ("render_summary", "summarize_file"),
    "repro.obs.trace": (
        "HistoryRecorder", "NOOP_SPAN", "ShippedSpans", "SpanRecord",
        "Tracer", "current_recorder", "current_tracer", "enabled",
        "install", "install_recorder", "publish", "span", "swap",
        "uninstall", "uninstall_recorder", "validate_spans",
    ),
})
