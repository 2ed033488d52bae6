"""Perspector-as-a-service: the warm scoring daemon (DESIGN.md §12).

* :mod:`repro.service.app` -- :class:`ScoringService`, a stdlib-asyncio
  HTTP/JSON daemon keeping one shared :class:`~repro.engine.Engine`
  (persistent pool, kernel cache, disk tier) hot across requests, plus
  :class:`ServiceThread`, the in-process harness (a context manager:
  start on entry, shutdown and join on exit) that tests and ``repro
  qa`` drive real HTTP traffic through.
* :mod:`repro.service.http` -- the minimal HTTP/1.1 slice it speaks.
* :mod:`repro.service.protocol` -- bit-exact JSON wire format: every
  score travels both as a JSON number and as its IEEE-754 bit pattern,
  and every comparison of score results diffs these records
  (``flatten`` / ``record_diff``), a served scorecard against a local
  one included.
* :mod:`repro.service.client` -- the blocking :class:`ServiceClient`
  behind ``repro client`` (bounded connect/read timeouts and retry
  with backoff, so a dead daemon fails fast with
  :class:`ServiceConnectionError`).

The daemon's invariant, enforced by the served rows of ``repro qa``
(:func:`repro.qa.determinism.check_served`): a scorecard served over
HTTP is bit-identical to the one-shot ``repro score`` output at any
worker count and cache state, warm requests hit the shared caches
(visible in ``GET /v1/metrics``), and shutdown leaks no pool processes
or disk-cache tmp orphans.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.app": ("RequestError", "ScoringService", "ServiceThread"),
    "repro.service.client": (
        "ServiceClient", "ServiceConnectionError", "ServiceError",
    ),
    "repro.service.protocol": (
        "DEFAULT_HOST", "DEFAULT_PORT", "PROTOCOL_VERSION",
        "decode_stored_scorecard", "encode_array", "encode_comparison",
        "encode_counter_matrix", "encode_scorecard", "encode_search_result",
        "encode_subset_report",
    ),
})
