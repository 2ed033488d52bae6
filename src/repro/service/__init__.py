"""Perspector-as-a-service: the warm scoring daemon (DESIGN.md §12).

* :mod:`repro.service.app` -- :class:`ScoringService`, a stdlib-asyncio
  HTTP/JSON daemon keeping one shared :class:`~repro.engine.Engine`
  (persistent pool, kernel cache, disk tier) hot across requests, plus
  :class:`ServiceThread`, the in-process harness tests drive real HTTP
  traffic through.
* :mod:`repro.service.http` -- the minimal HTTP/1.1 slice it speaks.
* :mod:`repro.service.protocol` -- bit-exact JSON wire format: every
  score travels both as a JSON number and as its IEEE-754 bit pattern,
  so a served scorecard can be diffed bit-for-bit against a local one.
* :mod:`repro.service.client` -- the blocking :class:`ServiceClient`
  behind ``repro client`` (bounded connect/read timeouts and retry
  with backoff, so a dead daemon fails fast with
  :class:`ServiceConnectionError`).

The daemon's invariant, enforced by ``repro.qa.service_check`` /
``make serve-smoke``: a scorecard served over HTTP is bit-identical to
the one-shot ``repro score`` output at any worker count and cache
state, warm requests hit the shared caches (visible in
``GET /v1/metrics``), and shutdown leaks no shm segments or disk-cache
tmp orphans.
"""

from repro.service.app import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    RequestError,
    ScoringService,
    ServiceThread,
)
from repro.service.client import (
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ServedScorecard,
    decode_scorecard,
    encode_array,
    encode_comparison,
    encode_counter_matrix,
    encode_scorecard,
    encode_search_result,
    encode_subset_report,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "PROTOCOL_VERSION",
    "RequestError",
    "ScoringService",
    "ServedScorecard",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceThread",
    "decode_scorecard",
    "encode_array",
    "encode_comparison",
    "encode_counter_matrix",
    "encode_scorecard",
    "encode_search_result",
    "encode_subset_report",
]
