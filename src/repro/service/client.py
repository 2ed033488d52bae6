"""Blocking client for the scoring daemon.

One small wrapper over :mod:`http.client` -- no new dependencies, one
connection per call (the server speaks ``Connection: close``), JSON in
and out, protocol-version checked. Used by the ``repro client``
subcommand, the service tests, and the served rows of ``repro qa``.

Transport failures are bounded: the connect phase runs under its own
(short) timeout, reads under the request timeout, and connection-level
errors are retried a bounded number of times with exponential backoff
before :class:`ServiceConnectionError` is raised -- a dead daemon
fails fast and loudly instead of hanging the caller. HTTP-level errors
(:class:`ServiceError`) are never retried: the daemon answered; asking
again would not change the answer.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    PROTOCOL_VERSION,
)


class ServiceError(RuntimeError):
    """A non-2xx (or protocol-incompatible) response from the daemon."""

    def __init__(self, status, message):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceConnectionError(ServiceError):
    """The daemon could not be reached (or the connection died) within
    the configured attempts -- raised after the retry budget is spent,
    carrying the last underlying error."""

    def __init__(self, host, port, attempts, cause):
        RuntimeError.__init__(
            self,
            f"cannot reach scoring daemon at {host}:{port} after "
            f"{attempts} attempt(s): {cause}",
        )
        self.status = None
        self.message = str(cause)
        self.host = host
        self.port = port
        self.attempts = attempts
        self.cause = cause


class ServiceClient:
    """Talk to one running :class:`~repro.service.app.ScoringService`.

    Parameters
    ----------
    host / port:
        Where the daemon listens (defaults match ``repro serve``).
    timeout:
        Read timeout per request, seconds. Scoring a cold full-preset
        suite takes a while; the default is generous.
    connect_timeout:
        Timeout for establishing the TCP connection, seconds. Kept
        short and separate from ``timeout`` so an unreachable daemon
        fails in seconds, not minutes.
    retries:
        Additional attempts after a connection-level failure (refused,
        reset, timed out). Requests are idempotent scoring reads, so
        retrying a request whose response was lost is safe. HTTP-level
        errors are never retried.
    backoff:
        Base sleep before the first retry, seconds; doubles per retry.
    """

    def __init__(self, host=DEFAULT_HOST, port=DEFAULT_PORT,
                 timeout=600.0, connect_timeout=10.0, retries=2,
                 backoff=0.2):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff

    def _request(self, method, path, payload=None):
        last_error = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                return self._request_once(method, path, payload)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
        raise ServiceConnectionError(self.host, self.port,
                                     self.retries + 1, last_error)

    def _request_once(self, method, path, payload):
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout,
        )
        try:
            connection.connect()
            if connection.sock is not None:
                connection.sock.settimeout(self.timeout)
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            status = response.status
            raw = response.read()
        finally:
            connection.close()
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ServiceError(status, f"undecodable response body "
                                       f"({raw[:200]!r})")
        if envelope.get("protocol") != PROTOCOL_VERSION:
            raise ServiceError(status, f"protocol mismatch: server spoke "
                                       f"{envelope.get('protocol')!r}, "
                                       f"client speaks {PROTOCOL_VERSION}")
        if status >= 400 or not envelope.get("ok"):
            raise ServiceError(status, envelope.get("error", "unknown"))
        return envelope["result"]

    # -- endpoints ---------------------------------------------------------

    def health(self):
        return self._request("GET", "/v1/health")

    def metrics(self):
        return self._request("GET", "/v1/metrics")

    def history(self):
        """The daemon's recorded-run summaries (``GET /v1/history``):
        ``{"enabled": bool, "runs": [...]}``, oldest run first."""
        return self._request("GET", "/v1/history")

    def score(self, suite, focus="all"):
        """The raw ``/v1/score`` result payload."""
        return self._request("POST", "/v1/score",
                             {"suite": suite, "focus": focus})

    def compare(self, suites, focus="all"):
        return self._request("POST", "/v1/compare",
                             {"suites": list(suites), "focus": focus})

    def subset(self, suite, size=8, search=None, method="lhs"):
        payload = {"suite": suite, "size": size, "method": method}
        if search is not None:
            payload["search"] = search
        return self._request("POST", "/v1/subset", payload)

    def shutdown(self):
        """Ask the daemon to drain and stop."""
        return self._request("POST", "/v1/shutdown")
