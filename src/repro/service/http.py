"""Minimal HTTP/1.1 plumbing for the scoring daemon.

The service speaks a deliberately small slice of HTTP: one request per
connection (``Connection: close``), JSON bodies sized by
``Content-Length``, no chunked transfer, no TLS. That slice is exactly
what :mod:`http.client` (the blocking client) and curl produce, keeps
the parser auditable, and needs nothing outside the stdlib -- the repo
ships no new dependencies.

Responses are serialized with ``sort_keys=True`` so a given payload is
byte-stable across runs: the service's determinism story extends to
the wire, not just the floats inside it.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

#: Upper bound on a request body. Scoring requests are a few hundred
#: bytes of JSON; anything near the cap is a confused peer.
MAX_BODY_BYTES = 1 << 20

#: Per-line limit handed to ``asyncio.start_server`` -- bounds the
#: request line and each header line.
LINE_LIMIT = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(ValueError):
    """A request the server refuses to interpret (maps to 400)."""


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict
    body: bytes

    def json(self):
        """The body decoded as a JSON object (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        return payload


async def read_request(reader):
    """Parse one request off ``reader``; ``None`` on clean EOF before a
    request line, :class:`ProtocolError` on anything malformed."""
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise ProtocolError("request line too long")
    if not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {line!r}")
    method, path, _version = parts
    headers = {}
    while True:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise ProtocolError("header line too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ProtocolError("non-integer Content-Length")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable Content-Length {length}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("request body shorter than Content-Length")
    return Request(method=method.upper(), path=path, headers=headers,
                   body=body)


def response_bytes(status, payload):
    """One complete HTTP/1.1 response (headers + JSON body) as bytes."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body
