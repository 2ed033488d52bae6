"""The scoring daemon: one warm :class:`~repro.engine.Engine`, served.

Everything the one-shot CLI can do dies with its process -- the
worker pool, the in-process kernel cache and the disk tier
all start cold on every invocation. :class:`ScoringService` keeps one
shared engine hot across requests and exposes the CLI's scoring
surface over HTTP/JSON (DESIGN.md section 12):

``POST /v1/score``
    ``{"suite": name, "focus": "all"}`` -- one suite's scorecard,
    exactly the ``repro score`` semantics.
``POST /v1/compare``
    ``{"suites": [...], "focus": "all"}`` -- jointly-normalized
    comparison, exactly ``repro compare``.
``POST /v1/subset``
    ``{"suite": name, "size": 8, "search": N?, "method": "lhs"}`` --
    LHS subset report, or the multi-candidate sliced search when
    ``search`` is given; exactly ``repro subset``.
``GET /v1/metrics``
    Live :class:`~repro.obs.metrics.MetricsRegistry` snapshot of the
    shared engine (cache tiers, the pool counters of its fan-outs),
    plus the daemon's own request, error and in-flight counts --
    ``repro obs`` as a service surface. The daemon's counts stay off
    the engine's registry, so no served scorecard carries them.
``GET /v1/health``
    Liveness + engine configuration + daemon uptime and per-endpoint
    request counts (a stable identity line for history sampling of a
    live daemon).
``GET /v1/history``
    The daemon's longitudinal run history (:mod:`repro.obs.history`):
    when the service config carries ``history_dir``, every served
    score/compare/subset run is recorded into the same append-only
    store the CLI writes, and this endpoint lists the stored runs
    (``skipped`` names each damaged record file it left out).
``POST /v1/shutdown``
    Graceful stop: the listener closes, in-flight requests drain and
    the scoring thread stops. The worker pool belongs to the process
    (:mod:`repro.engine.parallel`) and is shut down when it exits.

Every scoring request passes ``repro``'s own checks before anything
is measured (a compare names at least two suites, ``2 <= size <=`` the
suite's workload count, ``search >= 1``, known focus and method), and
a failed one is a 400. So is any field a scoring endpoint does not
know, never a silently defaulted answer.

**Admission model.** Connections are admitted concurrently on the
event loop (health/metrics stay responsive mid-scoring), while all
kernel work is funneled through one dedicated scoring thread driving
the single shared engine. Tenants therefore share the
content-addressed caches -- a suite one client scored is warm for
every other client -- and request interleavings can never reorder a
reduction: scoring is serialized, so every response is bit-identical
to the one-shot CLI at any concurrency level, worker count or cache
state (the served rows of ``repro qa`` enforce this).

**One run path.** The handlers adapt JSON in and an envelope out;
the request vocabulary, its checks and the jobs are the CLI's own
(:mod:`repro.experiments.runner`), run against the shared engine, a
pure accelerator, so served scorecards carry the bits the CLI prints.
The CLI's recorder (:func:`~repro.obs.history.record_run`) records
served runs under ``serve:<command>``, digesting the mapping a CLI
record of the same request digests, that command aside.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.experiments.runner import (
    REQUESTS,
    RequestError,
    check_request,
    compare_job,
    score_job,
    subset_job,
)
from repro.obs.history import HistoryStore, record_run
from repro.obs.trace import span
from repro.service import http as service_http
from repro.service import protocol
from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT
from repro.workloads import available_suites


def _encode_subset(outcome):
    kind, result = outcome
    encoded = (protocol.encode_search_result if kind == "search"
               else protocol.encode_subset_report)(result)
    encoded["kind"] = kind
    return encoded


#: Each scoring endpoint's shared job and the encoder of its result.
_SCORING = {
    "score": (score_job, protocol.encode_scorecard),
    "compare": (compare_job, protocol.encode_comparison),
    "subset": (subset_job, _encode_subset),
}


def _checked_request(request, command):
    """The ``command`` request in an HTTP request's JSON body, defaults
    filled in (:data:`~repro.experiments.runner.REQUESTS`) and checked
    (:func:`~repro.experiments.runner.check_request`). A field outside
    the vocabulary is rejected: a misspelt optional field must fail
    loudly, not fall back to its default and answer a different
    question."""
    payload = request.json()
    fields = REQUESTS[command]
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise RequestError(f"unknown field(s) {unknown}; expected a "
                           f"subset of {sorted(fields)}")
    query = {name: payload.get(name, default)
             for name, default in fields.items()}
    check_request(command, query)
    return query


class ScoringService:
    """One shared-engine scoring daemon.

    Parameters
    ----------
    config:
        :class:`~repro.experiments.runner.ExperimentConfig` fixing the
        measurement preset and the engine knobs (``workers``, ``cache``,
        ``cache_dir``) for the daemon's lifetime. Per-request knobs are
        the scoring arguments only (suite, focus, subset size, ...), so
        every tenant shares one cache key space.
    host / port:
        Bind address. ``port=0`` binds an ephemeral port; the bound
        port is published as :attr:`bound_port` once serving.
    """

    def __init__(self, config, host=DEFAULT_HOST, port=DEFAULT_PORT):
        import time

        from repro.engine import Engine

        self.config = config
        self.host = host
        self.port = port
        self.bound_port = None
        self.engine = Engine.from_config(config)
        self._requests = 0
        self._errors = 0
        # Uptime bookkeeping for /v1/health; monotonic for the elapsed
        # measure, wall clock for the identity line. Not a span: the
        # daemon's lifetime is not a unit of scored work.
        self._started_monotonic = time.monotonic()  # qa-ignore[obs-discipline]
        self._started_unix = time.time()  # qa-ignore[obs-discipline]
        self._endpoint_requests = {}
        self._history = (HistoryStore(config.history_dir)
                         if config.history_dir else None)
        # All kernel work funnels through this one thread: concurrent
        # sessions share the engine without interleaving its reductions.
        self._scoring = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-scoring",
        )
        self._active = 0
        self._shutdown = None  # asyncio primitives are loop-bound:
        self._idle = None      # both are created inside serve()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Stop the scoring thread (idempotent). The worker pool is
        the process's and outlives the service."""
        if self._closed:
            return
        self._closed = True
        self._scoring.shutdown(wait=True)

    async def serve(self, on_ready=None):
        """Accept and serve requests until a graceful shutdown is
        requested (``POST /v1/shutdown``, SIGINT or SIGTERM); drain
        in-flight requests, then release every resource."""
        self._shutdown = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._shutdown.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or non-unix: shutdown via HTTP
        try:
            server = await asyncio.start_server(
                self._client_connected, host=self.host, port=self.port,
                limit=service_http.LINE_LIMIT,
            )
        except BaseException:
            self.close()
            raise
        self.bound_port = server.sockets[0].getsockname()[1]
        print(f"repro serve: listening on http://{self.host}:"
              f"{self.bound_port} (workers={self.engine.workers}, "
              f"cache_dir={self.engine.cache_dir})", file=sys.stderr)
        if on_ready is not None:
            on_ready()
        try:
            async with server:
                await self._shutdown.wait()
                server.close()
                await server.wait_closed()
            # Drain: every admitted request finishes and flushes its
            # response before the engine goes away.
            await self._idle.wait()
        finally:
            self.close()
        print("repro serve: drained and shut down cleanly",
              file=sys.stderr)

    def run(self):
        """Blocking entry point (the ``repro serve`` handler): exit
        status 0, or 2 with one stderr line when the address cannot be
        bound (busy port, unknown host, port out of range)."""
        try:
            asyncio.run(self.serve())
        except KeyboardInterrupt:
            self.close()
        except (OSError, OverflowError) as exc:
            # Only the bind can raise these out of serve(): requests
            # fail per connection, and serve() closes itself on a
            # failed bind.
            print(f"repro serve: cannot listen on {self.host}:"
                  f"{self.port}: {exc}", file=sys.stderr)
            return 2
        return 0

    # -- connection handling -----------------------------------------------

    async def _client_connected(self, reader, writer):
        self._active += 1
        self._idle.clear()
        try:
            status, payload = await self._respond(reader, writer)
            if status is not None:
                writer.write(service_http.response_bytes(status, payload))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer went away mid-write / loop tearing down
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._active -= 1
            if self._active == 0:
                self._idle.set()

    async def _respond(self, reader, writer):
        """``(status, envelope)`` for one connection; ``(None, None)``
        when the peer disconnected before sending a request."""
        try:
            request = await service_http.read_request(reader)
        except service_http.ProtocolError as exc:
            return 400, protocol.error_envelope(exc)
        if request is None:
            return None, None
        self._requests += 1
        try:
            with span("service.request", method=request.method,
                      path=request.path):
                return await self._dispatch(request)
        except (service_http.ProtocolError, RequestError) as exc:
            self._errors += 1
            return 400, protocol.error_envelope(exc)
        # The daemon must outlive any single bad request: report the
        # failure to the client and the log, never crash the listener.
        except Exception as exc:  # qa-ignore[overbroad-except]
            self._errors += 1
            traceback.print_exc(file=sys.stderr)
            return 500, protocol.error_envelope(
                f"{type(exc).__name__}: {exc}")

    async def _dispatch(self, request):
        table = self._route_table()
        if request.path not in {path for _m, path, _fn in table}:
            return 404, protocol.error_envelope(
                f"unknown path {request.path!r}")
        for method, path, fn in table:
            if path == request.path and method == request.method:
                key = f"{method} {path}"
                self._endpoint_requests[key] = \
                    self._endpoint_requests.get(key, 0) + 1
                return await fn(request)
        return 405, protocol.error_envelope(
            f"{request.method} not allowed on {request.path}")

    def _route_table(self):
        return (
            *(("POST", f"/v1/{command}", partial(self._handle_scoring,
                                                  command))
              for command in _SCORING),
            ("GET", "/v1/metrics", self._handle_metrics),
            ("GET", "/v1/health", self._handle_health),
            ("GET", "/v1/history", self._handle_history),
            ("POST", "/v1/shutdown", self._handle_shutdown),
        )

    def _recorded(self, command, query):
        """One scoring job on the shared engine (run on the scoring
        thread), recorded into the history store when one is
        configured. A failed append is one stderr note: the request
        itself succeeded."""
        job, _encode = _SCORING[command]
        result, _path, error = record_run(
            f"serve:{command}", self.config, query,
            lambda: job(self.config, query, self.engine),
            history_dir=self.config.history_dir, traced=False,
        )
        if error is not None:
            print(f"repro serve: history append failed: {error}",
                  file=sys.stderr)
        return result

    # -- endpoints ---------------------------------------------------------

    async def _handle_scoring(self, command, request):
        """Check one scoring request, then run its job on the dedicated
        engine thread (the funnel that serializes all kernel work)."""
        query = _checked_request(request, command)
        if self._shutdown.is_set():
            raise RequestError("service is shutting down")
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(self._scoring, self._recorded,
                                            command, query)
        return 200, protocol.ok_envelope(_SCORING[command][1](result))

    async def _handle_metrics(self, request):
        snapshot = self.engine.metrics.snapshot()
        service = {"service_requests": self._requests,
                   "service_errors": self._errors,
                   "service_inflight": self._active}
        return 200, protocol.ok_envelope({
            "values": {**snapshot.as_dict(), **service},
            "kinds": dict(snapshot.kinds,
                          **dict.fromkeys(service, "counter")),
            "cache_entries": len(self.engine.cache),
        })

    async def _handle_health(self, request):
        import time

        uptime = time.monotonic() - self._started_monotonic  # qa-ignore[obs-discipline]
        return 200, protocol.ok_envelope({
            "status": "ok",
            "suites": list(available_suites()),
            "workers": self.engine.workers,
            "cache_enabled": self.engine.cache.enabled,
            "cache_dir": self.engine.cache_dir,
            "requests": self._requests,
            "inflight": self._active,
            "uptime_s": uptime,
            "started_unix": self._started_unix,
            "endpoint_requests": dict(sorted(
                self._endpoint_requests.items())),
            "history_dir": (None if self._history is None
                            else self._history.root),
        })

    async def _handle_history(self, request):
        """Summaries of the daemon's recorded runs, oldest first (the
        full records stay on disk; each summary carries the identity
        fields plus the first scorecard's plain scores)."""
        if self._history is None:
            return 200, protocol.ok_envelope(
                {"enabled": False, "runs": []})
        records, skipped = self._history.scan()
        runs = []
        for record in records:
            cards = record.get("scorecards") or ()
            runs.append({
                "run_id": record.get("run_id"),
                "command": record.get("command"),
                "config_digest": record.get("config_digest"),
                "wall_time_s": record.get("wall_time_s"),
                "created_unix": record.get("created_unix"),
                "scores": (dict(cards[0].get("scores", {}))
                           if cards else {}),
                "score_bits": (dict(cards[0].get("score_bits", {}))
                               if cards else {}),
            })
        return 200, protocol.ok_envelope(
            {"enabled": True, "history_dir": self._history.root,
             "runs": runs, "skipped": skipped})

    async def _handle_shutdown(self, request):
        # The response is written by the connection handler *after*
        # this returns; server.close() only stops new accepts, so the
        # goodbye still reaches the peer before the drain completes.
        self._shutdown.set()
        return 200, protocol.ok_envelope({"status": "shutting down"})


class ServiceThread:
    """A :class:`ScoringService` on a daemon thread -- the harness the
    tests and the served rows of :mod:`repro.qa.determinism` drive real
    HTTP traffic against without a subprocess.

    Use it as a context manager: entering starts it and blocks until
    the listener is bound (so :attr:`port` is valid); leaving POSTs
    ``/v1/shutdown`` unless a shutdown was already requested, then
    joins.
    """

    def __init__(self, config, host=DEFAULT_HOST, port=0):
        self.service = ScoringService(config, host=host, port=port)
        self.error = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True,
        )

    def _run(self):
        try:
            asyncio.run(self.service.serve(on_ready=self._ready.set))
        except BaseException as exc:  # qa-ignore[overbroad-except]
            # Surfaced to the starter / joiner; a daemon thread must
            # not die silently mid-test.
            self.error = exc
            self._ready.set()

    def start(self, timeout=30.0):
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service did not come up in time")
        if self.error is not None:
            raise RuntimeError(f"service failed to start: {self.error!r}")
        return self

    @property
    def host(self):
        return self.service.host

    @property
    def port(self):
        return self.service.bound_port

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        from repro.service.client import ServiceClient

        if self._thread.is_alive() and not self.service._shutdown.is_set():
            ServiceClient(host=self.host, port=self.port).shutdown()
        self.join()

    def join(self, timeout=30.0):
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("service did not shut down in time")
        if self.error is not None:
            raise RuntimeError(f"service died: {self.error!r}")
