"""The scoring daemon: one warm :class:`~repro.engine.Engine`, served.

Everything the one-shot CLI can do dies with its process -- the
persistent worker pool, the in-process kernel cache and the disk tier
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
    ``search`` is given; exactly ``repro subset``, including its bounds
    (``2 <= size <=`` the suite's workload count, ``search >= 1``),
    which are checked before anything is measured.

The three scoring endpoints also accept an optional ``"backend"``
field (``"reference"`` | ``"vectorized"``) selecting the compute
backend for that one request; backends are bit-identical, so the
response bytes never depend on it (``repro qa --serve --backend
vectorized`` enforces that over real HTTP). Any field an endpoint does
not know is a 400 naming it, never a silently defaulted answer.
``GET /v1/metrics``
    Live :class:`~repro.obs.metrics.MetricsRegistry` snapshot of the
    shared engine (cache tiers, shm transport, pool lifecycle, service
    request counters) -- ``repro obs`` as a service surface.
``GET /v1/health``
    Liveness + engine configuration + daemon uptime and per-endpoint
    request counts (a stable identity line for history sampling of a
    live daemon).
``GET /v1/history``
    The daemon's longitudinal run history (:mod:`repro.obs.history`):
    when the service config carries ``history_dir``, every served
    score/compare/subset run is recorded into the same append-only
    store the CLI writes, and this endpoint lists the stored runs.
``POST /v1/shutdown``
    Graceful stop: the listener closes, in-flight requests drain, the
    engine's ``close()`` path tears down pool and shm segments.

**Admission model.** Connections are admitted concurrently on the
event loop (health/metrics stay responsive mid-scoring), while all
kernel work is funneled through one dedicated scoring thread driving
the single shared engine. Tenants therefore share the
content-addressed caches -- a suite one client scored is warm for
every other client -- and request interleavings can never reorder a
reduction: scoring is serialized, so every response is bit-identical
to the one-shot CLI at any concurrency level, worker count or cache
state (``repro.qa.service_check`` enforces this).

**Determinism.** Handlers run the very code paths the CLI handlers
run (:func:`~repro.experiments.runner.measure_suites` +
:func:`~repro.experiments.runner.perspector_for`), just against the
shared engine -- and the engine is a pure accelerator, so served
scorecards carry the same bits the CLI prints.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from repro.obs.trace import span
from repro.service import http as service_http
from repro.service import protocol
from repro.workloads import available_suites, load_suite

#: Default bind address/port of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8641

_FOCUS_CHOICES = ("all", "llc", "tlb", "branch", "core")
_SEARCH_METHODS = ("lhs", "random", "swap")


class RequestError(ValueError):
    """A well-formed HTTP request with unusable contents (maps to 400)."""


def _request_fields(request, allowed):
    """The JSON object body of ``request``, rejecting any field outside
    ``allowed``: a misspelt optional field must fail loudly, not fall
    back to its default and answer a different question."""
    payload = request.json()
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise RequestError(f"unknown field(s) {unknown}; expected a "
                           f"subset of {sorted(allowed)}")
    return payload


def _require_int(payload, name, lo, hi=None, default=None):
    """``payload[name]`` as an int in ``[lo, hi]`` (``bool`` is not an
    int here, whatever Python says)."""
    value = payload.get(name, default)
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < lo or (hi is not None and value > hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise RequestError(f"{name!r} must be an int {bound}, got "
                           f"{value!r}")
    return value


def _require_suite(name):
    known = available_suites()
    if name not in known:
        raise RequestError(f"unknown suite {name!r}; expected one of "
                           f"{sorted(known)}")
    return name


def _require_focus(focus):
    if focus not in _FOCUS_CHOICES:
        raise RequestError(f"unknown focus {focus!r}; expected one of "
                           f"{list(_FOCUS_CHOICES)}")
    return focus


def _require_backend(backend):
    from repro.stats.backend import available_backends

    if backend is None:
        return None
    if backend not in available_backends():
        raise RequestError(f"unknown backend {backend!r}; expected one "
                           f"of {list(available_backends())}")
    return backend


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
        self.metrics = self.engine.metrics
        self._requests = self.metrics.counter("service_requests")
        self._errors = self.metrics.counter("service_errors")
        self._inflight = self.metrics.gauge("service_inflight")
        # Uptime bookkeeping for /v1/health; monotonic for the elapsed
        # measure, wall clock for the identity line. Not a span: the
        # daemon's lifetime is not a unit of scored work.
        self._started_monotonic = time.monotonic()  # qa-ignore[obs-discipline]
        self._started_unix = time.time()  # qa-ignore[obs-discipline]
        self._endpoint_requests = {}
        history_dir = getattr(config, "history_dir", None)
        if history_dir:
            from repro.obs.history import HistoryStore

            self._history = HistoryStore(history_dir)
        else:
            self._history = None
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
        """Tear the scoring thread and the shared engine down
        (idempotent; the engine's ``close()`` shuts the worker pool and
        sweeps shm segments)."""
        if self._closed:
            return
        self._closed = True
        self._scoring.shutdown(wait=True)
        self.engine.close()

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
        server = await asyncio.start_server(
            self._client_connected, host=self.host, port=self.port,
            limit=service_http.LINE_LIMIT,
        )
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
        """Blocking entry point (the ``repro serve`` handler)."""
        try:
            asyncio.run(self.serve())
        except KeyboardInterrupt:
            self.close()
        return 0

    # -- connection handling -----------------------------------------------

    async def _client_connected(self, reader, writer):
        self._active += 1
        self._idle.clear()
        self._inflight.set(self._active)
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
            self._inflight.set(self._active)
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
        self._requests.inc()
        try:
            with span("service.request", method=request.method,
                      path=request.path):
                return await self._dispatch(request)
        except (service_http.ProtocolError, RequestError) as exc:
            self._errors.inc()
            return 400, protocol.error_envelope(exc)
        # The daemon must outlive any single bad request: report the
        # failure to the client and the log, never crash the listener.
        except Exception as exc:  # qa-ignore[overbroad-except]
            self._errors.inc()
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
            ("POST", "/v1/score", self._handle_score),
            ("POST", "/v1/compare", self._handle_compare),
            ("POST", "/v1/subset", self._handle_subset),
            ("GET", "/v1/metrics", self._handle_metrics),
            ("GET", "/v1/health", self._handle_health),
            ("GET", "/v1/history", self._handle_history),
            ("POST", "/v1/shutdown", self._handle_shutdown),
        )

    async def _run_scoring(self, fn, *args):
        """Run one synchronous scoring job on the dedicated engine
        thread (the funnel that serializes all kernel work)."""
        if self._shutdown.is_set():
            raise RequestError("service is shutting down")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._scoring, fn, *args)

    # -- endpoints ---------------------------------------------------------

    async def _handle_score(self, request):
        payload = _request_fields(request, ("suite", "focus", "backend"))
        suite = _require_suite(payload.get("suite"))
        focus = _require_focus(payload.get("focus", "all"))
        backend = _require_backend(payload.get("backend"))
        card = await self._run_scoring(self._score_sync, suite, focus,
                                       backend)
        return 200, protocol.ok_envelope(protocol.encode_scorecard(card))

    async def _handle_compare(self, request):
        payload = _request_fields(request, ("suites", "focus", "backend"))
        suites = payload.get("suites")
        if not isinstance(suites, list) or len(suites) < 2:
            raise RequestError("'suites' must list at least two suites")
        suites = [_require_suite(s) for s in suites]
        focus = _require_focus(payload.get("focus", "all"))
        backend = _require_backend(payload.get("backend"))
        comparison = await self._run_scoring(self._compare_sync,
                                             suites, focus, backend)
        return 200, protocol.ok_envelope(
            protocol.encode_comparison(comparison))

    async def _handle_subset(self, request):
        payload = _request_fields(
            request, ("suite", "size", "search", "method", "backend"))
        suite = _require_suite(payload.get("suite"))
        # The bounds `repro subset` enforces, checked against the suite
        # model before any measurement runs.
        size = _require_int(payload, "size", 2, len(load_suite(suite)),
                            default=8)
        search = payload.get("search")
        if search is not None:
            search = _require_int(payload, "search", 1)
        method = payload.get("method", "lhs")
        if method not in _SEARCH_METHODS:
            raise RequestError(f"unknown method {method!r}; expected one "
                               f"of {list(_SEARCH_METHODS)}")
        backend = _require_backend(payload.get("backend"))
        kind, result = await self._run_scoring(
            self._subset_sync, suite, size, search, method, backend)
        if kind == "search":
            encoded = protocol.encode_search_result(result)
        else:
            encoded = protocol.encode_subset_report(result)
        encoded["kind"] = kind
        return 200, protocol.ok_envelope(encoded)

    async def _handle_metrics(self, request):
        snapshot = self.metrics.snapshot()
        return 200, protocol.ok_envelope({
            "values": snapshot.as_dict(),
            "kinds": dict(snapshot.kinds),
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
            "backend": self.engine.backend.name,
            "requests": self._requests.value,
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
        runs = []
        for record in self._history.runs():
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
             "runs": runs})

    async def _handle_shutdown(self, request):
        # The response is written by the connection handler *after*
        # this returns; server.close() only stops new accepts, so the
        # goodbye still reaches the peer before the drain completes.
        self._shutdown.set()
        return 200, protocol.ok_envelope({"status": "shutting down"})

    # -- synchronous scoring jobs (run on the scoring thread) --------------

    @contextmanager
    def _backend_override(self, backend):
        """Swap the shared engine's compute backend for one request.

        Race-free despite the shared engine: every scoring job runs on
        the single ``_scoring`` thread, so no two requests can hold the
        engine at once. Bit-safe despite the swap: backends are
        bit-identical and cache keys are backend-free, so the override
        can never leak request-specific bits into the shared caches.
        """
        if backend is None:
            yield
            return
        from repro.stats.backend import get_backend

        saved = self.engine.backend
        self.engine.backend = get_backend(backend)
        try:
            yield
        finally:
            self.engine.backend = saved

    @contextmanager
    def _served_run(self, command, params, backend):
        """Record one served scoring job into the history store.

        Runs entirely on the single scoring thread, *after* the
        response object exists -- recording reads results, it never
        feeds anything back, so a served scorecard's bits cannot depend
        on whether a history store is configured (``repro qa
        --history`` checks the same property for the CLI path). A
        store failure is reported and swallowed: history is telemetry,
        the request already succeeded.

        Usage: ``with self._served_run(...) as publish: ...;
        publish("scorecard", card)``. Without a configured store the
        publish callable is a no-op and nothing is timed.
        """
        if self._history is None:
            yield lambda kind, obj: None
            return
        import time

        from dataclasses import asdict

        from repro.obs.history import HistoryRecorder, build_record
        from repro.obs.manifest import build_manifest

        recorder = HistoryRecorder()
        start = time.perf_counter()  # qa-ignore[obs-discipline]
        yield recorder.publish
        wall_s = time.perf_counter() - start  # qa-ignore[obs-discipline]
        recorder.publish("metrics", self.metrics.snapshot())
        # The digest config mirrors the CLI convention: the resolved
        # run knobs plus the request parameters, minus the keys that
        # cannot change an output bit (the store location itself).
        config = dict(asdict(self.config), **params)
        config.pop("history_dir", None)
        if backend:
            config["backend"] = backend
        manifest = build_manifest(
            command=f"serve:{command}", argv=[], config=config,
        )
        try:
            self._history.append(build_record(
                f"serve:{command}", manifest, recorder, spans=(),
                wall_s=wall_s,
            ))
        except OSError as exc:
            print(f"repro serve: history append failed: {exc}",
                  file=sys.stderr)

    def _score_sync(self, suite, focus, backend=None):
        from repro.experiments.runner import measure_suites, perspector_for

        with self._served_run("score", {"suite": suite, "focus": focus},
                              backend) as publish:
            with self._backend_override(backend):
                matrix = measure_suites([suite], self.config)[suite]
                perspector = perspector_for(self.config,
                                            engine=self.engine)
                card = perspector.score(matrix, focus=focus)
            publish("scorecard", card)
        return card

    def _compare_sync(self, suites, focus, backend=None):
        from repro.experiments.runner import measure_suites, perspector_for

        with self._served_run("compare", {"suites": list(suites),
                                          "focus": focus},
                              backend) as publish:
            with self._backend_override(backend):
                matrices = measure_suites(suites, self.config)
                perspector = perspector_for(self.config,
                                            engine=self.engine)
                comparison = perspector.compare(
                    *[matrices[s] for s in suites], focus=focus)
            for card in comparison.scorecards:
                publish("scorecard", card)
        return comparison

    def _subset_sync(self, suite, size, search, method, backend=None):
        with self._served_run("subset", {"suite": suite, "size": size,
                                         "search": search,
                                         "method": method},
                              backend) as publish:
            with self._backend_override(backend):
                kind, result = self._subset_job(suite, size, search,
                                                method)
            publish("search_result" if kind == "search"
                    else "subset_report", result)
        return kind, result

    def _subset_job(self, suite, size, search, method):
        from repro.core.subset import LHSSubsetGenerator
        from repro.engine import SubsetEvaluator, SubsetSearch
        from repro.experiments.runner import measure_suites

        matrix = measure_suites([suite], self.config)[suite]
        if search:
            evaluator = SubsetEvaluator(
                matrix, seed=self.config.metric_seed, engine=self.engine,
            )
            result = SubsetSearch(
                matrix, size, seed=self.config.metric_seed,
                evaluator=evaluator,
            ).search(search, method=method)
            return "search", result
        report = LHSSubsetGenerator(
            subset_size=size, seed=self.config.metric_seed,
        ).report(matrix, seed=self.config.metric_seed, engine=self.engine)
        return "report", report


class ServiceThread:
    """A :class:`ScoringService` on a daemon thread -- the harness the
    tests and ``repro.qa.service_check`` drive real HTTP traffic
    against without a subprocess.

    ``start()`` blocks until the listener is bound (so :attr:`port` is
    valid); stop it by POSTing ``/v1/shutdown`` (e.g.
    :meth:`~repro.service.client.ServiceClient.shutdown`) and then
    :meth:`join`.
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

    def join(self, timeout=30.0):
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("service did not shut down in time")
        if self.error is not None:
            raise RuntimeError(f"service died: {self.error!r}")
