"""Tests for the scoring daemon: wire-protocol round-trips, per-endpoint
request/response behaviour, concurrent-session bit-identity, warm-cache
metrics movement, and graceful-shutdown leak checks."""

import http.client
import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.diskcache import stale_artifacts
from repro.engine.shm import leaked_segments
from repro.experiments.runner import ExperimentConfig
from repro.qa.determinism import diff_scorecards
from repro.service import (
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    ServiceThread,
    decode_scorecard,
    encode_scorecard,
)
from repro.service.protocol import (
    ServedCoverage,
    ServedDetail,
    bits_float,
    float_bits,
)


class TestProtocol:
    def test_float_bits_round_trip_awkward_values(self):
        import struct

        for value in (0.0, -0.0, 0.1 + 0.2, float("nan"), float("inf"),
                      float("-inf"), np.nextafter(1.0, 2.0)):
            out = bits_float(float_bits(value))
            assert struct.pack("<d", out) == struct.pack("<d", value)

    def test_scorecard_encode_decode_is_bit_exact(self):
        from repro.core.report import SuiteScorecard

        card = SuiteScorecard(
            suite_name="wire", focus="all",
            cluster=0.1 + 0.2, trend=float("nan"), coverage=-0.0,
            spread=1e-300,
            details={
                "cluster": ServedDetail(per_k={2: 0.25, 3: float("nan")}),
                "trend": ServedDetail(per_event={"ipc": 1.5,
                                                 "llc_miss": -0.75}),
                "spread": ServedDetail(per_item={"w0": 0.125}),
                "coverage": ServedCoverage(
                    n_components=2,
                    component_variances=np.array([0.9, 0.1 + 0.2]),
                ),
                "engine": {"cache_hits": 3},
            },
        )
        served = decode_scorecard(
            json.loads(json.dumps(encode_scorecard(card)))
        )
        assert diff_scorecards(card, served) == []
        assert served.rendered == str(card)
        assert served.details["engine"] == {"cache_hits": 3}

    def test_decode_tolerates_missing_details(self):
        payload = {
            "suite": "s", "focus": "all",
            "score_bits": {name: float_bits(float("nan"))
                           for name in ("cluster", "trend", "coverage",
                                        "spread")},
            "rendered": "s [all] ...",
        }
        served = decode_scorecard(payload)
        assert served.details == {}
        assert np.isnan(served.cluster)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One quick-preset daemon shared by the endpoint tests; torn down
    gracefully with leak checks in the teardown."""
    cache_dir = str(tmp_path_factory.mktemp("service-cache"))
    config = replace(ExperimentConfig.quick(), cache_dir=cache_dir)
    thread = ServiceThread(config).start()
    client = ServiceClient(host=thread.host, port=thread.port)
    yield config, client
    client.shutdown()
    thread.join()
    assert leaked_segments() == []
    assert stale_artifacts(cache_dir) == []


def _cli_card(config, suite, focus="all"):
    """The one-shot scoring path the daemon must reproduce."""
    from repro.engine import Engine
    from repro.experiments.runner import measure_suites, perspector_for

    matrix = measure_suites([suite], config)[suite]
    with Engine.from_config(config) as engine:
        return perspector_for(config, engine=engine).score(matrix,
                                                           focus=focus)


class TestEndpoints:
    def test_health_reports_engine_configuration(self, service):
        config, client = service
        health = client.health()
        assert health["status"] == "ok"
        assert "nbench" in health["suites"]
        assert health["workers"] == 1
        assert health["cache_dir"] == config.cache_dir

    def test_score_round_trip_is_bit_identical_to_cli(self, service):
        config, client = service
        served = client.score_card("nbench")
        card = _cli_card(config, "nbench")
        assert diff_scorecards(card, served) == []
        assert served.rendered == str(card)

    def test_score_honors_focus(self, service):
        config, client = service
        served = client.score_card("nbench", focus="llc")
        assert served.focus == "llc"
        card = _cli_card(config, "nbench", focus="llc")
        assert diff_scorecards(card, served) == []

    def test_warm_second_request_moves_cache_hit_counters(self, service):
        _config, client = service
        client.score("nbench")  # ensure at least one pass happened
        before = client.metrics()["values"]
        client.score("nbench")
        after = client.metrics()["values"]
        assert after["cache_hits"] > before["cache_hits"]
        assert after["service_requests"] > before["service_requests"]

    def test_health_reports_uptime_and_endpoint_counts(self, service):
        _config, client = service
        first = client.health()
        assert first["uptime_s"] >= 0.0
        assert first["started_unix"] > 0
        second = client.health()
        assert second["uptime_s"] >= first["uptime_s"]
        assert second["started_unix"] == first["started_unix"]
        counts = second["endpoint_requests"]
        # Both health probes counted under their route; the fixture's
        # daemon runs without a history store.
        assert counts["GET /v1/health"] >= 2
        assert second["history_dir"] is None

    def test_history_endpoint_disabled_without_store(self, service):
        _config, client = service
        listing = client.history()
        assert listing == {"enabled": False, "runs": []}

    def test_compare_round_trip(self, service):
        config, client = service
        result = client.compare(["nbench", "lmbench"])
        assert [c["suite"] for c in result["scorecards"]] == \
            ["nbench", "lmbench"]
        from repro.experiments.runner import measure_suites, perspector_for

        matrices = measure_suites(["nbench", "lmbench"], config)
        comparison = perspector_for(config).compare(
            matrices["nbench"], matrices["lmbench"], focus="all",
        )
        assert result["rendered"] == comparison.table()
        for wire, card in zip(result["scorecards"],
                              comparison.scorecards):
            assert diff_scorecards(card, decode_scorecard(wire)) == []

    def test_subset_report_round_trip(self, service):
        _config, client = service
        result = client.subset("nbench", size=4)
        assert result["kind"] == "report"
        assert len(result["selected"]) == 4
        assert result["rendered"]

    def test_subset_search_round_trip(self, service):
        _config, client = service
        result = client.subset("nbench", size=4, search=2,
                               method="random")
        assert result["kind"] == "search"
        assert result["method"] == "random"
        assert result["n_evaluated"] == 2
        assert len(result["best"]["selected"]) == 4

    def test_health_reports_default_backend(self, service):
        from repro.stats.backend import resolve_backend

        _config, client = service
        # The daemon resolved its backend the same way an engine would
        # (explicit > $REPRO_BACKEND > reference), so the health report
        # must agree with a fresh resolution in this environment.
        assert client.health()["backend"] == resolve_backend().name

    def test_backend_request_field_is_bit_invisible(self, service):
        from repro.stats.backend import resolve_backend

        config, client = service
        served = client.score_card("nbench", backend="vectorized")
        card = _cli_card(config, "nbench")
        assert diff_scorecards(card, served) == []
        assert served.rendered == str(card)
        # The override is per-request: the daemon's default survives.
        assert client.health()["backend"] == resolve_backend().name

    def test_compare_and_subset_accept_backend(self, service):
        _config, client = service
        ref = client.compare(["nbench", "nbench"])
        vec = client.compare(["nbench", "nbench"], backend="vectorized")
        assert [w["rendered"] for w in vec["scorecards"]] == \
            [w["rendered"] for w in ref["scorecards"]]
        ref = client.subset("nbench", size=4)
        vec = client.subset("nbench", size=4, backend="vectorized")
        assert vec["rendered"] == ref["rendered"]

    def test_concurrent_sessions_get_identical_bytes(self, service):
        _config, client = service
        outcomes = [None] * 4

        def _one(i):
            outcomes[i] = client.score("nbench")["rendered"]

        threads = [threading.Thread(target=_one, args=(i,))
                   for i in range(len(outcomes))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(outcomes)) == 1
        assert outcomes[0] is not None


class TestErrors:
    def test_unknown_suite_is_400(self, service):
        _config, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.score("no-such-suite")
        assert excinfo.value.status == 400
        assert "unknown suite" in excinfo.value.message

    def test_compare_needs_two_suites(self, service):
        _config, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.compare(["nbench"])
        assert excinfo.value.status == 400

    def test_unknown_path_is_404(self, service):
        _config, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/shard/exec", {"block": {}})
        assert excinfo.value.status == 404

    def test_oversized_content_length_is_400_without_reading_body(
            self, service):
        _config, client = service
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=30.0)
        try:
            # Headers only, declaring one byte over the 1 MiB cap: a
            # server that tried to read the body would block here until
            # the timeout.
            connection.putrequest("POST", "/v1/score")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str((1 << 20) + 1))
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert "Content-Length" in payload["error"]

    @pytest.mark.parametrize("path, payload, field", [
        ("/v1/score", {"suite": "nbench", "fcous": "llc"}, "fcous"),
        ("/v1/compare", {"suites": ["nbench", "nbench"], "focs": "llc"},
         "focs"),
        ("/v1/subset", {"suite": "nbench", "size": 4, "serach": 2},
         "serach"),
    ])
    def test_unknown_request_field_is_400(self, service, path, payload,
                                          field):
        _config, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", path, payload)
        assert excinfo.value.status == 400
        assert "unknown field" in excinfo.value.message
        assert repr(field) in excinfo.value.message

    def test_wrong_method_is_405(self, service):
        _config, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/score")
        assert excinfo.value.status == 405

    def test_malformed_json_body_is_400(self, service):
        _config, client = service
        connection = http.client.HTTPConnection(client.host, client.port,
                                                timeout=30.0)
        try:
            connection.request(
                "POST", "/v1/score", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert payload["ok"] is False

    def test_invalid_subset_size_is_400(self, service):
        _config, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.subset("nbench", size=0)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("fields, name", [
        ({"size": 1}, "size"),
        ({"size": 11}, "size"),  # nbench has 10 workloads
        ({"size": True}, "size"),
        ({"size": 4.0}, "size"),
        ({"size": 4, "search": 0}, "search"),
        ({"size": 4, "search": True}, "search"),
        ({"size": 4, "search": "2"}, "search"),
    ])
    def test_subset_bounds_match_cli_and_precede_measuring(
            self, service, monkeypatch, fields, name):
        from repro.experiments import runner

        def no_measuring(*args, **kwargs):
            raise AssertionError("measured before validating")

        monkeypatch.setattr(runner, "measure_suites", no_measuring)
        _config, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/subset",
                            {"suite": "nbench", **fields})
        assert excinfo.value.status == 400
        assert repr(name) in excinfo.value.message

    def test_subset_size_may_equal_the_suite_size(self, service):
        from repro.workloads import load_suite

        _config, client = service
        n = len(load_suite("nbench"))
        result = client.subset("nbench", size=n)
        assert len(result["selected"]) == n

    def test_unknown_backend_is_400(self, service):
        _config, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.score("nbench", backend="gpu")
        assert excinfo.value.status == 400
        assert "unknown backend" in excinfo.value.message


class TestServiceHistory:
    def test_daemon_records_served_runs(self, tmp_path):
        """A daemon configured with ``history_dir`` records every
        served scoring run -- equal digests for equal requests, served
        bits persisted verbatim -- and lists them at /v1/history."""
        from repro.obs.history import HistoryStore, diff_records

        config = replace(
            ExperimentConfig.quick(),
            cache_dir=str(tmp_path / "cache"),
            history_dir=str(tmp_path / "hist"),
        )
        thread = ServiceThread(config).start()
        client = ServiceClient(host=thread.host, port=thread.port)
        try:
            served = client.score_card("nbench")
            client.score("nbench")
            listing = client.history()
            assert listing["enabled"] is True
            assert listing["history_dir"] == config.history_dir
            runs = listing["runs"]
            assert len(runs) == 2
            assert all(r["command"] == "serve:score" for r in runs)
            digests = {r["config_digest"] for r in runs}
            assert len(digests) == 1
            # The listed bits are the served card's exact bits.
            assert runs[0]["score_bits"] == \
                encode_scorecard(served)["score_bits"]
            # And the on-disk records diff to zero under that digest.
            store = HistoryStore(config.history_dir)
            record_a, record_b = store.runs()
            diff = diff_records(record_a, record_b)
            assert diff.same_digest and diff.clean
            assert client.health()["history_dir"] == config.history_dir
        finally:
            client.shutdown()
            thread.join()
        assert leaked_segments() == []


class TestShutdown:
    def test_graceful_shutdown_leaves_no_leaks(self, tmp_path):
        """A dedicated daemon (fanned workers + shm forced on, so pool
        and segments really exist) must drain, answer the goodbye, and
        leave /dev/shm and the cache dir clean."""
        config = replace(ExperimentConfig.quick(), workers=2,
                         cache_dir=str(tmp_path))
        thread = ServiceThread(config)
        thread.service.engine.executor.shm_min_bytes = 0
        thread.start()
        client = ServiceClient(host=thread.host, port=thread.port)
        rendered = client.score("nbench")["rendered"]
        assert rendered
        reply = client.shutdown()
        assert reply["status"] == "shutting down"
        thread.join()
        import gc

        gc.collect()
        assert leaked_segments() == []
        assert stale_artifacts(str(tmp_path)) == []
        # The daemon is really gone: new connections are refused, and
        # the client wraps the refusal after its retry budget.
        with pytest.raises(ServiceConnectionError, match="cannot reach"):
            client.health()

    def test_serial_and_fanned_daemons_serve_identical_bits(self,
                                                            tmp_path):
        """Worker count is invisible in served bytes (the engine
        invariance contract, through HTTP)."""
        rendered = {}
        for workers in (1, 2):
            config = replace(ExperimentConfig.quick(), workers=workers,
                             cache_dir=str(tmp_path))
            thread = ServiceThread(config).start()
            client = ServiceClient(host=thread.host, port=thread.port)
            try:
                rendered[workers] = client.score("nbench")["rendered"]
            finally:
                client.shutdown()
                thread.join()
        assert rendered[1] == rendered[2]


def _dead_port():
    """A loopback port with nothing listening on it."""
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestClientFailure:
    def test_dead_daemon_fails_fast_with_clear_error(self):
        client = ServiceClient(host="127.0.0.1", port=_dead_port(),
                               connect_timeout=1.0, retries=0)
        with pytest.raises(ServiceConnectionError) as excinfo:
            client.health()
        error = excinfo.value
        assert isinstance(error, ServiceError)  # one except clause catches both
        assert error.status is None
        assert error.attempts == 1
        assert f"{client.host}:{client.port}" in str(error)
        assert "cannot reach scoring daemon" in str(error)

    def test_retry_budget_is_spent_before_failing(self):
        client = ServiceClient(host="127.0.0.1", port=_dead_port(),
                               connect_timeout=1.0, retries=2,
                               backoff=0.01)
        with pytest.raises(ServiceConnectionError) as excinfo:
            client.health()
        assert excinfo.value.attempts == 3

    def test_http_level_errors_are_never_retried(self, monkeypatch):
        calls = []

        def fake_request_once(self, method, path, payload):
            calls.append(path)
            raise ServiceError(400, "bad request")

        monkeypatch.setattr(ServiceClient, "_request_once",
                            fake_request_once)
        client = ServiceClient(host="127.0.0.1", port=1, retries=3)
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 400
        assert len(calls) == 1  # the daemon answered; asking again is futile

    def test_cli_client_exits_nonzero_on_connection_failure(self, capsys):
        from repro.cli import main

        status = main(["client", "health", "--port", str(_dead_port()),
                       "--connect-timeout", "1.0", "--retries", "0"])
        captured = capsys.readouterr()
        assert status == 2
        assert "cannot reach scoring daemon" in captured.err
