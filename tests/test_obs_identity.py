"""The observe-never-perturb contract, end to end: scoring with a span
tracer or a run-history recorder installed must be bit-identical to
scoring without one -- serial, fanned across worker processes, and
against a warm disk tier -- and the collected span tree must be
well-formed, with worker spans re-parented under their dispatching
``parallel.map`` span."""

import os

import numpy as np
import pytest

from repro.core.matrix import CounterMatrix
from repro.core.perspector import PerspectorConfig
from repro.engine import Engine
from repro.obs import history as obs_history
from repro.obs import trace as obs_trace
from repro.obs.manifest import build_manifest
from repro.qa.determinism import diff_scorecards
from repro.service.protocol import decode_stored_scorecard


def fixture_matrix(seed=0, n_workloads=6, n_events=3, length=30):
    rng = np.random.default_rng(seed)
    events = tuple(f"ev{i}" for i in range(n_events))
    workloads = tuple(f"wl{i}" for i in range(n_workloads))
    series = {
        e: [rng.uniform(0.0, 10.0, size=length) for _ in workloads]
        for e in events
    }
    return CounterMatrix(
        workloads=workloads,
        events=events,
        values=rng.uniform(1.0, 100.0, size=(n_workloads, n_events)),
        series=series,
        suite_name="obs-fixture",
    )


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    obs_trace.uninstall()
    obs_history.uninstall_recorder()
    yield
    obs_trace.uninstall()
    obs_history.uninstall_recorder()


def score_once(traced, history_dir=None, **engine_kwargs):
    """One fresh-engine scoring run; returns (scorecard, spans).

    With ``history_dir`` a history recorder is installed as well, and
    the run's record is appended to the store there, as
    ``--history-dir`` does."""
    engine = Engine(**engine_kwargs)
    tracer = obs_trace.install(obs_trace.Tracer()) if traced else None
    recorder = (None if history_dir is None
                else obs_history.install_recorder())
    try:
        card = engine.score_matrix(fixture_matrix(), PerspectorConfig(),
                                   "all")
        if recorder is not None:
            obs_history.publish("scorecard", card)
            obs_history.publish("metrics", engine.metrics.snapshot())
            manifest = build_manifest(command="score", argv=[],
                                      config={"subject": "obs-fixture"})
            obs_history.HistoryStore(history_dir).append(
                obs_history.build_record(
                    "score", manifest, recorder,
                    spans=tracer.spans() if traced else None,
                )
            )
    finally:
        if recorder is not None:
            obs_history.uninstall_recorder()
        if traced:
            obs_trace.uninstall()
    return card, (tracer.spans() if traced else [])


class TestBitIdentity:
    def test_serial(self):
        plain, _ = score_once(traced=False)
        traced, spans = score_once(traced=True)
        assert diff_scorecards(plain, traced) == []
        assert spans

    def test_serial_cache_off(self):
        plain, _ = score_once(traced=False)
        traced, _ = score_once(traced=True, cache=False)
        assert diff_scorecards(plain, traced) == []

    def test_fanned(self):
        plain, _ = score_once(traced=False)
        traced, spans = score_once(traced=True, workers=2)
        assert diff_scorecards(plain, traced) == []
        assert obs_trace.validate_spans(spans, owner_pid=os.getpid()) == []

    def test_disk_warm(self, tmp_path):
        plain, _ = score_once(traced=False)
        cold, _ = score_once(traced=False, cache_dir=str(tmp_path))
        warm, spans = score_once(traced=True, cache_dir=str(tmp_path))
        assert diff_scorecards(plain, cold) == []
        assert diff_scorecards(plain, warm) == []
        tiers = {s.attrs.get("tier") for s in spans
                 if s.name == "cache.lookup"}
        assert "disk" in tiers  # the warm run was actually served by disk

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recording(self, tmp_path, workers):
        plain, _ = score_once(traced=False)
        recorded, _ = score_once(traced=True, history_dir=tmp_path,
                                 workers=workers)
        assert diff_scorecards(plain, recorded) == []
        # The record itself carries the same bits.
        store = obs_history.HistoryStore(tmp_path)
        (run_id,) = store.run_ids()
        stored = decode_stored_scorecard(store.load(run_id)["scorecards"][0])
        assert diff_scorecards(plain, stored) == []

    def test_tracing_does_not_perturb_engine_counters(self):
        plain, _ = score_once(traced=False)
        traced, _ = score_once(traced=True)
        assert plain.details["engine"] == traced.details["engine"]


class TestSpanTree:
    def test_serial_tree_shape(self):
        _, spans = score_once(traced=True)
        assert obs_trace.validate_spans(spans, owner_pid=os.getpid()) == []
        names = {s.name for s in spans}
        for kernel in ("kernel.cluster", "kernel.trend",
                       "kernel.coverage", "kernel.spread"):
            assert kernel in names
        assert "engine.score_matrix" in names

    def test_kernels_nest_under_score_matrix(self):
        _, spans = score_once(traced=True)
        by_sid = {s.sid: s for s in spans}
        roots = [s for s in spans if s.name == "engine.score_matrix"]
        assert len(roots) == 1
        for s in spans:
            if s.name.startswith("kernel."):
                assert by_sid[s.parent].name == "engine.score_matrix"

    def test_cache_lookup_spans_carry_kind_and_tier(self):
        _, spans = score_once(traced=True)
        lookups = [s for s in spans if s.name == "cache.lookup"]
        assert lookups
        for s in lookups:
            assert s.attrs.get("kind")
            assert s.attrs.get("tier") in ("memory", "disk", "miss")

    def test_worker_spans_shipped_and_reparented(self):
        _, spans = score_once(traced=True, workers=2)
        owner_pid = os.getpid()
        by_sid = {s.sid: s for s in spans}
        worker_tasks = [s for s in spans if s.name == "worker.task"]
        assert worker_tasks  # spans really crossed the process boundary
        assert {s.pid for s in worker_tasks} != {owner_pid}
        for s in worker_tasks:
            assert by_sid[s.parent].name == "parallel.map"
            assert by_sid[s.parent].pid == owner_pid

    def test_untraced_workers_ship_no_spans(self):
        # The payload protocol must not wrap results when tracing is
        # off; scoring plainly succeeding proves unwrapping stayed
        # symmetric, and there must be no tracer left to collect into.
        card, spans = score_once(traced=False, workers=2)
        assert spans == []
        assert card.details["engine"]["workers"] == 2
