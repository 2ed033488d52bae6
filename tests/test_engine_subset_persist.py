"""Tests for what the subset search persists and how it batches DTW.

A candidate's whole :class:`~repro.core.subset.SubsetReport` goes to the
disk tier through the wire codec; its intermediates (normalized series,
DTW pairs and matrices, K-means labels, silhouette distances) stay in
memory. A candidate's fallback events share one DTW kernel call in
which each distinct pair key appears once. Every score keeps its bits:
the batched path is checked against the per-event ``Engine.dtw_matrix``
+ ``Engine._tscore`` oracle, and a disk-warm search against a cold one.
"""

import dataclasses
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matrix import CounterMatrix
from repro.core.normalization import normalize_series_set
from repro.core.subset import SubsetReport
from repro.engine import MISS, DiskCache, Engine, SubsetEvaluator, SubsetSearch
from repro.engine.cache import array_digest, content_key, pair_key
from repro.qa.determinism import diff_search_results
from repro.service.protocol import (
    decode_subset_report,
    encode_subset_report,
    subset_report_record,
)
from repro.stats.backend import kernels

from tests.test_engine_diskcache import _scorecard

METRIC_SEED = 3


def _bits(value):
    return struct.pack("<d", float(value))


def _matrix(seed=0, n=10, m=3, length=16, constant=()):
    """A synthetic suite; workloads in ``constant`` get flat series in
    every event, which all normalize to the same all-100 series."""
    rng = np.random.default_rng(seed)
    workloads = tuple(f"w{i:02d}" for i in range(n))
    events = tuple(f"e{j}" for j in range(m))
    series = {
        event: [
            np.full(length, 5.0) if i in constant
            else rng.uniform(0.0, 10.0, size=length)
            for i in range(n)
        ]
        for event in events
    }
    return CounterMatrix(
        workloads=workloads,
        events=events,
        values=rng.uniform(1.0, 100.0, size=(n, m)),
        series=series,
        suite_name="persist-fixture",
    )


def _recording_backend():
    """A kernel record that records every pair key it is asked to
    compute."""
    backend = kernels()
    seen = []

    def pair_distances(arrays, idx_i, idx_j, band=None):
        digests = [array_digest(a) for a in arrays]
        seen.extend(pair_key(digests[i], digests[j], band)
                    for i, j in zip(idx_i, idx_j))
        return backend.pair_distances(arrays, idx_i, idx_j, band)

    return dataclasses.replace(backend, pair_distances=pair_distances), seen


@pytest.fixture
def disk_puts(monkeypatch):
    """Counts every ``DiskCache.put`` call (stored or not)."""
    calls = []
    real = DiskCache.put

    def put(self, key, value):
        calls.append(key)
        return real(self, key, value)

    monkeypatch.setattr(DiskCache, "put", put)
    return calls


def _entries_by_type(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                kind = json.loads(f.readline())["meta"]["type"]
            out.setdefault(kind, []).append(path)
    return out


class TestPersistedReports:
    def test_puts_are_candidates_plus_full_suite_entries(self, tmp_path,
                                                         disk_puts):
        matrix = _matrix(seed=1)
        engine = Engine(cache_dir=tmp_path)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED, engine=engine)
        full_suite = len(disk_puts)
        result = SubsetSearch(matrix, 5, seed=METRIC_SEED,
                              evaluator=evaluator).search(12, method="lhs")
        assert len(disk_puts) <= full_suite + result.n_evaluated
        reports = _entries_by_type(tmp_path)["subset-report"]
        assert len(reports) == result.n_evaluated
        # Some candidate recomputed a fallback event, so the search did
        # have intermediates it chose not to persist.
        assert any("fallback" in r.details["trend_paths"].values()
                   for r in result.reports)

    def test_disk_warm_search_computes_no_pair(self, tmp_path):
        matrix = _matrix(seed=1)
        cold = SubsetSearch(
            matrix, 5, seed=METRIC_SEED, engine=Engine(cache_dir=tmp_path),
        ).search(12, method="swap")
        backend, seen = _recording_backend()
        warm = SubsetSearch(
            matrix, 5, seed=METRIC_SEED,
            engine=Engine(cache_dir=tmp_path, backend=backend),
        ).search(12, method="swap")
        assert seen == []
        assert diff_search_results(cold, warm) == []
        assert [str(r) for r in warm.reports] == [str(r)
                                                  for r in cold.reports]

    def test_pool_reads_stored_reports_back(self, tmp_path):
        matrix = _matrix(seed=2, n=8, m=2)
        cold = SubsetSearch(
            matrix, 4, seed=METRIC_SEED, engine=Engine(cache_dir=tmp_path),
        ).search(6, method="lhs")
        engine = Engine(cache_dir=tmp_path, workers=2)
        warm = SubsetSearch(matrix, 4, seed=METRIC_SEED,
                            engine=engine).search(6, method="lhs")
        pools = engine.metrics.snapshot()
        assert pools["pool_created"] + pools["pool_reused"] == 0
        assert diff_search_results(cold, warm) == []

    def test_evaluate_span_names_tier_and_pair_cost(self, tmp_path):
        from repro.obs import trace as obs_trace

        matrix = _matrix(seed=1)
        names = [tuple(matrix.workloads[i] for i in pick)
                 for pick in ((0, 3, 5, 7, 9), (1, 2, 4, 6, 8))]
        spans = {}
        for run in ("cold", "warm"):
            tracer = obs_trace.install(obs_trace.Tracer())
            try:
                evaluator = SubsetEvaluator(
                    matrix, seed=METRIC_SEED,
                    engine=Engine(cache_dir=tmp_path),
                )
                reports = [evaluator.evaluate(n) for n in names]
                evaluator.evaluate(names[0])  # memo hit: no new span
            finally:
                obs_trace.uninstall()
            spans[run] = [s.attrs for s in tracer.spans()
                          if s.name == "subset.evaluate"]
        assert [a["tier"] for a in spans["cold"]] == ["miss", "miss"]
        assert [a["tier"] for a in spans["warm"]] == ["disk", "disk"]
        assert all(a["dtw_pairs"] == a["dtw_calls"] == 0
                   for a in spans["warm"])
        for attrs, report in zip(spans["cold"], reports):
            paths = list(report.details["trend_paths"].values())
            assert attrs["fallback"] == paths.count("fallback")
            assert attrs["dtw_calls"] == int(attrs["dtw_pairs"] > 0)
            if attrs["dtw_pairs"]:
                assert attrs["fallback"] > 0
        assert any(a["dtw_pairs"] for a in spans["cold"])

    def test_other_knobs_do_not_share_reports(self, tmp_path):
        matrix = _matrix(seed=4, n=8, m=2)
        names = matrix.workloads[:5]
        reports = [
            SubsetEvaluator(matrix, seed=seed, cdf=cdf,
                            engine=Engine(cache_dir=tmp_path)).evaluate(names)
            for seed, cdf in ((0, "quantized"), (1, "quantized"),
                              (0, "pooled"))
        ]
        assert len(_entries_by_type(tmp_path)["subset-report"]) == 3
        assert set(reports[2].details["trend_paths"].values()) == \
            {"fallback"}


def _report(**overrides):
    fields = dict(
        selected=("w3", "w0", "w7"),
        full_scores={"cluster": 0.1 + 0.2, "coverage": 0.5,
                     "spread": 1e-300, "trend": 12.5},
        subset_scores={"cluster": float("nan"), "coverage": -0.0,
                       "spread": 0.25, "trend": 13.0},
        deviations={"coverage": 100.0, "spread": 2.5e301, "trend": 4.0},
        mean_deviation_pct=8.333333333333334e300,
        details={"trend_paths": {"zeta": "fallback", "alpha": "sliced"}},
    )
    fields.update(overrides)
    return SubsetReport(**fields)


class TestSubsetReportCodec:
    @pytest.mark.parametrize("report", [
        _report(),
        _report(details={}),
        _report(full_scores={"trend": 1.0, "cluster": 2.0},
                subset_scores={"trend": 1.5, "cluster": 2.0},
                deviations={"trend": 50.0, "cluster": 0.0},
                mean_deviation_pct=25.0),
    ])
    def test_round_trip_is_bit_exact_and_ordered(self, tmp_path, report):
        cache = DiskCache(tmp_path)
        key = content_key("subset-report", repr(report))
        assert cache.put(key, report)
        back = cache.get(key)
        assert str(back) == str(report)
        assert back.selected == report.selected
        for name in ("full_scores", "subset_scores", "deviations"):
            got, want = getattr(back, name), getattr(report, name)
            assert list(got) == list(want)
            assert [_bits(v) for v in got.values()] == \
                [_bits(v) for v in want.values()]
        assert _bits(back.mean_deviation_pct) == \
            _bits(report.mean_deviation_pct)
        assert list(back.details.items()) == list(report.details.items())

    def test_wire_payload_is_record_plus_rendered(self):
        report = _report()
        payload = encode_subset_report(report)
        assert payload.pop("rendered") == str(report)
        assert payload == subset_report_record(report)
        assert payload["trend_paths"] == [["zeta", "fallback"],
                                          ["alpha", "sliced"]]
        assert str(decode_subset_report(json.loads(json.dumps(
            payload, sort_keys=True)))) == str(report)


def _payloads():
    """One value of every disk payload type, by type name."""
    from tests.test_engine import fixture_matrix

    rng = np.random.default_rng(0)
    return {
        "array": rng.uniform(size=(6, 4)),
        "array-seq": [rng.uniform(size=9), rng.uniform(size=(2, 3))],
        "counter-matrix": fixture_matrix(seed=2),
        "scorecard": _scorecard(),
        "subset-report": _report(),
    }


def _damaged(raw):
    """Truncations at several byte offsets, plus a header written by
    other code (another source digest)."""
    header_end = raw.index(b"\n") + 1
    cuts = sorted({0, 1, header_end // 2, header_end - 1, header_end,
                   header_end + 7, (len(raw) + header_end) // 2,
                   len(raw) - 1})
    out = {f"truncated@{cut}": raw[:cut] for cut in cuts
           if cut < len(raw)}
    header = json.loads(raw[:header_end])
    header["version"] = "0" * 64
    out["wrong-version"] = json.dumps(header).encode() + b"\n" + \
        raw[header_end:]
    return out


class TestCorruptEntries:
    @pytest.mark.parametrize("kind", sorted(_payloads()))
    def test_every_damage_is_a_deleted_miss(self, tmp_path, kind):
        value = _payloads()[kind]
        cache = DiskCache(tmp_path)
        key = content_key("fuzz", kind)
        assert cache.put(key, value)
        path = cache._path(key)
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "rb") as f:
            assert json.loads(f.readline())["meta"]["type"] == kind
        damages = _damaged(raw)
        assert len(damages) >= 5
        for label, data in damages.items():
            with open(path, "wb") as f:
                f.write(data)
            assert cache.get(key) is MISS, label
            assert not os.path.exists(path), label
        counts = cache.metrics.snapshot()
        assert counts["disk_hits"] == 0
        assert counts["disk_misses"] == len(damages)

    def test_search_recomputes_identical_bits(self, tmp_path):
        matrix = _matrix(seed=1)

        def search():
            return SubsetSearch(
                matrix, 5, seed=METRIC_SEED,
                engine=Engine(cache_dir=tmp_path),
            ).search(8, method="lhs")

        cold = search()
        entries = _entries_by_type(tmp_path)
        damaged = []
        for kind, paths in sorted(entries.items()):
            # One damaged entry of every type the search stored: half of
            # them truncated, half from another format version.
            path = paths[0]
            with open(path, "rb") as f:
                raw = f.read()
            options = _damaged(raw)
            label = sorted(options)[len(damaged) % len(options)]
            with open(path, "wb") as f:
                f.write(options[label])
            damaged.append((path, raw))
        assert {"array", "array-seq", "subset-report"} <= set(entries)
        warm = search()
        assert diff_search_results(cold, warm) == []
        for path, raw in damaged:
            with open(path, "rb") as f:
                assert f.read() == raw  # recomputed and stored again


class TestBatchedFallbackOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        constant=st.sets(st.integers(0, 9), max_size=4),
        picks=st.lists(
            st.lists(st.integers(0, 9), min_size=3, max_size=8,
                     unique=True),
            min_size=1, max_size=4,
        ),
    )
    def test_trend_matches_per_event_oracle(self, seed, constant, picks):
        matrix = _matrix(seed=seed, constant=constant)
        backend, seen = _recording_backend()
        evaluator = SubsetEvaluator(
            matrix, seed=METRIC_SEED, engine=Engine(backend=backend),
        )
        oracle_engine = Engine()
        for pick in picks:
            names = tuple(matrix.workloads[i] for i in pick)
            report = evaluator.evaluate(names)
            per_event = []
            for event in matrix.events:
                norm = normalize_series_set(
                    [matrix.series[event][i] for i in pick])
                per_event.append(
                    Engine._tscore(oracle_engine.dtw_matrix(norm)))
            assert _bits(report.subset_scores["trend"]) == \
                _bits(float(np.mean(per_event)))
        # Each distinct pair key reached the kernel exactly once, even
        # where flat series gave several workloads (and events) the
        # same normalized series.
        assert len(seen) == len(set(seen))

    def test_one_kernel_call_per_candidate(self):
        matrix = _matrix(seed=7, constant={1, 2})
        backend, seen = _recording_backend()
        calls = []
        counting = dataclasses.replace(
            backend,
            pair_distances=lambda *args: calls.append(1)
            or backend.pair_distances(*args),
        )
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED,
                                    engine=Engine(backend=counting))
        rng = np.random.default_rng(0)
        for _ in range(12):
            before = len(calls)
            pick = rng.choice(matrix.n_workloads, size=5, replace=False)
            report = evaluator.evaluate(
                tuple(matrix.workloads[i] for i in pick))
            fallback = list(report.details["trend_paths"].values()).count(
                "fallback")
            assert len(calls) - before <= min(1, fallback)
        assert seen and len(seen) == len(set(seen))

    def test_batches_need_one_series_length(self):
        rng = np.random.default_rng(3)
        sets = []
        for length in (8, 9):
            arrays = [rng.uniform(size=length) for _ in range(3)]
            sets.append((arrays, [array_digest(a) for a in arrays]))
        with pytest.raises(ValueError, match="one length"):
            Engine().dtw_matrices(sets)
        # One set alone may mix lengths, as dtw_matrix always allowed.
        mixed = sets[0][0][:2] + sets[1][0][:1]
        (matrix,), computed = Engine().dtw_matrices(
            [(mixed, [array_digest(a) for a in mixed])])
        assert computed == 3
        assert matrix.tobytes() == Engine().dtw_matrix(mixed).tobytes()
