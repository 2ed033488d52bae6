"""Tests for what the subset search persists and how it batches DTW.

A candidate's whole :class:`~repro.core.subset.SubsetReport` goes to the
disk tier through the wire codec; its intermediates (normalized series,
DTW pairs and matrices, K-means labels, silhouette distances) stay in
memory. The fallback events of every candidate of one
``evaluate_many`` pass share one DTW kernel call in which each distinct
pair appears once. Every score keeps its bits: the batched path is
checked against the per-event ``Engine.dtw_matrix`` + ``Engine._tscore``
oracle, ``evaluate_many`` against each candidate evaluated alone, the
integer-coded ``Engine.dtw_matrices`` against one ``dtw_matrix`` per
set, and a disk-warm search against a cold one.
"""

import dataclasses
import json
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.matrix import CounterMatrix
from repro.core.normalization import normalize_series_set
from repro.core.subset import SubsetReport
from repro.engine import (
    MISS,
    DiskCache,
    Engine,
    SubsetEvaluator,
    SubsetSearch,
    subset_eval,
)
from repro.engine.cache import array_digest, content_key, pair_key
from repro.qa.determinism import diff_search_results
from repro.service.protocol import (
    decode_subset_report,
    encode_subset_report,
    record_diff,
    subset_report_record,
)
from repro.stats.backend import kernels
from repro.stats.dtw import dtw_matrix

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
            spans[run] = {name: [s.attrs for s in tracer.spans()
                                 if s.name == name]
                          for name in ("subset.evaluate",
                                       "subset.fallbacks")}
        cold, warm = spans["cold"], spans["warm"]
        assert [a["tier"] for a in cold["subset.evaluate"]] == \
            ["miss", "miss"]
        assert [a["tier"] for a in warm["subset.evaluate"]] == \
            ["disk", "disk"]
        # The pair cost is the fallback pass's: a lone evaluate with a
        # fallback event opens one, a disk-warm one computes nothing.
        assert warm["subset.fallbacks"] == []
        with_fallback = []
        for attrs, report in zip(cold["subset.evaluate"], reports):
            paths = list(report.details["trend_paths"].values())
            assert attrs["fallback"] == paths.count("fallback")
            assert attrs["sliced"] == paths.count("sliced")
            with_fallback.append(attrs["fallback"] > 0)
        assert len(cold["subset.fallbacks"]) == sum(with_fallback)
        for attrs in cold["subset.fallbacks"]:
            assert attrs["candidates"] == 1
            assert attrs["dtw_calls"] == int(attrs["dtw_pairs"] > 0)
        assert any(a["dtw_pairs"] for a in cold["subset.fallbacks"])

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

    def test_sets_of_different_lengths_share_one_call(self):
        # A pair's distance depends only on the pair and the band, so
        # sets of any lengths share one kernel call and each matrix
        # reads as dtw_matrix reads it alone.
        rng = np.random.default_rng(3)
        sets = []
        for length in (8, 9):
            arrays = [rng.uniform(size=length) for _ in range(3)]
            sets.append((arrays, [array_digest(a) for a in arrays]))
        matrices, computed = Engine().dtw_matrices(sets)
        assert computed == 6
        for (arrays, _digests), matrix in zip(sets, matrices):
            assert matrix.tobytes() == dtw_matrix(arrays).tobytes()
        # One set alone may mix lengths, as dtw_matrix always allowed.
        mixed = sets[0][0][:2] + sets[1][0][:1]
        (matrix,), computed = Engine().dtw_matrices(
            [(mixed, [array_digest(a) for a in mixed])])
        assert computed == 3
        assert matrix.tobytes() == Engine().dtw_matrix(mixed).tobytes()


def _counting_backend():
    """A kernel record that records the pair count of every call."""
    backend = kernels()
    calls = []

    def pair_distances(arrays, idx_i, idx_j, band=None):
        calls.append(len(idx_i))
        return backend.pair_distances(arrays, idx_i, idx_j, band)

    return dataclasses.replace(backend, pair_distances=pair_distances), calls


class TestIntegerCodedPairs:
    """``Engine.dtw_matrices`` equals one direct ``dtw_matrix`` per set,
    and computes each distinct pair once."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kinds=st.lists(st.sampled_from(["random", "flat", "copy"]),
                       min_size=1, max_size=8),
        lengths=st.lists(st.sampled_from([5, 6, 9]), min_size=8,
                         max_size=8),
        sets=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=6),
                      min_size=1, max_size=5),
        band=st.sampled_from([None, 1, 3]),
    )
    def test_matches_one_dtw_matrix_per_set(self, seed, kinds, lengths,
                                            sets, band):
        rng = np.random.default_rng(seed)
        pool = []
        for kind, length in zip(kinds, lengths):
            if kind == "flat":
                pool.append(np.full(length, 100.0))
            elif kind == "copy" and pool:
                pool.append(pool[-1].copy())  # a repeated series
            else:
                pool.append(rng.uniform(0.0, 100.0, size=length))
        picked = [[pool[i % len(pool)] for i in members]
                  for members in sets]
        backend, calls = _counting_backend()
        engine = Engine(backend=backend)
        matrices, computed = engine.dtw_matrices(
            [(arrays, [array_digest(a) for a in arrays])
             for arrays in picked], band=band)
        keys = {pair_key(array_digest(a), array_digest(b), band)
                for arrays in picked
                for i, a in enumerate(arrays) for b in arrays[i + 1:]}
        assert computed == len(keys) == sum(calls)
        assert len(calls) == int(bool(keys))
        for arrays, matrix in zip(picked, matrices):
            assert matrix.tobytes() == dtw_matrix(arrays, band=band).tobytes()
        # A second pass reads every pair back from the store.
        again, computed = engine.dtw_matrices(
            [(arrays, [array_digest(a) for a in arrays])
             for arrays in picked], band=band)
        assert computed == 0
        assert [m.tobytes() for m in again] == [m.tobytes()
                                                for m in matrices]


def _report_diff(a, b):
    return record_diff(subset_report_record(a), subset_report_record(b))


class TestEvaluateManyOracle:
    """A block reports what each candidate reports alone."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        constant=st.sets(st.integers(0, 9), max_size=4),
        picks=st.lists(
            st.lists(st.integers(0, 9), min_size=2, max_size=6,
                     unique=True),
            min_size=2, max_size=5,
        ),
        memoized=st.integers(0, 1),
        cache=st.booleans(),
        block=st.sampled_from([1, 3, 64]),
    )
    def test_matches_each_candidate_alone(self, seed, constant, picks,
                                          memoized, cache, block):
        from repro.obs import trace as obs_trace

        matrix = _matrix(seed=seed, constant=constant)
        names = [tuple(matrix.workloads[i] for i in pick) for pick in picks]
        # Stored before the pass: the second pick's report in the
        # engine's memory tier, its reversal's on the disk tier.
        in_memory, on_disk = names[1], names[1][::-1]
        assume(not {in_memory, on_disk} & {names[0], names[0][::-1]})
        # Overlapping candidates: a repeat and a reordering of the first.
        names += [names[0], names[0][::-1], on_disk]
        backend, calls = _counting_backend()
        with tempfile.TemporaryDirectory() as root, \
                mock.patch.object(subset_eval, "BATCH_CANDIDATES", block):
            SubsetEvaluator(matrix, seed=METRIC_SEED, engine=Engine(
                cache=cache, cache_dir=root)).evaluate(on_disk)
            engine = Engine(cache=cache, backend=backend, cache_dir=root)
            SubsetEvaluator(matrix, seed=METRIC_SEED,
                            engine=engine).evaluate(in_memory)
            evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED,
                                        engine=engine)
            for candidate in names[:memoized]:
                evaluator.evaluate(candidate)
            before = len(calls)
            tracer = obs_trace.install(obs_trace.Tracer())
            try:
                reports = evaluator.evaluate_many(names)
            finally:
                obs_trace.uninstall()
        tiers = [s.attrs["tier"] for s in tracer.spans()
                 if s.name == "subset.evaluate"]
        looked_up = [c for c in dict.fromkeys(names)
                     if c not in names[:memoized]]
        stored = {in_memory: "memory", on_disk: "disk"} if cache else {}
        assert tiers == [stored.get(c, "miss") for c in looked_up]
        # One DTW pass per block of fresh candidates' fallbacks.
        assert len(calls) - before <= -(-tiers.count("miss") // block)
        alone = {}
        for candidate, report in zip(names, reports):
            if candidate not in alone:
                alone[candidate] = SubsetEvaluator(
                    matrix, seed=METRIC_SEED,
                    engine=Engine(cache=cache)).evaluate(candidate)
            assert report.selected == candidate
            assert _report_diff(report, alone[candidate]) == []

    @pytest.mark.parametrize("cache", [True, False])
    def test_kmeans_sweeps_return_each_fit(self, cache, monkeypatch):
        from repro.core.cluster_score import sweep_seeds
        from repro.engine import engine as engine_module
        from repro.stats.kmeans import KMeans

        rng = np.random.default_rng(5)
        xs = [rng.uniform(size=(6, 3)) for _ in range(3)]
        # A repeated x, and one laid out column-major.
        xs += [xs[0], np.asfortranarray(rng.uniform(size=(6, 3)))]
        assert not xs[-1].flags.c_contiguous
        kseeds = sweep_seeds(6, METRIC_SEED)
        fit, stack, fits = KMeans.fit, engine_module.fit_stack, []

        def counted_fit(model, x):
            fits.append("fit")
            return fit(model, x)

        def counted_stack(xs, *args):
            fits.append(f"stack of {len(xs)}")
            return stack(xs, *args)

        monkeypatch.setattr(KMeans, "fit", counted_fit)
        monkeypatch.setattr(engine_module, "fit_stack", counted_stack)
        engine = Engine(cache=cache)
        sweeps = engine.kmeans_sweeps(xs, kseeds, 8)
        # Per k: the three distinct C-contiguous x in one lockstep fit,
        # the column-major one alone.
        assert sorted(fits) == ["fit"] * len(kseeds) + \
            ["stack of 3"] * len(kseeds)
        for x, sweep in zip(xs, sweeps):
            assert list(sweep) == sorted(kseeds)
            for k, labels in sweep.items():
                want = fit(KMeans(k=k, seed=kseeds[k], n_restarts=8), x)
                assert labels.tobytes() == want.labels.tobytes()
        fits.clear()
        again = engine.kmeans_sweeps(xs, kseeds, 8)
        if cache:
            assert fits == []
        # A lone x fits by KMeans.fit at every k, never by fit_stack([x]).
        fits.clear()
        Engine(cache=cache).kmeans_sweeps(xs[1:2], kseeds, 8)
        assert fits == ["fit"] * len(kseeds)
        assert [[a[k].tobytes() for k in a] for a in again] == \
            [[s[k].tobytes() for k in s] for s in sweeps]


class TestFallbacksSpan:
    def test_batch_pass_owns_the_pair_cost(self):
        from repro.obs import trace as obs_trace

        matrix = _matrix(seed=7, constant={1, 2})
        rng = np.random.default_rng(0)
        names = [tuple(matrix.workloads[i]
                       for i in rng.choice(10, size=5, replace=False))
                 for _ in range(6)]
        backend, calls = _counting_backend()
        tracer = obs_trace.install(obs_trace.Tracer())
        try:
            evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED,
                                        engine=Engine(backend=backend))
            before = len(calls)
            reports = evaluator.evaluate_many(names)
        finally:
            obs_trace.uninstall()
        spans = tracer.spans()
        (batch,) = [s.attrs for s in spans if s.name == "subset.fallbacks"]
        evaluates = [s.attrs for s in spans if s.name == "subset.evaluate"]
        assert any("fallback" in r.details["trend_paths"].values()
                   for r in reports)
        assert batch["candidates"] == len(set(names))
        assert batch["dtw_pairs"] == sum(calls[before:]) > 0
        assert batch["dtw_calls"] == len(calls) - before == 1
        # No candidate's span claims a share of the pass's pairs.
        assert [("dtw_pairs" in a or "dtw_calls" in a)
                for a in evaluates] == [False] * len(set(names))

    def test_passes_cover_at_most_a_block(self, monkeypatch):
        from repro.engine import subset_eval
        from repro.obs import trace as obs_trace

        matrix = _matrix(seed=7, constant={1, 2})
        rng = np.random.default_rng(1)
        names = [tuple(matrix.workloads[i]
                       for i in rng.choice(10, size=5, replace=False))
                 for _ in range(7)]
        whole = SubsetEvaluator(matrix, seed=METRIC_SEED).evaluate_many(
            names)
        monkeypatch.setattr(subset_eval, "BATCH_CANDIDATES", 3)
        tracer = obs_trace.install(obs_trace.Tracer())
        try:
            blocked = SubsetEvaluator(matrix,
                                      seed=METRIC_SEED).evaluate_many(names)
        finally:
            obs_trace.uninstall()
        passes = [s.attrs["candidates"] for s in tracer.spans()
                  if s.name == "subset.fallbacks"]
        assert passes == [3, 3, 1]
        assert [_report_diff(a, b) for a, b in zip(blocked, whole)] == \
            [[]] * len(names)

    def test_stored_reports_join_no_pass(self):
        from repro.obs import trace as obs_trace

        matrix = _matrix(seed=7, constant={1, 2})
        rng = np.random.default_rng(2)
        names = [tuple(matrix.workloads[i]
                       for i in rng.choice(10, size=5, replace=False))
                 for _ in range(4)]
        engine = Engine()
        # An earlier evaluator leaves the second candidate's report in
        # the engine's memory tier.
        SubsetEvaluator(matrix, seed=METRIC_SEED,
                        engine=engine).evaluate(names[1])
        tracer = obs_trace.install(obs_trace.Tracer())
        try:
            SubsetEvaluator(matrix, seed=METRIC_SEED,
                            engine=engine).evaluate_many(names)
        finally:
            obs_trace.uninstall()
        spans = tracer.spans()
        (batch,) = [s.attrs for s in spans if s.name == "subset.fallbacks"]
        assert batch["candidates"] == 3
        assert [s.attrs["tier"] for s in spans
                if s.name == "subset.evaluate"] == \
            ["miss", "memory", "miss", "miss"]

    def test_no_fallback_event_opens_no_span(self):
        from repro.obs import trace as obs_trace

        # One event: about half of these candidates slice it exactly.
        matrix = _matrix(seed=7, m=1)
        rng = np.random.default_rng(3)
        tracer = obs_trace.install(obs_trace.Tracer())
        try:
            evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED)
            reports = [evaluator.evaluate(tuple(
                matrix.workloads[i]
                for i in rng.choice(10, size=4, replace=False)))
                for _ in range(12)]
        finally:
            obs_trace.uninstall()
        with_fallback = sum("fallback" in r.details["trend_paths"].values()
                            for r in reports)
        assert 0 < with_fallback < len(reports)
        assert with_fallback == sum(s.name == "subset.fallbacks"
                                    for s in tracer.spans())
