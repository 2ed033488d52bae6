"""Tests for the precompute-and-slice subset evaluator and the
multi-candidate subset search (repro.engine.subset_eval).

The core contract: every score the evaluator produces by slicing its
precomputed full-suite kernels is **bit-identical** to the from-scratch
shared-bounds path (``_scores(subset, bounds_from=full)``), for every
suite in the registry, across subset sizes and seeds -- and where the
trend slice cannot be proven exact, the fallback recomputation keeps
the same bit-identity.
"""

import struct

import numpy as np
import pytest

from repro.core.matrix import CounterMatrix
from repro.core.subset import (
    LHSSubsetGenerator,
    _scores,
    random_subset_names,
    report_from_scores,
)
from repro.engine import Engine, SubsetEvaluator, SubsetSearch
from repro.experiments.runner import ExperimentConfig, measure_suites
from repro.workloads import available_suites

TINY = ExperimentConfig(n_intervals=8, ops_per_interval=300,
                        warmup_intervals=2, warmup_boost=3, seed=5)
METRIC_SEED = 3


def _bits(value):
    return struct.pack("<d", float(value))


def _report_sig(report):
    sig = [tuple(report.selected)]
    for mapping in (report.full_scores, report.subset_scores,
                    report.deviations):
        sig.append(tuple((k, _bits(v)) for k, v in mapping.items()))
    sig.append(_bits(report.mean_deviation_pct))
    return sig


def _reference_report(matrix, names, full_scores):
    """The from-scratch shared-bounds path, engine-free (no cache shared
    with the evaluator under test)."""
    subset_scores = _scores(matrix.select_workloads(names),
                            seed=METRIC_SEED, bounds_from=matrix)
    return report_from_scores(names, full_scores, subset_scores)


def synthetic_matrix(seed=0, n=14, m=4, length=24, pin_floor=False,
                     with_series=True):
    rng = np.random.default_rng(seed)
    workloads = tuple(f"w{i:02d}" for i in range(n))
    events = tuple(f"e{j}" for j in range(m))
    series = {}
    if with_series:
        for event in events:
            event_series = []
            for _ in workloads:
                s = rng.uniform(0.0, 10.0, size=length)
                if pin_floor:
                    s[0] = 0.0
                event_series.append(s)
            series[event] = event_series
    return CounterMatrix(
        workloads=workloads,
        events=events,
        values=rng.uniform(1.0, 100.0, size=(n, m)),
        series=series,
        suite_name="synthetic",
    )


class TestSliceEquivalenceRegistry:
    @pytest.mark.parametrize("suite", available_suites())
    def test_bit_identical_to_from_scratch(self, suite):
        matrix = measure_suites([suite], TINY)[suite]
        full_scores = _scores(matrix, seed=METRIC_SEED)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED,
                                    full_scores=full_scores)
        sizes = sorted({min(4, matrix.n_workloads),
                        min(8, matrix.n_workloads)})
        for size in sizes:
            candidates = [
                LHSSubsetGenerator(subset_size=size, seed=7).select(matrix),
                random_subset_names(matrix, size, seed=11),
            ]
            for names in candidates:
                got = evaluator.evaluate(names)
                ref = _reference_report(matrix, names, full_scores)
                assert _report_sig(got) == _report_sig(ref), (suite, names)
                paths = got.details["trend_paths"]
                assert set(paths) == set(matrix.series)
                assert set(paths.values()) <= {"sliced", "fallback"}


class TestSliceEquivalenceSynthetic:
    def test_mixed_paths_remain_bit_identical(self):
        matrix = synthetic_matrix(seed=5)
        full_scores = _scores(matrix, seed=METRIC_SEED)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED,
                                    full_scores=full_scores)
        rng = np.random.default_rng(2)
        seen_paths = set()
        for _ in range(10):
            size = int(rng.integers(3, 9))
            idx = rng.choice(matrix.n_workloads, size=size, replace=False)
            names = tuple(matrix.workloads[i] for i in idx)
            got = evaluator.evaluate(names)
            ref = _reference_report(matrix, names, full_scores)
            assert _report_sig(got) == _report_sig(ref)
            seen_paths.update(got.details["trend_paths"].values())
        # The random subjects must exercise both code paths, or this
        # test silently stops covering the fallback.
        assert seen_paths == {"sliced", "fallback"}

    def test_pinned_floor_always_slices(self):
        matrix = synthetic_matrix(seed=1, pin_floor=True)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED)
        report = evaluator.evaluate(matrix.workloads[2:8])
        assert set(report.details["trend_paths"].values()) == {"sliced"}

    def test_order_sensitivity_matches_from_scratch(self):
        matrix = synthetic_matrix(seed=3)
        full_scores = _scores(matrix, seed=METRIC_SEED)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED,
                                    full_scores=full_scores)
        names = tuple(matrix.workloads[i] for i in (0, 4, 8, 11, 2))
        for candidate in (names, names[::-1]):
            got = evaluator.evaluate(candidate)
            ref = _reference_report(matrix, candidate, full_scores)
            assert _report_sig(got) == _report_sig(ref)

    def test_per_series_cdf_always_slices(self):
        matrix = synthetic_matrix(seed=4)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED,
                                    cdf="per_series")
        report = evaluator.evaluate(matrix.workloads[:5])
        assert set(report.details["trend_paths"].values()) == {"sliced"}

    def test_pooled_cdf_always_falls_back(self):
        matrix = synthetic_matrix(seed=4)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED, cdf="pooled")
        report = evaluator.evaluate(matrix.workloads[:5])
        assert set(report.details["trend_paths"].values()) == {"fallback"}

    def test_no_series_trend_nan(self):
        matrix = synthetic_matrix(seed=6, with_series=False)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED)
        report = evaluator.evaluate(matrix.workloads[:5])
        assert np.isnan(report.subset_scores["trend"])
        assert "trend" not in report.deviations
        assert "dev=n/a" in str(report)

    def test_small_subset_cluster_nan(self):
        matrix = synthetic_matrix(seed=6)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED)
        report = evaluator.evaluate(matrix.workloads[:3])
        assert np.isnan(report.subset_scores["cluster"])
        ref = _reference_report(matrix, tuple(matrix.workloads[:3]),
                                evaluator.full_scores)
        assert _report_sig(report) == _report_sig(ref)


class TestEvaluatorMechanics:
    def test_rejects_bad_candidates(self):
        matrix = synthetic_matrix(seed=7)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED)
        with pytest.raises(ValueError, match="duplicate"):
            evaluator.evaluate((matrix.workloads[0], matrix.workloads[0]))
        with pytest.raises(ValueError, match="at least 2"):
            evaluator.evaluate((matrix.workloads[0],))
        with pytest.raises(KeyError):
            evaluator.evaluate(("nope", matrix.workloads[0]))

    def test_needs_counter_matrix(self):
        with pytest.raises(TypeError, match="CounterMatrix"):
            SubsetEvaluator(np.ones((4, 3)))

    def test_engine_cache_shared_across_candidates(self):
        matrix = synthetic_matrix(seed=8)
        engine = Engine()
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED,
                                    engine=engine)
        names = matrix.workloads[:6]
        first = evaluator.evaluate(names)
        # The evaluator's memo answers a repeat with the same report.
        assert evaluator.evaluate(names) is first
        before = engine.metrics.snapshot()
        # A second evaluator over the same engine re-scores the same
        # candidate without recomputing cluster/coverage kernels.
        other = SubsetEvaluator(matrix, seed=METRIC_SEED, engine=engine,
                                full_scores=evaluator.full_scores)
        other.evaluate(names)
        delta = engine.metrics.snapshot().delta(before)
        assert delta["cache_misses"] == 0


class TestSubsetSearch:
    def test_lhs_candidates_match_generator(self):
        matrix = synthetic_matrix(seed=9)
        search = SubsetSearch(matrix, 5, seed=METRIC_SEED)
        result = search.search(4, method="lhs")
        expected = [
            LHSSubsetGenerator(subset_size=5,
                               seed=METRIC_SEED + i).select(matrix)
            for i in range(4)
        ]
        assert [tuple(r.selected) for r in result.reports] == expected

    def test_random_candidates_match_draws(self):
        matrix = synthetic_matrix(seed=9)
        result = SubsetSearch(matrix, 5, seed=METRIC_SEED).search(
            3, method="random")
        expected = [
            random_subset_names(matrix, 5, seed=METRIC_SEED + i)
            for i in range(3)
        ]
        assert [tuple(r.selected) for r in result.reports] == expected

    def test_best_is_lowest_mean_deviation(self):
        matrix = synthetic_matrix(seed=10)
        result = SubsetSearch(matrix, 5, seed=METRIC_SEED).search(
            6, method="random")
        devs = [r.mean_deviation_pct for r in result.reports]
        assert result.best.mean_deviation_pct == min(devs)

    def test_swap_respects_budget_and_refines(self):
        matrix = synthetic_matrix(seed=11)
        budget = 10
        result = SubsetSearch(matrix, 5, seed=METRIC_SEED).search(
            budget, method="swap")
        assert 1 <= result.n_evaluated <= budget
        selections = [tuple(r.selected) for r in result.reports]
        assert len(set(selections)) == len(selections)
        assert result.best.mean_deviation_pct == min(
            r.mean_deviation_pct for r in result.reports
        )

    def test_swap_seeded_by_baselines(self):
        from repro.baselines import baseline_subsets

        matrix = synthetic_matrix(seed=11)
        result = SubsetSearch(matrix, 5, seed=METRIC_SEED).search(
            8, method="swap")
        selections = {tuple(r.selected) for r in result.reports}
        for names in baseline_subsets(matrix, 5).values():
            assert tuple(names) in selections

    def test_workers_bit_identical(self):
        matrix = synthetic_matrix(seed=12, n=10, m=3, length=16)
        results = []
        for workers in (1, 2):
            search = SubsetSearch(matrix, 4, seed=METRIC_SEED,
                                  engine=Engine(workers=workers))
            results.append(search.search(6, method="swap"))
        sigs = [
            [_report_sig(r) for r in result.reports]
            for result in results
        ]
        assert sigs[0] == sigs[1]
        assert (tuple(results[0].best.selected)
                == tuple(results[1].best.selected))

    def test_worker_batches_fit_in_lockstep(self):
        # A fanned search equals the serial one, and each worker's batch
        # went through one lockstep K-means pass (its span ships back
        # from the worker process).
        import os

        from repro.obs import trace as obs_trace

        matrix = synthetic_matrix(seed=12, n=10, m=3, length=16)
        serial = SubsetSearch(matrix, 4, seed=METRIC_SEED).search(
            8, method="random")
        tracer = obs_trace.install(obs_trace.Tracer())
        try:
            fanned = SubsetSearch(matrix, 4, seed=METRIC_SEED,
                                  engine=Engine(workers=2)).search(
                8, method="random")
        finally:
            obs_trace.uninstall()
        assert ([_report_sig(r) for r in fanned.reports]
                == [_report_sig(r) for r in serial.reports])
        spans = [s for s in tracer.spans()
                 if s.name == "kernel.kmeans_lockstep"]
        assert [s.attrs["candidates"] for s in spans] == [4, 4]
        assert os.getpid() not in {s.pid for s in spans}

    def test_evaluate_many_fits_pending_candidates_once(self, monkeypatch):
        matrix = synthetic_matrix(seed=14, n=10, m=3, length=16)
        names = [random_subset_names(matrix, 5, seed=i) for i in range(5)]
        names += [names[0], tuple(matrix.workloads[:3])]
        batches = []
        real = Engine.kmeans_sweeps

        def spy(engine, xs, kseeds, n_restarts):
            batches.append((len(xs), sorted(kseeds)))
            return real(engine, xs, kseeds, n_restarts)

        monkeypatch.setattr(Engine, "kmeans_sweeps", spy)
        evaluator = SubsetEvaluator(matrix, seed=METRIC_SEED)
        reports = evaluator.evaluate_many(names)
        # One batch: the five distinct 5-row candidates; the repeat is
        # one candidate and the 3-row one has no ClusterScore.
        assert batches == [(5, [2, 3, 4])]
        full = evaluator.full_scores
        for report, picked in zip(reports, names):
            ref = _reference_report(matrix, picked, full)
            assert _report_sig(report) == _report_sig(ref)
        # Everything is memoized now: a second pass fits nothing.
        evaluator.evaluate_many(names)
        assert len(batches) == 1

    def test_rejects_bad_inputs(self):
        matrix = synthetic_matrix(seed=13)
        with pytest.raises(ValueError, match="subset_size"):
            SubsetSearch(matrix, 1, seed=METRIC_SEED)
        search = SubsetSearch(matrix, 4, seed=METRIC_SEED)
        with pytest.raises(ValueError, match="method"):
            search.search(4, method="annealing")
        with pytest.raises(ValueError, match="n_candidates"):
            search.search(0, method="lhs")

    def test_str_mentions_method_and_best(self):
        matrix = synthetic_matrix(seed=13)
        result = SubsetSearch(matrix, 4, seed=METRIC_SEED).search(
            3, method="lhs")
        text = str(result)
        assert "subset search (lhs" in text
        assert "candidate deviations" in text
