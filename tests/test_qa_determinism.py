"""Determinism checker: bit-identical same-seed runs, and drift detection.

The full-stack check (synthetic suite -> PerfSession -> all four scores)
is the acceptance criterion from the QA subsystem: two cold runs under
one seed must produce bit-for-bit identical scorecards.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.matrix import CounterMatrix
from repro.qa.determinism import (
    DeterminismReport,
    check_determinism,
    check_search_determinism,
    diff_scorecards,
    diff_search_results,
)


def fixture_matrix(seed=11):
    rng = np.random.default_rng(seed)
    events = ("cpu-cycles", "LLC-loads", "LLC-load-misses",
              "LLC-store-misses", "branch-misses")
    workloads = tuple(f"wl{i}" for i in range(6))
    return CounterMatrix(
        workloads=workloads,
        events=events,
        values=rng.uniform(1.0, 100.0, size=(len(workloads), len(events))),
        suite_name="determinism-fixture",
    )


class TestMatrixPath:
    def test_same_seed_runs_are_bit_identical(self):
        report = check_determinism(fixture_matrix(), seed=0)
        assert report.identical, str(report)
        assert report.mismatches == ()
        assert "PASS" in str(report)

    def test_report_carries_all_scorecards(self):
        # Two baseline runs plus the cache-off and traced invariance
        # runs.
        report = check_determinism(fixture_matrix(), seed=4)
        assert isinstance(report, DeterminismReport)
        assert len(report.scorecards) == 4
        assert report.seed == 4
        assert report.scorecards[0].suite_name == "determinism-fixture"

    def test_workers_adds_invariance_runs(self):
        # ...plus the fanned run and the fanned+forced-shm run.
        report = check_determinism(fixture_matrix(), seed=0, workers=2)
        assert report.identical, str(report)
        assert len(report.scorecards) == 6

    def test_cache_dir_adds_disk_runs(self, tmp_path):
        report = check_determinism(fixture_matrix(), seed=0,
                                   cache_dir=str(tmp_path))
        assert report.identical, str(report)
        # Two baselines, cache-off, disk-cold, disk-warm, traced.
        assert len(report.scorecards) == 6

    def test_scorecard_tier_variant_catches_a_lossy_entry(
            self, tmp_path, monkeypatch):
        from repro.service import protocol

        real = protocol.scorecard_record

        def lossy(card):
            record = real(card)
            record["details"]["cluster"]["per_k_bits"].popitem()
            return record

        monkeypatch.setattr(protocol, "scorecard_record", lossy)
        report = check_determinism(fixture_matrix(), seed=0,
                                   cache_dir=str(tmp_path))
        assert not report.identical
        assert [m.split(":")[0] for m in report.mismatches] == [
            "[scorecard-tier] cluster.per_k"]

    def test_focus_is_threaded_through(self):
        report = check_determinism(fixture_matrix(), seed=0, focus="llc")
        assert report.identical, str(report)
        assert report.scorecards[0].focus == "llc"


class TestDiffScorecards:
    def test_identical_cards_diff_empty(self):
        card = check_determinism(fixture_matrix(), seed=0).scorecards[0]
        assert diff_scorecards(card, card) == []

    def test_injected_score_drift_detected(self):
        card = check_determinism(fixture_matrix(), seed=0).scorecards[0]
        drifted = dataclasses.replace(
            card, spread=card.spread + 1e-15)
        mismatches = diff_scorecards(card, drifted)
        assert len(mismatches) == 1
        assert mismatches[0].startswith("spread:")
        assert "bits" in mismatches[0]

    def test_nan_equals_nan_bitwise(self):
        card = check_determinism(fixture_matrix(), seed=0).scorecards[0]
        a = dataclasses.replace(card, trend=float("nan"))
        b = dataclasses.replace(card, trend=float("nan"))
        assert diff_scorecards(a, b) == []

    def test_metadata_drift_detected(self):
        card = check_determinism(fixture_matrix(), seed=0).scorecards[0]
        renamed = dataclasses.replace(card, suite_name="other")
        assert any(m.startswith("suite_name") for m in
                   diff_scorecards(card, renamed))

    def test_failing_report_str_lists_mismatches(self):
        card = check_determinism(fixture_matrix(), seed=0).scorecards[0]
        drifted = dataclasses.replace(card, coverage=card.coverage + 1e-12)
        mismatches = tuple(diff_scorecards(card, drifted))
        report = DeterminismReport(identical=False, mismatches=mismatches,
                                   scorecards=(card, drifted), seed=0)
        text = str(report)
        assert "FAIL" in text
        assert "coverage" in text


class TestSearchDeterminism:
    def _matrix(self, seed=0):
        from repro.engine.bench import build_subject

        return build_subject(seed=seed, n_workloads=8, n_events=2,
                             length=16)

    def test_search_runs_are_bit_identical(self):
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=4, seed=0)
        assert report.identical, str(report)
        # Two baseline runs plus the cache-off and traced invariance
        # runs.
        assert len(report.results) == 4
        assert "PASS" in str(report)

    def test_workers_adds_invariance_runs(self):
        # ...plus the fanned run and the fanned+forced-shm run.
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=4, seed=0,
                                          workers=2)
        assert report.identical, str(report)
        assert len(report.results) == 6

    def test_cache_dir_adds_disk_runs(self, tmp_path):
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=4, seed=0,
                                          cache_dir=str(tmp_path))
        assert report.identical, str(report)
        # Two baselines, cache-off, disk-cold, disk-warm, traced.
        assert len(report.results) == 6

    def test_diff_detects_injected_drift(self):
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=3, method="lhs",
                                          seed=1)
        a = report.results[0]
        r0 = dataclasses.replace(
            a.reports[0],
            mean_deviation_pct=a.reports[0].mean_deviation_pct + 1e-13,
        )
        drifted = dataclasses.replace(a, reports=(r0,) + a.reports[1:])
        mismatches = diff_search_results(a, drifted)
        assert any("mean_deviation_pct" in m for m in mismatches)

    def test_diff_identical_is_empty(self):
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=3, method="random",
                                          seed=2)
        assert diff_search_results(report.results[0],
                                   report.results[1]) == []


@pytest.mark.slow
class TestFullStack:
    def test_quick_full_stack_is_deterministic(self):
        from repro.qa.determinism import _default_subject

        suite, factory = _default_subject(seed=0, quick=True)
        report = check_determinism(suite, seed=0, session_factory=factory)
        assert report.identical, str(report)
        # all four scores were actually exercised
        card = report.scorecards[0]
        for score in ("cluster", "trend", "coverage", "spread"):
            assert np.isfinite(getattr(card, score)), score
