"""One comparison surface for score results.

The qa diffs (``diff_scorecards``, ``diff_search_results``) and the
history diff (``diff_records``) all compare the protocol's wire records
through :func:`repro.service.protocol.record_diff`. So a field an
encoder gains is compared everywhere without an edit of its own, and
every mismatch class the qa harness catches is reported by qa and by
``repro obs diff`` alike.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.report import SuiteScorecard
from repro.core.subset import SubsetReport
from repro.engine.subset_eval import SubsetSearchResult
from repro.obs.history import diff_records
from repro.qa.determinism import diff_scorecards, diff_search_results
from repro.service import protocol
from repro.service.protocol import (
    ServedCoverage,
    ServedDetail,
    flatten,
    float_bits,
)


def scorecard():
    return SuiteScorecard(
        suite_name="wire", focus="all",
        cluster=0.1 + 0.2, trend=float("nan"), coverage=-0.0,
        spread=1e-300,
        details={
            "cluster": ServedDetail(per_k={2: 0.25, 3: float("nan")}),
            "trend": ServedDetail(per_event={"ipc": 1.5, "llc": -0.75}),
            "spread": ServedDetail(per_item={"w0": 0.125, "w1": 0.5}),
            "coverage": ServedCoverage(n_components=2,
                                       component_variances=(0.9, 0.1)),
        },
    )


def with_detail(obj, name, value):
    return dataclasses.replace(obj, details={**obj.details, name: value})


def report(selected=("w0", "w1"), deviation=1.5):
    return SubsetReport(
        selected=selected,
        full_scores={"cluster": 0.5, "trend": 0.25},
        subset_scores={"cluster": 0.75, "trend": 0.5},
        deviations={"cluster": deviation, "trend": 3.0},
        mean_deviation_pct=(deviation + 3.0) / 2,
        details={"trend_paths": {"ipc": "sliced", "llc": "fallback"}},
    )


def search(first=None):
    """A two-candidate search whose best is its second report."""
    reports = (first or report(), report(("w2", "w3"), deviation=0.5))
    return SubsetSearchResult(suite="wire", subset_size=2, method="random",
                              n_candidates=4, best=reports[1],
                              reports=reports)


def history_record(scorecards=(), subset_reports=(), search_results=()):
    """A history record's compared parts, encoded as ``build_record``
    encodes them."""
    return {
        "schema_version": 1,
        "config_digest": "a" * 64,
        "scorecards": [protocol.encode_scorecard(c) for c in scorecards],
        "subset_reports": [protocol.encode_subset_report(r)
                           for r in subset_reports],
        "search_results": [protocol.encode_search_result(r)
                           for r in search_results],
    }


def labels(mismatches):
    return [m.split(": ")[0] for m in mismatches]


#: One mutant per scorecard mismatch class qa catches, with the one
#: label it must be reported under.
SCORECARD_MUTANTS = {
    "score bit": (lambda c: dataclasses.replace(
        c, cluster=np.nextafter(c.cluster, 1.0)), "score_bits.cluster"),
    "per_k key set": (lambda c: with_detail(
        c, "cluster", ServedDetail(per_k={2: 0.25})),
        "details.cluster.per_k_bits.3"),
    "per_event bit": (lambda c: with_detail(
        c, "trend", ServedDetail(per_event={"ipc": 1.5, "llc": -0.5})),
        "details.trend.per_event_bits.llc"),
    "per_item bit": (lambda c: with_detail(
        c, "spread", ServedDetail(per_item={"w0": 0.125, "w1": 0.25})),
        "details.spread.per_item_bits.w1"),
    "n_components": (lambda c: with_detail(
        c, "coverage", ServedCoverage(n_components=3,
                                      component_variances=(0.9, 0.1))),
        "details.coverage.n_components"),
    "component variance": (lambda c: with_detail(
        c, "coverage", ServedCoverage(n_components=2,
                                      component_variances=(0.9, 0.2))),
        "details.coverage.component_variance_bits[1]"),
    "suite": (lambda c: dataclasses.replace(c, suite_name="other"),
              "suite"),
    "focus": (lambda c: dataclasses.replace(c, focus="llc"), "focus"),
}

#: One mutant per subset-report mismatch class, with its label inside
#: the report's record.
REPORT_MUTANTS = {
    "selected": (lambda r: dataclasses.replace(r, selected=("w0", "w9")),
                 "selected[1]"),
    "deviation": (lambda r: dataclasses.replace(
        r, deviations={"cluster": 2.5, "trend": 3.0}),
        "deviation_bits.cluster"),
    "mean deviation": (lambda r: dataclasses.replace(
        r, mean_deviation_pct=np.nextafter(r.mean_deviation_pct, 0.0)),
        "mean_deviation_pct_bits"),
    "trend_paths": (lambda r: with_detail(
        r, "trend_paths", {"ipc": "fallback", "llc": "fallback"}),
        "trend_paths[0][1]"),
}


class TestFlatten:
    def test_identical_results_diff_empty_with_nan_scores(self):
        assert diff_scorecards(scorecard(), scorecard()) == []
        assert diff_search_results(search(), search()) == []

    def test_skips_rendered_text_json_scores_and_engine_counters(self):
        payload = protocol.encode_scorecard(
            with_detail(scorecard(), "engine", {"cache_hits": 3}))
        assert flatten(payload) == flatten(
            protocol.scorecard_record(scorecard()))
        assert not [label for label in flatten(payload) if label.startswith(
            ("rendered", "scores", "details.engine"))]

    def test_mismatch_names_both_bit_patterns(self):
        drifted = dataclasses.replace(scorecard(), spread=2e-300)
        assert diff_scorecards(scorecard(), drifted) == [
            f"score_bits.spread: {float_bits(1e-300)} != "
            f"{float_bits(2e-300)}"]

    def test_a_detail_present_in_one_record_only_differs(self):
        card = scorecard()
        bare = with_detail(card, "spread", ServedDetail())
        assert labels(diff_scorecards(card, bare)) == [
            "details.spread.per_item_bits",
            "details.spread.per_item_bits.w0",
            "details.spread.per_item_bits.w1"]


@pytest.mark.parametrize("mutant", sorted(SCORECARD_MUTANTS))
def test_every_scorecard_mismatch_class_is_reported(mutant):
    mutate, label = SCORECARD_MUTANTS[mutant]
    card = scorecard()
    assert labels(diff_scorecards(card, mutate(card))) == [label]
    drift = diff_records(history_record(scorecards=[card]),
                         history_record(scorecards=[mutate(card)])).drift
    assert labels(drift) == [f"scorecards[0].{label}"]


@pytest.mark.parametrize("mutant", sorted(REPORT_MUTANTS))
def test_every_report_mismatch_class_is_reported(mutant):
    mutate, label = REPORT_MUTANTS[mutant]
    assert labels(diff_search_results(
        search(), search(mutate(report())))) == [f"reports[0].{label}"]
    drift = diff_records(history_record(subset_reports=[report()]),
                         history_record(subset_reports=[mutate(report())]))
    assert labels(drift.drift) == [f"subset_reports[0].{label}"]


def test_search_identity_and_best_are_reported():
    base = search()
    assert labels(diff_search_results(
        base, dataclasses.replace(base, n_candidates=5))) == ["n_candidates"]
    moved = labels(diff_search_results(
        base, dataclasses.replace(base, best=base.reports[0])))
    assert moved and all(label.startswith("best.") for label in moved)
    assert "best.selected[0]" in moved


class TestAFieldOnlyTheEncoderKnows:
    """An encoder that grows a ``*_bits`` field is compared by every
    diff with no edit of the diffs."""

    def test_scorecard_record(self, monkeypatch):
        real = protocol.scorecard_record

        def extended(card):
            record = real(card)
            record["extra_bits"] = float_bits(card.details.get("extra", 0.0))
            return record

        monkeypatch.setattr(protocol, "scorecard_record", extended)
        a, b = scorecard(), with_detail(scorecard(), "extra", 1.0)
        assert diff_scorecards(a, b) == [
            f"extra_bits: {float_bits(0.0)} != {float_bits(1.0)}"]
        drift = diff_records(history_record(scorecards=[a]),
                             history_record(scorecards=[b])).drift
        assert labels(drift) == ["scorecards[0].extra_bits"]

    def test_subset_report_record(self, monkeypatch):
        real = protocol.subset_report_record

        def extended(subset_report):
            record = real(subset_report)
            record["extra_bits"] = float_bits(
                subset_report.details.get("extra", 0.0))
            return record

        monkeypatch.setattr(protocol, "subset_report_record", extended)
        marked = with_detail(report(), "extra", 1.0)
        assert labels(diff_search_results(search(), search(marked))) == [
            "reports[0].extra_bits"]
        base = search()
        marked_best = dataclasses.replace(
            base, best=with_detail(base.best, "extra", 1.0))
        drift = diff_records(
            history_record(subset_reports=[report()],
                           search_results=[base]),
            history_record(subset_reports=[marked],
                           search_results=[marked_best])).drift
        assert labels(drift) == ["search_results[0].best.extra_bits",
                                 "subset_reports[0].extra_bits"]
