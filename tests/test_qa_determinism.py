"""The qa harness: bit-identical same-seed runs, and drift detection.

The full-stack check (synthetic suite -> PerfSession -> all four scores)
is the acceptance criterion from the QA subsystem: two cold runs under
one seed must produce bit-for-bit identical scorecards. Every row of the
harness's tables must also be live: a perturbation it exists to catch
must fail it.
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
    synthetic_matrix,
)


def labels(report):
    return [label for label, _mismatches in report.rows]


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
        # The baseline plus one scorecard per row: a second baseline
        # and the cache-off and traced invariance runs.
        report = check_determinism(fixture_matrix(), seed=4)
        assert isinstance(report, DeterminismReport)
        assert labels(report) == ["baseline", "cache=off", "traced"]
        assert len(report.results) == 4
        assert report.seed == 4
        assert report.results[0].suite_name == "determinism-fixture"

    def test_workers_adds_invariance_runs(self):
        # ...plus the fanned run.
        report = check_determinism(fixture_matrix(), seed=0, workers=2)
        assert report.identical, str(report)
        assert labels(report) == ["baseline", "cache=off", "workers=2",
                                  "traced"]

    def test_cache_dir_adds_disk_runs(self, tmp_path):
        report = check_determinism(fixture_matrix(), seed=0,
                                   cache_dir=str(tmp_path))
        assert report.identical, str(report)
        assert labels(report) == ["baseline", "cache=off", "disk-cold",
                                  "disk-warm", "scorecard-tier", "traced"]

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
        # The stored entry lost a per-k value; re-encoding the served
        # card shows the label it lost.
        [mismatch] = report.mismatches
        assert mismatch.startswith("[scorecard-tier] details.cluster."
                                   "per_k_bits.")
        assert mismatch.endswith(" != <absent>")

    def test_focus_is_threaded_through(self):
        report = check_determinism(fixture_matrix(), seed=0, focus="llc")
        assert report.identical, str(report)
        assert report.results[0].focus == "llc"


class TestDiffScorecards:
    def test_identical_cards_diff_empty(self):
        card = check_determinism(fixture_matrix(), seed=0).results[0]
        assert diff_scorecards(card, card) == []

    def test_injected_score_drift_detected(self):
        card = check_determinism(fixture_matrix(), seed=0).results[0]
        drifted = dataclasses.replace(
            card, spread=card.spread + 1e-15)
        mismatches = diff_scorecards(card, drifted)
        assert len(mismatches) == 1
        assert mismatches[0].startswith("score_bits.spread: ")

    def test_nan_equals_nan_bitwise(self):
        card = check_determinism(fixture_matrix(), seed=0).results[0]
        a = dataclasses.replace(card, trend=float("nan"))
        b = dataclasses.replace(card, trend=float("nan"))
        assert diff_scorecards(a, b) == []

    def test_metadata_drift_detected(self):
        card = check_determinism(fixture_matrix(), seed=0).results[0]
        renamed = dataclasses.replace(card, suite_name="other")
        assert diff_scorecards(card, renamed) == [
            "suite: determinism-fixture != other"]

    def test_failing_report_str_lists_mismatches(self):
        card = check_determinism(fixture_matrix(), seed=0).results[0]
        drifted = dataclasses.replace(card, coverage=card.coverage + 1e-12)
        mismatches = tuple(diff_scorecards(card, drifted))
        report = DeterminismReport(name="score", seed=0,
                                   rows=(("drifted", mismatches),),
                                   results=(card, drifted))
        assert not report.identical
        text = str(report)
        assert "score [drifted]: FAIL" in text
        assert "coverage" in text


class TestSearchDeterminism:
    def _matrix(self, seed=0):
        return synthetic_matrix(seed=seed, n_workloads=8, n_events=2,
                                length=16)

    def test_search_runs_are_bit_identical(self):
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=4, seed=0)
        assert report.identical, str(report)
        assert labels(report) == ["baseline", "cache=off", "lockstep=off",
                                  "traced"]
        assert len(report.results) == 5
        assert "PASS" in str(report)

    def test_workers_adds_invariance_runs(self):
        # ...plus the fanned run.
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=4, seed=0,
                                          workers=2)
        assert report.identical, str(report)
        assert labels(report) == ["baseline", "cache=off", "workers=2",
                                  "lockstep=off", "traced"]

    def test_cache_dir_adds_disk_runs(self, tmp_path):
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=4, seed=0,
                                          cache_dir=str(tmp_path))
        assert report.identical, str(report)
        assert labels(report) == ["baseline", "cache=off", "disk-cold",
                                  "disk-warm", "lockstep=off", "traced"]

    @pytest.mark.parametrize("damage", ["unstored", "undecodable"])
    def test_disk_warm_recomputation_fails_loudly(self, tmp_path,
                                                  monkeypatch, damage):
        from repro.engine import diskcache
        from repro.service import protocol

        if damage == "unstored":
            real = diskcache.encode

            def encode(value):
                meta = real(value)
                if meta is not None and meta[0]["type"] == "subset-report":
                    return None
                return meta

            monkeypatch.setattr(diskcache, "encode", encode)
        else:
            def decode(payload):
                raise ValueError("undecodable report")

            monkeypatch.setattr(protocol, "decode_subset_report", decode)
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=6, method="random",
                                          seed=0, cache_dir=str(tmp_path))
        # The bits still match (recomputation is exact); only the
        # disk-warm run's DTW work gives the lost entries away.
        assert not report.identical
        [mismatch] = report.mismatches
        assert mismatch.startswith("[disk-warm] computed ")
        assert "DTW pair(s)" in mismatch

    def test_disk_warm_counts_full_suite_matrix_fills(self, tmp_path,
                                                      monkeypatch):
        # A tier that lost the full-suite DTW matrices makes the
        # disk-warm search recompute every distinct pair of them; the
        # row must fail and say how many.
        from repro.core.normalization import normalize_series_set
        from repro.engine.cache import (
            MISS,
            array_digest,
            content_key,
            pair_key,
        )
        from repro.engine.diskcache import DiskCache

        matrix = self._matrix()
        lost, pairs = set(), set()
        for series in matrix.series.values():
            norm = normalize_series_set(
                [np.asarray(s, dtype=float) for s in series])
            lost.add(content_key("dtw-matrix", tuple(norm), None))
            digests = [array_digest(a) for a in norm]
            pairs |= {pair_key(a, b, None) for i, a in enumerate(digests)
                      for b in digests[i + 1:]}
        real = DiskCache.get

        def get(self, key):
            return MISS if key in lost else real(self, key)

        monkeypatch.setattr(DiskCache, "get", get)
        report = check_search_determinism(matrix, subset_size=4,
                                          n_candidates=6, method="random",
                                          seed=0, cache_dir=str(tmp_path))
        assert not report.identical
        [mismatch] = report.mismatches
        assert mismatch.startswith(
            f"[disk-warm] computed {len(pairs)} DTW pair(s)")

    def test_lockstep_row_catches_a_flipped_label(self, monkeypatch):
        # One wrong label out of the candidate-stacked fit: every row
        # that fits in lockstep agrees with the baseline (cache=off too,
        # where kmeans_sweeps returns the fitted labels without the
        # cache), and only the row fitting each candidate alone disagrees.
        from repro.engine import Engine, subset_eval
        from repro.engine import engine as engine_module

        real = engine_module.fit_stack

        def flipped(xs, k, *args, **kwargs):
            results = real(xs, k, *args, **kwargs)
            labels = results[0].labels.copy()
            labels[0] = (labels[0] + 1) % k
            results[0] = dataclasses.replace(results[0], labels=labels)
            return results

        monkeypatch.setattr(engine_module, "fit_stack", flipped)
        lockstep = Engine.kmeans_sweeps
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=4, method="random",
                                          seed=0)
        assert {m.split("]")[0] for m in report.mismatches} == {
            "[lockstep=off"}
        assert Engine.kmeans_sweeps is lockstep
        assert subset_eval.BATCH_CANDIDATES == 64

    def test_lockstep_row_fails_without_a_batch(self, monkeypatch):
        # A search whose candidates never reach kmeans_sweeps in a block
        # of two compares the one-candidate path with itself.
        from repro.engine import subset_eval

        monkeypatch.setattr(subset_eval, "BATCH_CANDIDATES", 1)
        report = check_search_determinism(self._matrix(), subset_size=4,
                                          n_candidates=4, method="random",
                                          seed=0)
        assert report.mismatches == (
            "[lockstep=off] no batch of two or more candidates was "
            "fitted in lockstep",)

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
        card = report.results[0]
        for score in ("cluster", "trend", "coverage", "spread"):
            assert np.isfinite(getattr(card, score)), score
        assert "lru-stack=off" in labels(report)


class TestLruStackRow:
    """A suite subject re-simulates with the LRU stack pass off; the
    row fails on a stack pass that differs from the round kernel, and
    on a subject no stream of which takes the stack pass."""

    def _check(self):
        from repro.qa.determinism import _default_subject

        suite, factory = _default_subject(seed=0, quick=True)
        return check_determinism(suite, seed=0, session_factory=factory)

    def test_catches_a_wrong_stack_pass(self, monkeypatch):
        from repro.uarch.cache import SetAssociativeCache

        real = SetAssociativeCache._lru_stack

        def wrong(cache, lines, writes):
            hits = real(cache, lines, writes)
            hits[-1] = ~hits[-1]
            return hits

        monkeypatch.setattr(SetAssociativeCache, "_lru_stack", wrong)
        dispatch = SetAssociativeCache._stack_pays
        report = self._check()
        assert {m.split("]")[0] for m in report.mismatches} == {
            "[lru-stack=off"}
        # The row restores the dispatch.
        assert SetAssociativeCache._stack_pays is dispatch

    def test_a_subject_that_never_takes_the_stack_pass_fails(
            self, monkeypatch):
        from repro.uarch.cache import SetAssociativeCache

        monkeypatch.setattr(SetAssociativeCache, "_stack_pays",
                            lambda cache, lines: False)
        report = self._check()
        assert report.mismatches == (
            "[lru-stack=off] no cache stream would have taken the LRU "
            "stack pass",)


class TestHarness:
    """The whole table, and the served and history rows each catching
    the perturbation they exist for."""

    ROWS = {
        "score 'qa-determinism'": [
            "baseline", "cache=off", "workers=2", "disk-cold", "disk-warm",
            "scorecard-tier", "lru-stack=off", "traced"],
        "search 'swap' (8 candidates)": [
            "baseline", "cache=off", "workers=2", "disk-cold", "disk-warm",
            "lockstep=off", "traced"],
        "served 'nbench'": [
            "served", "served-warm", "served-concurrent", "served-restart"],
        "history 'parsec'": ["recorded", "rerun", "windows"],
        "qa temp dir": ["leak check"],
    }

    def test_whole_table_passes_and_traces_every_check(self, tmp_path,
                                                       capsys):
        import re

        from repro.cli import main
        from repro.obs import load_spans

        trace = tmp_path / "qa.jsonl"
        assert main(["qa", "--workers", "2", "--trace", str(trace)]) == 0
        ran = {}
        for line in capsys.readouterr().out.splitlines():
            match = re.fullmatch(r"(.+) \[(.+)\]: (PASS|FAIL.*)", line)
            if match:
                assert match.group(3) == "PASS", line
                ran.setdefault(match.group(1), []).append(match.group(2))
        assert ran == self.ROWS
        # The traced rows restore the command's own tracer instead of
        # dropping it, so the search check's spans reach the file.
        names = {span.name for span in load_spans(str(trace))}
        assert "subset.evaluate" in names

    def test_served_rows_catch_a_flipped_wire_bit(self, tmp_path,
                                                  monkeypatch):
        from dataclasses import replace

        from repro.experiments.runner import ExperimentConfig
        from repro.qa.determinism import check_served
        from repro.service import client

        from repro.service.protocol import bits_float, float_bits

        real = client.ServiceClient.score

        def flipped(self, suite, focus="all"):
            payload = real(self, suite, focus=focus)
            bits = payload["score_bits"]
            bits["cluster"] = float_bits(
                np.nextafter(bits_float(bits["cluster"]), np.inf))
            return payload

        monkeypatch.setattr(client.ServiceClient, "score", flipped)
        report = check_served(replace(ExperimentConfig.quick(),
                                      cache_dir=str(tmp_path)))
        # served-concurrent compares rendered bytes, which ride the
        # wire as text.
        assert [m.split(":")[0] for m in report.mismatches] == [
            "[served] score_bits.cluster", "[served-warm] score_bits.cluster",
            "[served-restart] score_bits.cluster"]

    def test_recorded_row_catches_a_perturbed_record(self, tmp_path,
                                                     monkeypatch):
        from dataclasses import replace

        from repro.experiments.runner import ExperimentConfig
        from repro.obs.history import HistoryRecorder
        from repro.qa.determinism import check_history

        real = HistoryRecorder.publish

        def perturbed(self, kind, obj):
            if kind == "scorecard":
                obj = replace(obj, trend=np.nextafter(obj.trend, np.inf))
            real(self, kind, obj)

        monkeypatch.setattr(HistoryRecorder, "publish", perturbed)
        report = check_history(
            replace(ExperimentConfig.quick(),
                    cache_dir=str(tmp_path / "cache")),
            str(tmp_path / "history"))
        [mismatch] = report.mismatches
        assert mismatch.startswith("[recorded] recorded score_bits.trend: ")
