"""Tests for the longitudinal run-history store (repro.obs.history):
recorder install/publish semantics, record building, the append-only
store, bit-exact diffing, trajectory regression gates, the history
report, windowed in-run trajectories, and the CLI surface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.matrix import CounterMatrix
from repro.experiments.runner import clear_cache
from repro.obs.history import (
    HistoryRecorder,
    HistoryStore,
    build_record,
    by_digest,
    check_trajectory,
    current_recorder,
    diff_records,
    install_recorder,
    publish,
    render_diff,
    render_history,
    uninstall_recorder,
    window_trajectory,
)
from repro.obs.manifest import build_manifest

DIGEST = "a" * 64
OTHER_DIGEST = "b" * 64


@pytest.fixture(autouse=True)
def _no_leftover_recorder():
    uninstall_recorder()
    yield
    uninstall_recorder()


def synthetic_record(run_id=None, digest=DIGEST, wall_s=1.0, hits=90,
                     misses=10, cluster_bits="3fe0000000000000"):
    record = {
        "schema_version": 1,
        "command": "score",
        "config_digest": digest,
        "scorecards": [{
            "suite": "synthetic", "focus": "all",
            "scores": {"cluster": 0.5, "trend": 0.25,
                       "coverage": 0.75, "spread": 0.125},
            "score_bits": {"cluster": cluster_bits,
                           "trend": "3fd0000000000000",
                           "coverage": "3fe8000000000000",
                           "spread": "3fc0000000000000"},
            "details": {},
            "rendered": "synthetic [all]",
        }],
        "subset_reports": [],
        "search_results": [],
        "windows": [],
        "rendered_sha256": "0" * 64,
        "metrics": {"values": {"cache_hits": hits,
                               "cache_misses": misses},
                    "kinds": {"cache_hits": "counter",
                              "cache_misses": "counter"}},
        "self_times": {},
        "wall_time_s": wall_s,
        "created_unix": 0.0,
    }
    if run_id is not None:
        record["run_id"] = run_id
    return record


def synthetic_matrix(seed=0, n=10, m=3, length=20):
    rng = np.random.default_rng(seed)
    workloads = tuple(f"w{i:02d}" for i in range(n))
    events = tuple(f"e{j}" for j in range(m))
    series = {
        event: [rng.uniform(0.0, 10.0, size=length) for _ in workloads]
        for event in events
    }
    return CounterMatrix(
        workloads=workloads,
        events=events,
        values=rng.uniform(1.0, 100.0, size=(n, m)),
        series=series,
        suite_name="synthetic",
    )


class TestRecorder:
    def test_publish_is_noop_without_recorder(self):
        assert current_recorder() is None
        publish("scorecard", object())  # must not raise

    def test_install_publish_uninstall(self):
        recorder = install_recorder()
        assert current_recorder() is recorder
        publish("rendered", "text")
        publish("windows", [{"window": 0}, {"window": 1}])
        assert recorder.rendered == ["text"]
        assert [w["window"] for w in recorder.windows] == [0, 1]
        uninstall_recorder()
        assert current_recorder() is None

    def test_metrics_snapshot_overwrites(self):
        recorder = HistoryRecorder()
        recorder.publish("metrics", "first")
        recorder.publish("metrics", "second")
        assert recorder.metrics_snapshot == "second"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown history publish"):
            HistoryRecorder().publish("telemetry", object())

    def test_score_publishes_to_a_recorder_installed_through_obs(
            self, capsys):
        """The benchmark's traced pass reads a run this way: a recorder
        installed through :mod:`repro.obs` collects what ``repro
        score`` publishes, and the record built from it digests the
        printed text."""
        import hashlib

        import repro.obs as obs
        import repro.obs.trace as trace

        assert obs.install_recorder is trace.install_recorder \
            is install_recorder
        recorder = obs.install_recorder()
        assert main(["--quick", "score", "nbench"]) == 0
        out = capsys.readouterr().out
        [card] = recorder.scorecards
        assert out == f"{card}\n"
        assert recorder.metrics_snapshot.values["cache_misses"] > 0
        manifest = build_manifest("score", ["score", "nbench"], {})
        record = build_record("score", manifest, recorder)
        assert record["rendered_sha256"] == hashlib.sha256(
            out[:-1].encode("utf-8") + b"\x00").hexdigest()


class TestBuildRecord:
    def test_record_shape_and_bits(self):
        from repro.core.report import SuiteScorecard
        from repro.service.protocol import float_bits

        card = SuiteScorecard(
            suite_name="shape", focus="all",
            cluster=0.1 + 0.2, trend=float("nan"), coverage=-0.0,
            spread=1e-300, details={},
        )
        recorder = HistoryRecorder()
        recorder.publish("scorecard", card)
        config = {"suite": "shape", "quick": True}
        manifest = build_manifest("score", ["score", "shape"], config)
        record = build_record("score", manifest, recorder,
                              wall_s=1.25)
        assert record["schema_version"] == 1
        assert record["config_digest"] == manifest["config_digest"]
        assert record["manifest"]["config"] == config
        assert record["wall_time_s"] == 1.25
        assert record["metrics"] is None
        bits = record["scorecards"][0]["score_bits"]
        assert bits["cluster"] == float_bits(0.1 + 0.2)
        assert bits["trend"] == float_bits(float("nan"))
        assert bits["coverage"] == float_bits(-0.0)
        assert len(record["rendered_sha256"]) == 64
        json.dumps(record)  # JSON-safe throughout


class TestHistoryStore:
    def test_append_assigns_ordered_run_ids(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        assert len(store) == 0
        store.append(synthetic_record())
        store.append(synthetic_record())
        ids = store.run_ids()
        assert len(ids) == 2
        assert ids[0].startswith("run-000001-" + DIGEST[:12])
        assert ids[1].startswith("run-000002-")
        assert len(store) == 2

    def test_load_by_id_seq_and_prefix(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(synthetic_record(wall_s=1.0))
        store.append(synthetic_record(wall_s=2.0, digest=OTHER_DIGEST))
        full_id = store.run_ids()[1]
        assert store.load(full_id)["wall_time_s"] == 2.0
        assert store.load("1")["wall_time_s"] == 1.0
        assert store.load("run-000002")["wall_time_s"] == 2.0

    def test_load_rejects_missing_and_ambiguous(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(synthetic_record())
        store.append(synthetic_record())
        with pytest.raises(KeyError, match="no run"):
            store.load("run-000099")
        with pytest.raises(KeyError, match="ambiguous"):
            store.load("run-")

    def test_load_rejects_schema_mismatch(self, tmp_path):
        store = HistoryStore(tmp_path)
        path = store.append(synthetic_record())
        record = json.loads(open(path).read())
        record["schema_version"] = 99
        open(path, "w").write(json.dumps(record))
        with pytest.raises(ValueError, match="history schema"):
            store.load(store.run_ids()[0])

    def test_trajectories_group_by_digest(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(synthetic_record())
        store.append(synthetic_record(digest=OTHER_DIGEST))
        store.append(synthetic_record())
        trajectories = by_digest(store.runs())
        assert list(trajectories) == [DIGEST, OTHER_DIGEST]
        assert len(trajectories[DIGEST]) == 2
        assert len(trajectories[OTHER_DIGEST]) == 1

    def test_missing_directory_is_empty(self, tmp_path):
        store = HistoryStore(tmp_path / "never-created")
        assert store.run_ids() == []
        assert store.scan() == ([], [])


#: Ways a record file gets damaged: truncated at several offsets (a
#: negative offset counts from the end), not UTF-8, not a JSON object,
#: written under another schema version, or parsing as JSON with a field
#: of the wrong type.
DAMAGE = ("truncate:0", "truncate:1", "truncate:200", "truncate:-2",
          "binary", "array", "schema", "score-bits-type", "wall-type")

#: The wrong-typed field each mis-shaped damage plants, by its label.
MIS_SHAPED = {"score-bits-type": "scorecards[0].score_bits",
              "wall-type": "wall_time_s"}


def damage_record(path, damage):
    raw = open(path, "rb").read()
    kind, _, arg = damage.partition(":")
    if kind == "truncate":
        out = raw[:int(arg)]
    elif kind == "binary":
        out = b"\xff\xfe" + raw[2:]
    elif kind == "array":
        out = b"[1, 2]\n"
    else:
        record = json.loads(raw)
        if kind == "score-bits-type":
            record["scorecards"][0]["score_bits"] = 5
        elif kind == "wall-type":
            record["wall_time_s"] = "slow"
        else:
            record["schema_version"] = 99
        out = json.dumps(record).encode()
    open(path, "wb").write(out)


def damaged_store(root, damage):
    """Three records of one digest with the middle one damaged; returns
    the store and the damaged file's path."""
    store = HistoryStore(root)
    paths = [store.append(synthetic_record(wall_s=float(i)))
             for i in range(3)]
    damage_record(paths[1], damage)
    return store, paths[1]


@pytest.mark.parametrize("damage", DAMAGE)
class TestDamagedRecords:
    def test_scan_skips_and_names_the_file(self, tmp_path, damage):
        store, bad = damaged_store(tmp_path, damage)
        records, skipped = store.scan()
        assert [r["wall_time_s"] for r in records] == [0.0, 2.0]
        assert len(skipped) == 1 and skipped[0].startswith(f"{bad}: ")
        assert store.runs() == records
        assert [len(t) for t in by_digest(records).values()] == [2]

    def test_load_raises_one_value_error(self, tmp_path, damage):
        store, bad = damaged_store(tmp_path, damage)
        with pytest.raises(ValueError) as info:
            store.load("2")
        assert str(info.value).startswith(f"{bad}: ")
        assert store.load("3")["wall_time_s"] == 2.0

    def test_cli_notes_the_skipped_file(self, tmp_path, capsys, damage):
        _store, bad = damaged_store(tmp_path, damage)
        hist = str(tmp_path)
        note = f"note: skipped {bad}: "
        assert main(["obs", "history", "--history-dir", hist]) == 0
        out = capsys.readouterr().out
        assert out.count(note) == 1
        assert "2 run(s)" in out
        assert main(["obs", "check", "--history-dir", hist,
                     "--max-wall-pct", "-1"]) == 0
        out = capsys.readouterr().out
        assert out.count(note) == 1
        assert "history check: ok (2 run(s)" in out
        assert main(["obs", "diff", "--history-dir", hist, "1", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro obs diff: {bad}: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("damage", sorted(MIS_SHAPED))
def test_mis_shaped_record_error_names_its_field(tmp_path, capsys, damage):
    store, bad = damaged_store(tmp_path, damage)
    with pytest.raises(ValueError) as info:
        store.load("2")
    assert str(info.value).startswith(
        f"{bad}: mis-shaped history record ({MIS_SHAPED[damage]} is a ")
    assert main(["obs", "diff", "--history-dir", str(tmp_path), "2",
                 "3"]) == 2
    assert capsys.readouterr().err == f"repro obs diff: {info.value}\n"


class TestDiffRecords:
    def test_identical_records_diff_clean(self):
        a = synthetic_record(run_id="run-000001")
        b = synthetic_record(run_id="run-000002")
        diff = diff_records(a, b)
        assert diff.clean
        assert diff.same_digest
        assert "bit-identical" in render_diff(diff)

    def test_single_bit_flip_is_drift(self):
        a = synthetic_record(run_id="run-000001")
        flipped = "%016x" % (int("3fe0000000000000", 16) ^ 1)
        b = synthetic_record(run_id="run-000002",
                             cluster_bits=flipped)
        diff = diff_records(a, b)
        assert not diff.clean
        assert any("score_bits.cluster" in entry
                   for entry in diff.drift)
        assert "DETERMINISM REGRESSION" in render_diff(diff)

    def test_different_digest_not_a_regression(self):
        a = synthetic_record(run_id="run-000001")
        b = synthetic_record(run_id="run-000002",
                             digest=OTHER_DIGEST,
                             cluster_bits="4000000000000000")
        diff = diff_records(a, b)
        assert not diff.same_digest
        assert "expected" in render_diff(diff)

    def test_perf_deltas_reported(self):
        a = synthetic_record(wall_s=1.0, hits=90, misses=10)
        b = synthetic_record(wall_s=1.5, hits=50, misses=50)
        diff = diff_records(a, b)
        assert diff.perf["wall_delta_pct"] == pytest.approx(50.0)
        rate_a, rate_b = diff.perf["warm_hit_rate"]
        assert rate_a == pytest.approx(0.9)
        assert rate_b == pytest.approx(0.5)

    def test_disk_hits_count_as_warm(self):
        """A disk-warm run trades memory hits for disk hits; the warm
        rate must not read that as a regression (the engine counts a
        disk-served lookup as a memory miss *and* a disk hit)."""
        cold = synthetic_record(hits=90, misses=10)
        warm = synthetic_record(hits=0, misses=100)
        warm["metrics"]["values"]["disk_hits"] = 95
        diff = diff_records(cold, warm)
        _, rate_b = diff.perf["warm_hit_rate"]
        assert rate_b == pytest.approx(0.95)


class TestCheckTrajectory:
    def test_clean_trajectory_has_no_findings(self):
        records = [synthetic_record(run_id=f"run-{i}", wall_s=1.0 + 0.1 * i)
                   for i in range(3)]
        # A 90/10 -> 88/12 hit rate is inside the drop tolerance.
        records.append(synthetic_record(run_id="run-3", wall_s=1.2,
                                        hits=88, misses=12))
        assert check_trajectory(records) == []

    def test_score_drift_always_fatal(self):
        a = synthetic_record(run_id="run-000001")
        b = synthetic_record(run_id="run-000002",
                             cluster_bits="3fe0000000000001")
        kinds = {f.kind for f in check_trajectory([a, b])}
        assert kinds == {"score-drift"}

    def test_wall_regression_vs_best_earlier(self):
        records = [
            synthetic_record(run_id="run-000001", wall_s=2.0),
            synthetic_record(run_id="run-000002", wall_s=1.0),
            synthetic_record(run_id="run-000003", wall_s=1.6),
        ]
        findings = check_trajectory(records)
        assert [f.kind for f in findings] == ["wall-regression"]
        assert findings[0].run_id == "run-000003"

    def test_hit_rate_drop_flagged(self):
        records = [
            synthetic_record(run_id="run-000001", hits=90, misses=10),
            synthetic_record(run_id="run-000002", hits=10, misses=90),
        ]
        kinds = {f.kind for f in check_trajectory(records)}
        assert "hit-rate-drop" in kinds

    def test_thresholds_disable_with_none(self):
        records = [
            synthetic_record(run_id="run-000001", wall_s=1.0, hits=90,
                             misses=10),
            synthetic_record(run_id="run-000002", wall_s=9.0, hits=1,
                             misses=99),
        ]
        assert check_trajectory(records, max_wall_pct=None,
                                max_hit_drop=None) == []

    def test_single_record_is_trivially_clean(self):
        assert check_trajectory([synthetic_record()]) == []


class TestRenderHistory:
    def test_report_shows_strips_and_runs(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(synthetic_record(wall_s=1.0))
        store.append(synthetic_record(wall_s=1.1))
        store.append(synthetic_record(
            wall_s=1.2, cluster_bits="3fe0000000000001"))
        report = render_history(store)
        assert f"config {DIGEST[:12]}" in report
        assert "3 run(s)" in report
        assert "*=!" in report  # the cluster drift strip
        assert "all bits" in report
        assert "run-000001" in report

    def test_empty_store_reports_no_runs(self, tmp_path):
        assert "no recorded runs" in render_history(HistoryStore(tmp_path))

    def test_digest_filter(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(synthetic_record())
        store.append(synthetic_record(digest=OTHER_DIGEST))
        report = render_history(store, digest=OTHER_DIGEST[:8])
        assert OTHER_DIGEST[:12] in report
        assert DIGEST[:12] not in report


class TestWindowTrajectory:
    def test_windows_cover_prefixes_and_full_suite(self):
        matrix = synthetic_matrix()
        windows = window_trajectory(matrix, seed=3, n_windows=4)
        sizes = [w["workloads"] for w in windows]
        assert sizes == sorted(sizes)
        assert sizes[0] >= 2
        assert sizes[-1] == matrix.n_workloads
        for window in windows:
            assert set(window["scores"]) == {"cluster", "trend",
                                             "coverage", "spread"}
            assert set(window["score_bits"]) == set(window["scores"])

    def test_windows_deterministic(self):
        matrix = synthetic_matrix()
        first = window_trajectory(matrix, seed=3, n_windows=3)
        second = window_trajectory(matrix, seed=3, n_windows=3)
        assert first == second

    def test_last_window_matches_full_suite_slice(self):
        from repro.engine.subset_eval import SubsetEvaluator
        from repro.service.protocol import float_bits

        matrix = synthetic_matrix(seed=1)
        windows = window_trajectory(matrix, seed=3, n_windows=2)
        evaluator = SubsetEvaluator(matrix, seed=3)
        report = evaluator.evaluate(list(matrix.workloads))
        expected = {name: float_bits(float(value))
                    for name, value in report.subset_scores.items()}
        assert windows[-1]["score_bits"] == expected

    def test_rejects_tiny_suites(self):
        matrix = synthetic_matrix(n=1)
        with pytest.raises(ValueError, match="at least 2 workloads"):
            window_trajectory(matrix)


class TestHistoryCli:
    @pytest.fixture(autouse=True, scope="class")
    def _fresh_cache(self):
        clear_cache()
        yield
        clear_cache()

    def test_record_diff_check_flow(self, capsys, tmp_path):
        # The second leg reads its scorecard back from the disk tier the
        # first wrote: a cold and a disk-warm run share one digest.
        hist = str(tmp_path / "hist")
        for _ in range(2):
            assert main(["--quick", "score", "nbench",
                         "--history-dir", hist, "--history-windows", "3",
                         "--cache-dir", str(tmp_path / "cache")]) == 0
        captured = capsys.readouterr()
        assert "recorded run" in captured.err
        assert "recorded run" not in captured.out

        store = HistoryStore(hist)
        assert len(store.run_ids()) == 2
        a, b = store.runs()
        assert a["config_digest"] == b["config_digest"]
        assert len(a["windows"]) == len(b["windows"]) == 3
        diff = diff_records(a, b)
        assert diff.drift == ()

        assert main(["obs", "diff", "--history-dir", hist]) == 0
        out = capsys.readouterr().out
        assert "zero drift" in out
        assert main(["obs", "check", "--history-dir", hist,
                     "--max-wall-pct", "-1"]) == 0
        assert main(["obs", "history", "--history-dir", hist]) == 0
        assert "config " in capsys.readouterr().out

    def test_failed_append_is_one_line_after_the_report(self, capsys,
                                                        tmp_path):
        store = tmp_path / "not-a-directory"
        store.write_text("")
        assert main(["--quick", "score", "nbench",
                     "--history-dir", str(store)]) == 2
        out, err = capsys.readouterr()
        assert "cluster=" in out
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert err.startswith("repro score: history append failed: ")

    def test_check_fails_on_perturbed_record(self, capsys, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(synthetic_record())
        store.append(synthetic_record(
            cluster_bits="3fe0000000000001"))
        assert main(["obs", "check", "--history-dir",
                     str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "score-drift" in captured.out
        assert main(["obs", "diff", "--history-dir",
                     str(tmp_path)]) == 1

    def test_check_reads_each_record_once(self, capsys, monkeypatch,
                                          tmp_path):
        import repro.obs.history as history

        store = HistoryStore(tmp_path)
        for digest in (DIGEST, OTHER_DIGEST, DIGEST):
            store.append(synthetic_record(digest=digest))
        read, reads = history._read_record, []

        def counting(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(history, "_read_record", counting)
        assert main(["obs", "check", "--history-dir", str(tmp_path)]) == 0
        assert "3 run(s), 2 trajectory(ies)" in capsys.readouterr().out
        assert sorted(reads) == sorted(store._paths())

    def test_history_commands_require_store(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_HISTORY", raising=False)
        assert main(["obs", "history"]) == 2
        assert "no history directory" in capsys.readouterr().err

    def test_history_dir_env_default(self, monkeypatch, tmp_path):
        from repro.cli import build_parser

        monkeypatch.setenv("REPRO_HISTORY", str(tmp_path))
        args = build_parser().parse_args(["score", "nbench"])
        assert args.history_dir == str(tmp_path)
        monkeypatch.delenv("REPRO_HISTORY")
        args = build_parser().parse_args(["score", "nbench"])
        assert args.history_dir is None
