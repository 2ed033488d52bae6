"""Tests for repro.obs.export and repro.obs.manifest: trace round-trips,
the Chrome trace-event schema, and manifest round-trips."""

import json

import pytest

from repro.obs.export import (
    FORMAT_CHROME,
    FORMAT_JSONL,
    chrome_events,
    load_spans,
    write_trace,
)
from repro.obs.manifest import (
    SCHEMA_VERSION,
    build_manifest,
    config_digest,
    load_manifest,
    manifest_path,
    write_manifest,
)
from repro.obs.trace import SpanRecord


def sample_spans():
    return [
        SpanRecord(sid=1, parent=None, name="cli.score", start_ns=1_000,
                   end_ns=9_000, pid=100, tid=1),
        SpanRecord(sid=2, parent=1, name="kernel.trend", start_ns=2_000,
                   end_ns=5_000, pid=100, tid=1,
                   attrs={"events": 3}),
        SpanRecord(sid=3, parent=1, name="worker.task", start_ns=500,
                   end_ns=700, pid=101, tid=2),
    ]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        spans = sample_spans()
        assert write_trace(spans, path) == 3
        assert load_spans(path) == spans

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert write_trace([], path) == 0
        assert load_spans(path) == []

    def test_one_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(sample_spans(), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert {"sid", "parent", "name", "start_ns", "end_ns",
                    "pid", "tid", "attrs"} <= set(record)

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"sid": 1, "parent": null, "name": "a", '
                        '"start_ns": 1, "end_ns": 2}\nnot json\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            load_spans(path)


class TestChrome:
    def test_event_schema(self):
        events = chrome_events(sample_spans())
        assert len(events) == 3
        for event, span in zip(events, sample_spans()):
            assert event["ph"] == "X"  # complete events
            assert event["cat"] == "repro"
            assert event["name"] == span.name
            assert event["ts"] == span.start_ns / 1000.0  # microseconds
            assert event["dur"] == span.duration_ns / 1000.0
            assert event["pid"] == span.pid
            assert event["tid"] == span.tid
            assert event["args"]["sid"] == span.sid
            assert event["args"]["parent"] == span.parent

    def test_attrs_land_in_args(self):
        events = chrome_events(sample_spans())
        assert events[1]["args"]["events"] == 3

    def test_written_file_is_one_json_object(self, tmp_path):
        path = tmp_path / "t.json"
        write_trace(sample_spans(), path, fmt=FORMAT_CHROME)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == 3
        assert payload["displayTimeUnit"] == "ms"

    def test_summary_loader_rejects_chrome_file(self, tmp_path):
        path = tmp_path / "t.json"
        write_trace(sample_spans(), path, fmt=FORMAT_CHROME)
        with pytest.raises(ValueError, match="Chrome trace-event"):
            load_spans(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            write_trace([], tmp_path / "t", fmt="protobuf")


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(
            command="score",
            argv=["score", "nbench", "--trace", "t.jsonl"],
            config={"seed": 7, "workers": 2, "cache": True},
            trace_file=tmp_path / "t.jsonl",
            trace_format=FORMAT_JSONL,
        )
        path = manifest_path(tmp_path / "t.jsonl")
        write_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded == json.loads(json.dumps(manifest))  # JSON-clean
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["command"] == "score"
        assert loaded["trace_file"] == "t.jsonl"  # basename only
        assert loaded["trace_format"] == FORMAT_JSONL
        assert loaded["config"]["workers"] == 2
        assert "python" in loaded["versions"]

    def test_manifest_path_shape(self):
        assert manifest_path("out/t.jsonl") == "out/t.jsonl.manifest.json"

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema"):
            load_manifest(path)

    def test_config_digest_stable_and_order_independent(self):
        a = config_digest({"seed": 7, "workers": 2})
        b = config_digest({"workers": 2, "seed": 7})
        assert a == b
        assert config_digest({"seed": 8, "workers": 2}) != a

    def test_config_digest_folds_non_json_values(self):
        # Paths and other objects fold through repr instead of failing.
        digest = config_digest({"cache_dir": object()})
        assert len(digest) == 64

