"""Coverage for run-manifest config digests and round-trips: key-order
invariance, nested-mapping canonicalization, sensitivity to every
config field, the resolved ``REPRO_*`` environment snapshot, and the
manifest JSON round-trip."""

import json

import pytest

from repro.obs.manifest import (
    ENV_VARS,
    build_manifest,
    config_digest,
    load_manifest,
    manifest_path,
    resolved_env,
    write_manifest,
)

BASE_CONFIG = {
    "suite": "parsec",
    "focus": "all",
    "quick": True,
    "seed": 7,
    "workers": 2,
    "cache": True,
    "cache_dir": None,
    "backend": "vectorized",
}


class TestConfigDigest:
    def test_key_order_invariance(self):
        reordered = dict(reversed(list(BASE_CONFIG.items())))
        assert list(reordered) != list(BASE_CONFIG)
        assert config_digest(reordered) == config_digest(BASE_CONFIG)

    def test_nested_mapping_canonicalization(self):
        nested_a = dict(BASE_CONFIG, extra={"b": 2, "a": {"y": 1, "x": 0}})
        nested_b = dict(BASE_CONFIG, extra={"a": {"x": 0, "y": 1}, "b": 2})
        assert config_digest(nested_a) == config_digest(nested_b)

    def test_nested_value_changes_digest(self):
        nested_a = dict(BASE_CONFIG, extra={"a": {"x": 0}})
        nested_b = dict(BASE_CONFIG, extra={"a": {"x": 1}})
        assert config_digest(nested_a) != config_digest(nested_b)

    def test_sequences_keep_order(self):
        assert config_digest({"suites": ["a", "b"]}) \
            != config_digest({"suites": ["b", "a"]})

    @pytest.mark.parametrize("field", sorted(BASE_CONFIG))
    def test_sensitive_to_every_field(self, field):
        changed = dict(BASE_CONFIG)
        value = changed[field]
        if isinstance(value, bool):
            changed[field] = not value
        elif isinstance(value, int):
            changed[field] = value + 1
        else:
            changed[field] = "changed"
        assert config_digest(changed) != config_digest(BASE_CONFIG)

    def test_dropping_a_field_changes_digest(self):
        smaller = dict(BASE_CONFIG)
        del smaller["backend"]
        assert config_digest(smaller) != config_digest(BASE_CONFIG)

    def test_non_json_values_fold_via_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        digest = config_digest({"thing": Opaque()})
        assert digest == config_digest({"thing": Opaque()})

    def test_digest_is_stable_hex(self):
        digest = config_digest(BASE_CONFIG)
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestResolvedEnv:
    def test_snapshot_covers_every_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "run.jsonl")
        monkeypatch.delenv("REPRO_HISTORY", raising=False)
        env = resolved_env()
        assert set(env) == set(ENV_VARS)
        assert env["REPRO_TRACE"] == "run.jsonl"
        assert env["REPRO_HISTORY"] is None

    def test_manifest_records_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/cache-here")
        manifest = build_manifest("score", ["score", "parsec"],
                                  BASE_CONFIG)
        assert manifest["env"]["REPRO_CACHE_DIR"] == "/tmp/cache-here"
        assert set(manifest["env"]) == set(ENV_VARS)

    def test_env_does_not_perturb_config_digest(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        digest_unset = build_manifest("score", [], BASE_CONFIG)
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/cache-here")
        digest_set = build_manifest("score", [], BASE_CONFIG)
        assert digest_unset["config_digest"] == digest_set["config_digest"]


class TestManifestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        manifest = build_manifest(
            "score", ["--quick", "score", "parsec"], BASE_CONFIG,
            trace_file=str(tmp_path / "t.jsonl"), trace_format="jsonl",
            extra={"note": "round-trip"},
        )
        path = manifest_path(tmp_path / "t.jsonl")
        write_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded == json.loads(json.dumps(manifest))
        assert loaded["config_digest"] == config_digest(BASE_CONFIG)
        assert loaded["extra"] == {"note": "round-trip"}

    def test_schema_mismatch_rejected(self, tmp_path):
        manifest = build_manifest("score", [], BASE_CONFIG)
        manifest["schema_version"] = 99
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest schema"):
            load_manifest(path)
