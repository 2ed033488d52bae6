"""Tests for repro.workloads.custom (declarative suite specs)."""

import json

import pytest

from repro.workloads.custom import (
    suite_from_json,
    suite_from_spec,
    suite_to_spec,
)

MB = 1024 * 1024


def demo_spec():
    return {
        "name": "mysuite",
        "description": "two little workloads",
        "workloads": {
            "streamy": {
                "phases": [
                    {"name": "main", "weight": 1.0,
                     "kernels": [{"kernel": "sequential_stream",
                                  "params": {"working_set": MB}}],
                     "write_fraction": 0.4},
                ],
            },
            "pointer": {
                "phases": [
                    {"name": "warm", "weight": 0.3,
                     "kernels": [{"kernel": "sequential_stream",
                                  "params": {"working_set": MB}}]},
                    {"name": "chase", "weight": 0.7,
                     "kernels": [{"kernel": "pointer_chase",
                                  "params": {"working_set": 8 * MB}}],
                     "branch_model": "loop",
                     "branch_params": {"body": 6}},
                ],
            },
        },
    }


class TestSuiteFromSpec:
    def test_builds_workloads(self):
        suite = suite_from_spec(demo_spec())
        assert suite.name == "mysuite"
        assert len(suite) == 2
        assert len(suite.workload("pointer").phases) == 2

    def test_phase_parameters_land(self):
        suite = suite_from_spec(demo_spec())
        phase = suite.workload("streamy").phases[0]
        assert phase.write_fraction == 0.4
        chase = suite.workload("pointer").phases[1]
        assert chase.branch_model == "loop"
        assert chase.branch_params == {"body": 6}

    def test_built_suite_is_runnable(self):
        from repro.perf.session import PerfSession
        from repro.uarch.config import small_test_machine

        suite = suite_from_spec(demo_spec())
        session = PerfSession(machine=small_test_machine(), n_intervals=4,
                              ops_per_interval=200, warmup_intervals=0,
                              seed=1)
        m = session.run_suite(suite)
        assert m.matrix.shape == (2, 14)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="'name'"):
            suite_from_spec({"workloads": {"w": {}}})
        with pytest.raises(ValueError, match="'workloads'"):
            suite_from_spec({"name": "s"})
        with pytest.raises(ValueError, match="phases"):
            suite_from_spec({"name": "s", "workloads": {"w": {}}})

    def test_unknown_kernel_rejected(self):
        spec = demo_spec()
        spec["workloads"]["streamy"]["phases"][0]["kernels"][0][
            "kernel"] = "quantum_tunnel"
        with pytest.raises(ValueError, match="unknown kernel"):
            suite_from_spec(spec)

    def test_unknown_branch_model_rejected(self):
        spec = demo_spec()
        spec["workloads"]["streamy"]["phases"][0]["branch_model"] = "oracle"
        with pytest.raises(ValueError, match="unknown branch model"):
            suite_from_spec(spec)

    def test_unknown_phase_field_rejected(self):
        spec = demo_spec()
        spec["workloads"]["streamy"]["phases"][0]["working_set"] = MB
        with pytest.raises(ValueError, match="unknown phase fields"):
            suite_from_spec(spec)

    @pytest.mark.parametrize("param, match", [
        ("workingset", "takes no param 'workingset'"),
        ("cursor", "param 'cursor' is reserved"),
        ("n", "param 'n' is reserved"),
        ("rng", "param 'rng' is reserved"),
    ])
    def test_bad_kernel_param_rejected(self, param, match):
        spec = demo_spec()
        spec["workloads"]["pointer"]["phases"][1]["kernels"][0][
            "params"][param] = MB
        with pytest.raises(ValueError, match=match) as info:
            suite_from_spec(spec)
        assert str(info.value).startswith("pointer.phases[1].kernels[0]: ")

    def test_missing_required_param_rejected(self):
        spec = demo_spec()
        spec["workloads"]["streamy"]["phases"][0]["kernels"][0]["params"] = {}
        with pytest.raises(ValueError,
                           match=r"needs params \['working_set'\]"):
            suite_from_spec(spec)

    @pytest.mark.parametrize("spec", [[], "suite", {"name": "s",
                                                     "workloads": ["w"]}])
    def test_non_object_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="suite spec"):
            suite_from_spec(spec)

    def test_missing_kernel_name_rejected(self):
        spec = demo_spec()
        del spec["workloads"]["streamy"]["phases"][0]["kernels"][0]["kernel"]
        with pytest.raises(ValueError, match="'kernel' name"):
            suite_from_spec(spec)


class TestJsonRoundtrip:
    def test_from_json_string(self):
        suite = suite_from_json(json.dumps(demo_spec()))
        assert suite.name == "mysuite"

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(demo_spec()))
        suite = suite_from_json(str(path))
        assert len(suite) == 2

    def test_spec_roundtrip(self):
        suite = suite_from_spec(demo_spec())
        spec2 = suite_to_spec(suite)
        suite2 = suite_from_spec(spec2)
        assert suite2.name == suite.name
        for w1, w2 in zip(suite.workloads, suite2.workloads):
            assert w1.name == w2.name
            assert len(w1.phases) == len(w2.phases)
            for p1, p2 in zip(w1.phases, w2.phases):
                assert p1.name == p2.name
                assert p1.write_fraction == p2.write_fraction

    def test_roundtrip_traces_identical(self):
        import numpy as np

        suite = suite_from_spec(demo_spec())
        suite2 = suite_from_spec(suite_to_spec(suite))
        a = next(iter(suite.workload("pointer").intervals(1, 100, seed=5)))
        b = next(iter(suite2.workload("pointer").intervals(1, 100, seed=5)))
        np.testing.assert_array_equal(a.addresses, b.addresses)

    def test_builtin_suites_roundtrip_through_spec(self):
        from repro.workloads import load_suite

        for name in ("nbench", "ligra"):
            suite = load_suite(name)
            rebuilt = suite_from_spec(suite_to_spec(suite))
            assert len(rebuilt) == len(suite)
