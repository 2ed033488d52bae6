"""Tests for repro.perf.report (full suite reports)."""

import pytest

from repro.perf.report import build_report, render_report
from repro.perf.session import PerfSession
from repro.uarch.config import small_test_machine
from repro.workloads import load_suite


@pytest.fixture(scope="module")
def report():
    session = PerfSession(machine=small_test_machine(), n_intervals=6,
                          ops_per_interval=250, warmup_intervals=1, seed=4)
    return build_report(load_suite("nbench"), session)


class TestBuildReport:
    def test_sections_complete(self, report):
        assert report.suite_name == "nbench"
        assert set(report.derived) == set(report.profiles)
        assert len(report.derived) == 10

    def test_scorecard_populated(self, report):
        assert report.scorecard.coverage > 0
        assert 0 <= report.scorecard.spread <= 1

    def test_derived_metrics_sane(self, report):
        for d in report.derived.values():
            assert d.ipc > 0
            assert 0 <= d.llc_miss_ratio <= 1
            assert 0 <= d.stall_fraction <= 1

    def test_instructions_flow_through(self, report):
        # IPC must come from real instruction totals, not a placeholder
        # (a cycles/cycles placeholder would pin IPC to exactly 1).
        ipcs = [d.ipc for d in report.derived.values()]
        assert any(abs(v - 1.0) > 0.05 for v in ipcs)

    def test_profiles_sane(self, report):
        for p in report.profiles.values():
            assert p.n_accesses > 0
            assert p.footprint_bytes > 0


class TestRenderReport:
    def test_renders_all_sections(self, report):
        text = render_report(report)
        assert "Perspector suite report: nbench" in text
        assert "scores:" in text
        assert "characterization" in text
        assert "trace profiles" in text
        for name in report.derived:
            assert name in text

    def test_cli_report_command(self, capsys):
        from repro.cli import main
        from repro.experiments.runner import clear_cache

        clear_cache()
        assert main(["--quick", "report", "nbench"]) == 0
        out = capsys.readouterr().out
        assert "suite report" in out

    def test_cli_report_custom_json(self, capsys, tmp_path):
        import json

        spec = {
            "name": "custom2",
            "workloads": {
                "a": {"phases": [{"name": "p", "weight": 1.0,
                                  "kernels": [{"kernel": "random_uniform",
                                               "params": {"working_set": 65536}}]}]},
                "b": {"phases": [{"name": "p", "weight": 1.0,
                                  "kernels": [{"kernel": "sequential_stream",
                                               "params": {"working_set": 65536}}]}]},
            },
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(spec))
        from repro.cli import main

        assert main(["--quick", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "custom2" in out

    @pytest.mark.parametrize("text, match", [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        ('{"name": "s", "workloads": {"w": {"phases": [{"kernels": '
         '[{"kernel": "zipfian", "params": {"workingset": 65536}}]}]}}}',
         "w.phases[0].kernels[0]: kernel 'zipfian' takes no param "
         "'workingset'"),
        ('{"name": "s", "workloads": {"w": {"phases": [{"kernels": '
         '[{"kernel": "zipfian", "params": {"working_set": 65536, '
         '"cursor": {}}}]}]}}}',
         "w.phases[0].kernels[0]: param 'cursor' is reserved"),
        ('{"name": "s", "workloads": {"w": {"phases": [{"kernels": '
         '[{"kernel": "quantum_tunnel"}]}]}}}', "unknown kernel"),
    ])
    def test_cli_report_bad_suite_one_line_exit_2(self, capsys, tmp_path,
                                                   text, match):
        from repro.cli import main

        path = tmp_path / "suite.json"
        if text is not None:
            path.write_text(text)
        assert main(["--quick", "report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro report: ")
        assert match in lines[0]
