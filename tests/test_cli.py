"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import clear_cache


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_score_args(self):
        args = build_parser().parse_args(["score", "nbench", "--focus",
                                          "llc"])
        assert args.suite == "nbench"
        assert args.focus == "llc"

    def test_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["score", "splash2"])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig9"])

    def test_quick_flag(self):
        args = build_parser().parse_args(["--quick", "suites"])
        assert args.quick


class TestCommands:
    def test_suites_lists_all(self, capsys):
        assert main(["suites"]) == 0
        out = capsys.readouterr().out
        for name in ("parsec", "spec17", "ligra", "lmbench", "nbench",
                     "sgxgauge"):
            assert name in out

    def test_score_quick(self, capsys):
        assert main(["--quick", "score", "nbench"]) == 0
        out = capsys.readouterr().out
        assert "nbench" in out
        assert "cluster=" in out

    def test_compare_quick(self, capsys):
        assert main(["--quick", "compare", "nbench", "ligra"]) == 0
        out = capsys.readouterr().out
        assert "focus = all" in out
        assert "ligra" in out

    def test_compare_csv_and_bars(self, capsys, tmp_path):
        path = tmp_path / "cmp.csv"
        assert main(["--quick", "compare", "nbench", "ligra",
                     "--csv", str(path), "--bars"]) == 0
        out = capsys.readouterr().out
        assert "cluster (lower is better):" in out
        text = path.read_text()
        assert text.startswith("suite,focus,cluster")
        assert "nbench" in text

    def test_subset_quick(self, capsys):
        assert main(["--quick", "subset", "nbench", "--size", "4"]) == 0
        out = capsys.readouterr().out
        assert "subset:" in out
        assert "mean deviation" in out

    def test_subset_search_quick(self, capsys):
        assert main(["--quick", "subset", "nbench", "--size", "4",
                     "--search", "4", "--method", "swap"]) == 0
        out = capsys.readouterr().out
        assert "subset search (swap" in out
        assert "mean deviation" in out

    def test_subset_search_rejects_bad_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["subset", "nbench", "--size", "4",
                                       "--search", "4", "--method",
                                       "annealing"])

    @pytest.mark.parametrize("command", [["subset"], ["client", "subset"]])
    @pytest.mark.parametrize("flags", [
        ["--size", "1"], ["--size", "-2"], ["--search", "0"],
        ["--search", "-3"], ["--size", "four"],
    ])
    def test_subset_bad_size_or_search_is_usage_error(self, command, flags,
                                                      capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["lmbench"] + flags)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--size" in err or "--search" in err

    def test_subset_size_above_suite_exits_before_measuring(
            self, capsys, monkeypatch):
        def measure(*args, **kwargs):
            raise AssertionError("measured a suite for an invalid --size")

        monkeypatch.setattr("repro.cli.measure_suites", measure)
        for extra in ([], ["--search", "4"]):
            assert main(["--quick", "subset", "lmbench", "--size", "99"]
                        + extra) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("repro subset: --size 99 exceeds the 10 "
                           "workloads of lmbench\n")

    def test_history_windows_without_a_store_is_rejected(
            self, capsys, monkeypatch):
        def measure(*args, **kwargs):
            raise AssertionError("measured a suite for a discarded "
                                 "trajectory")

        monkeypatch.delenv("REPRO_HISTORY", raising=False)
        monkeypatch.setattr("repro.cli.measure_suites", measure)
        monkeypatch.setattr("repro.cli.score_suite", measure)
        assert main(["--quick", "score", "nbench",
                     "--history-windows", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("repro score: --history-windows ")

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
