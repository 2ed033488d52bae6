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


#: One argv per subcommand (and per ``obs``/``client`` command).
PARSED = [
    ["suites"],
    ["--quick", "score", "nbench", "--focus", "llc", "--history-windows",
     "3", "--history-dir", "h", "--cache-dir", "c", "--no-cache"],
    ["compare", "nbench", "ligra", "--csv", "out.csv", "--bars",
     "--workers", "2"],
    ["--quick", "subset", "spec17", "--size", "6", "--search", "16",
     "--method", "swap"],
    ["experiment", "fig3", "--trace", "t.jsonl", "--trace-format",
     "chrome"],
    ["report", "nbench"],
    ["lint", "--deep", "--format", "json", "src/repro"],
    ["analyze", "effects", "Engine.dtw_matrix", "--root", "src/repro"],
    ["qa", "--seed", "3", "--focus", "tlb", "--full", "--workers", "2"],
    ["obs", "summary", "t.jsonl", "--top", "5"],
    ["obs", "history", "--history-dir", "h", "--digest", "ab"],
    ["obs", "diff", "1", "2", "--history-dir", "h"],
    ["obs", "check", "--max-wall-pct", "10", "--max-hit-drop", "0.2"],
    ["serve", "--port", "0", "--workers", "1"],
    ["client", "score", "nbench", "--focus", "tlb", "--retries", "0"],
    ["client", "compare", "nbench", "ligra", "--port", "9000"],
    ["client", "subset", "nbench", "--size", "4", "--search", "2",
     "--method", "random"],
    ["client", "metrics"],
    ["client", "health", "--timeout", "5", "--connect-timeout", "1"],
    ["client", "history", "--host", "localhost"],
    ["client", "shutdown"],
]

def _help_argv(argv):
    """``argv``'s command words, then ``--help``."""
    words = [word for word in argv if word != "--quick"]
    nested = words[0] in ("analyze", "obs", "client")
    return [*words[:1 + nested], "--help"]


#: Argvs that end in usage, help or an argparse error.
REJECTED = [
    [], ["--quick"], ["bogus"], ["--quick", "bogus", "nbench"],
    ["score", "nbench", "--focus", "bad"], ["score"], ["score", "--quick"],
    ["--quick", "score", "nbench", "extra"], ["--help"], ["-h", "score"],
    ["--quick", "--help"], ["obs"], ["obs", "bogus"], ["client"],
    ["analyze"], ["lint", "--format", "xml"], ["analyze", "--help"],
    ["obs", "--help"], ["client", "--help"],
] + [_help_argv(argv) for argv in PARSED]


def _outcome(call, argv, capsys):
    """``(exit code, stdout, stderr)`` of one parse through ``call``."""
    with pytest.raises(SystemExit) as exc:
        call(argv)
    return (exc.value.code, *capsys.readouterr())


class TestOneSubcommandParser:
    """``main`` builds only the subcommand its argv names; that parser
    must behave exactly like the full tree."""

    @pytest.mark.parametrize("argv", PARSED, ids=" ".join)
    def test_parses_to_the_full_trees_namespace(self, argv):
        from repro.cli import _command_of

        command = _command_of(argv)
        assert command == argv[argv[0] == "--quick"]
        one = build_parser(command)
        assert list(one._subparsers._group_actions[0].choices) == \
            [command]
        assert one.parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
    def test_usage_help_and_errors_match_the_full_tree(self, argv,
                                                        capsys):
        full = _outcome(build_parser().parse_args, argv, capsys)
        assert _outcome(main, argv, capsys) == full
        assert full[0] in (0, 2)

    def test_main_builds_the_named_subcommand_through_build_parser(
            self, monkeypatch):
        import repro.cli as cli

        built, real = [], cli.build_parser

        def spy(command=None):
            built.append(command)
            return real(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        assert main(["suites"]) == 0
        with pytest.raises(SystemExit):
            main(["-h", "suites"])
        assert built == ["suites", None]


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

    @pytest.mark.parametrize("command", [
        ["score", "nbench"], ["compare", "nbench", "lmbench"],
        ["subset", "lmbench"], ["experiment", "fig2"], ["serve"], ["qa"],
        # The module entry point parses with the `repro qa` subparser.
        ["-m", "repro.qa.determinism"],
    ])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, command, workers,
                                              capsys):
        from repro.qa import determinism

        if command[0] == "-m":
            entry, argv = determinism.main, ["--workers", workers]
        else:
            entry, argv = main, ["--quick", *command, "--workers", workers]
        with pytest.raises(SystemExit) as exc:
            entry(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "--workers" in errors[0]

    @pytest.mark.parametrize("argv, flag", [
        (["client", "health", "--timeout", "-1"], "--timeout"),
        (["client", "health", "--timeout", "0"], "--timeout"),
        (["client", "health", "--timeout", "nan"], "--timeout"),
        (["client", "health", "--connect-timeout", "-1"],
         "--connect-timeout"),
        (["client", "health", "--connect-timeout", "inf"],
         "--connect-timeout"),
        (["client", "score", "nbench", "--retries", "-1"], "--retries"),
        (["obs", "summary", "trace.jsonl", "--top", "-3"], "--top"),
        (["obs", "summary", "trace.jsonl", "--top", "0"], "--top"),
        (["serve", "--port", "70000"], "--port"),
        (["serve", "--port", "-1"], "--port"),
        (["client", "score", "nbench", "--port", "65536"], "--port"),
        (["client", "compare", "nbench", "lmbench", "--port", "-1"],
         "--port"),
        (["client", "subset", "nbench", "--port", "70000"], "--port"),
        (["client", "metrics", "--port", "70000"], "--port"),
        (["client", "health", "--port", "-1"], "--port"),
        (["client", "history", "--port", "65536"], "--port"),
        (["client", "shutdown", "--port", "70000"], "--port"),
        # The retired compute-backend selector.
        (["score", "nbench", "--backend", "vectorized"], "--backend"),
        (["score", "nbench", "--history-windows", "-1"],
         "--history-windows"),
    ])
    def test_bad_argument_is_one_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert flag in errors[0]

    def test_serve_on_a_busy_port_is_one_error_line(self, capsys):
        import socket

        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            assert main(["serve", "--host", "127.0.0.1", "--port",
                         str(port), "--workers", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"repro serve: cannot listen on "
                              f"127.0.0.1:{port}: ")

    def test_subset_size_above_suite_exits_before_measuring(
            self, capsys, monkeypatch):
        def measure(*args, **kwargs):
            raise AssertionError("measured a suite for an invalid --size")

        monkeypatch.setattr("repro.experiments.runner.measure_suites",
                            measure)
        for extra in ([], ["--search", "4"]):
            assert main(["--quick", "subset", "lmbench", "--size", "99"]
                        + extra) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("repro subset: --size 99 exceeds the 10 "
                           "workloads of lmbench\n")

    def test_compare_of_one_suite_exits_before_measuring(
            self, capsys, monkeypatch):
        def measure(*args, **kwargs):
            raise AssertionError("measured a suite for a one-suite "
                                 "compare")

        monkeypatch.setattr("repro.experiments.runner.measure_suites",
                            measure)
        assert main(["--quick", "compare", "nbench"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "repro compare: compare needs at least 2 suites, " \
                      "got ['nbench']\n"

    def test_history_windows_without_a_store_is_rejected(
            self, capsys, monkeypatch):
        def measure(*args, **kwargs):
            raise AssertionError("measured a suite for a discarded "
                                 "trajectory")

        monkeypatch.delenv("REPRO_HISTORY", raising=False)
        monkeypatch.setattr("repro.experiments.runner.measure_suites",
                            measure)
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


class TestRequestVocabulary:
    def test_matches_the_numpy_side(self):
        from repro.core.focus import EventFocus
        from repro.engine import SubsetSearch
        from repro.experiments.runner import FOCUS_VALUES, SEARCH_METHODS

        assert list(FOCUS_VALUES) == [f.value for f in EventFocus]
        assert tuple(SEARCH_METHODS) == tuple(SubsetSearch.METHODS)
