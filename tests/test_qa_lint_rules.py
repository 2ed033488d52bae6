"""Per-rule linter coverage: a triggering snippet, a clean snippet and
the suppression comment for every rule, plus CLI exit codes."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.qa.lint import lint_paths, lint_source


SRC = str(Path(__file__).resolve().parent.parent / "src")


def lint(source, path="src/repro/core/snippet.py"):
    return lint_source(textwrap.dedent(source), path=path)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# -- rng-discipline ----------------------------------------------------------


class TestRngDiscipline:
    def test_module_level_rng_call_flagged(self):
        findings = lint("""\
            import numpy as np

            x = np.random.rand(3)
        """)
        assert rule_ids(findings) == ["rng-discipline"]
        assert "np.random.rand" in findings[0].message
        assert findings[0].line == 3

    def test_np_random_seed_flagged(self):
        findings = lint("""\
            import numpy as np

            np.random.seed(42)
        """)
        assert rule_ids(findings) == ["rng-discipline"]

    def test_unseeded_default_rng_flagged(self):
        findings = lint("""\
            import numpy as np

            rng = np.random.default_rng()
        """)
        assert rule_ids(findings) == ["rng-discipline"]
        assert "unseeded" in findings[0].message

    def test_default_rng_literal_none_flagged(self):
        findings = lint("""\
            from numpy.random import default_rng

            rng = default_rng(None)
        """)
        assert rule_ids(findings) == ["rng-discipline"]

    def test_none_default_parameter_flagged(self):
        findings = lint("""\
            import numpy as np

            def sample(n, rng=None):
                rng = np.random.default_rng(rng)
                return rng.uniform(size=n)
        """)
        assert rule_ids(findings) == ["rng-discipline"]
        assert "'rng'" in findings[0].message

    def test_none_default_dataclass_field_flagged(self):
        findings = lint("""\
            from dataclasses import dataclass

            import numpy as np

            @dataclass
            class Sampler:
                seed: int = None

                def draw(self):
                    return np.random.default_rng(self.seed).uniform()
        """)
        assert rule_ids(findings) == ["rng-discipline"]
        assert "'seed'" in findings[0].message

    def test_seeded_generator_clean(self):
        findings = lint("""\
            import numpy as np

            def sample(n, rng=0):
                rng = np.random.default_rng(rng)
                return rng.uniform(size=n)
        """)
        assert findings == []

    def test_tests_directory_exempt(self):
        findings = lint(
            "import numpy as np\nx = np.random.rand(3)\n",
            path="tests/test_whatever.py",
        )
        assert findings == []

    def test_suppression_comment(self):
        findings = lint("""\
            import numpy as np

            x = np.random.rand(3)  # qa-ignore[rng-discipline]
        """)
        assert findings == []


# -- arg-mutation ------------------------------------------------------------


class TestArgumentMutation:
    def test_subscript_write_flagged(self):
        findings = lint("""\
            def clamp(x):
                x[x < 0] = 0.0
                return x
        """)
        assert rule_ids(findings) == ["arg-mutation"]
        assert "'x'" in findings[0].message

    def test_augmented_subscript_write_flagged(self):
        findings = lint("""\
            def bump(values):
                values[0] += 1.0
                return values
        """)
        assert rule_ids(findings) == ["arg-mutation"]

    def test_out_keyword_flagged(self):
        findings = lint("""\
            import numpy as np

            def clip01(x):
                np.clip(x, 0.0, 1.0, out=x)
                return x
        """)
        assert rule_ids(findings) == ["arg-mutation"]
        assert "out=x" in findings[0].message

    def test_numpy_mutator_function_flagged(self):
        findings = lint("""\
            import numpy as np

            def zero_diag(d):
                np.fill_diagonal(d, 0.0)
                return d
        """)
        assert rule_ids(findings) == ["arg-mutation"]

    def test_ndarray_mutator_method_flagged(self):
        findings = lint("""\
            def order(x):
                x.sort()
                return x
        """)
        assert rule_ids(findings) == ["arg-mutation"]

    def test_rebound_parameter_clean(self):
        findings = lint("""\
            import numpy as np

            def clamp(x):
                x = np.asarray(x, dtype=float).copy()
                x[x < 0] = 0.0
                return x
        """)
        assert findings == []

    def test_local_array_clean(self):
        findings = lint("""\
            import numpy as np

            def squares(n):
                out = np.empty(n)
                out[:] = np.arange(n) ** 2
                return out
        """)
        assert findings == []

    def test_rule_scoped_to_kernels(self):
        source = "def clamp(x):\n    x[0] = 1.0\n    return x\n"
        assert lint(source, path="src/repro/workloads/thing.py") == []
        assert rule_ids(lint(source, path="src/repro/stats/thing.py")) == \
            ["arg-mutation"]

    def test_suppression_comment(self):
        findings = lint("""\
            def clamp(x):
                x[x < 0] = 0.0  # qa-ignore[arg-mutation]
                return x
        """)
        assert findings == []


# -- float-equality ----------------------------------------------------------


class TestFloatEquality:
    def test_equality_against_float_literal_flagged(self):
        findings = lint("""\
            def is_paper_target(v):
                return v == 0.98
        """)
        assert rule_ids(findings) == ["float-equality"]

    def test_not_equal_flagged(self):
        findings = lint("""\
            def differs(v):
                return v != -0.5
        """)
        assert rule_ids(findings) == ["float-equality"]

    def test_integer_literal_clean(self):
        findings = lint("""\
            def is_zero(step):
                return step == 0
        """)
        assert findings == []

    def test_ordering_comparison_clean(self):
        findings = lint("""\
            def below(v):
                return v <= 0.5
        """)
        assert findings == []

    def test_suppression_comment(self):
        findings = lint("""\
            def is_paper_target(v):
                return v == 0.98  # qa-ignore[float-equality]
        """)
        assert findings == []


# -- overbroad-except --------------------------------------------------------


class TestOverbroadExcept:
    def test_bare_except_flagged(self):
        findings = lint("""\
            def safe(f):
                try:
                    return f()
                except:
                    return None
        """)
        assert rule_ids(findings) == ["overbroad-except"]

    def test_except_exception_flagged(self):
        findings = lint("""\
            def safe(f):
                try:
                    return f()
                except Exception:
                    return None
        """)
        assert rule_ids(findings) == ["overbroad-except"]

    def test_specific_exception_clean(self):
        findings = lint("""\
            def safe(f):
                try:
                    return f()
                except ValueError:
                    return None
        """)
        assert findings == []

    def test_reraising_handler_clean(self):
        findings = lint("""\
            def logged(f, log):
                try:
                    return f()
                except Exception:
                    log.error("boom")
                    raise
        """)
        assert findings == []

    def test_suppression_comment(self):
        findings = lint("""\
            def safe(f):
                try:
                    return f()
                except Exception:  # qa-ignore[overbroad-except]
                    return None
        """)
        assert findings == []


# -- all-drift ---------------------------------------------------------------

INIT = "src/repro/fakepkg/__init__.py"


class TestAllDrift:
    def test_missing_all_flagged(self):
        findings = lint("from fakepkg.mod import thing\n", path=INIT)
        assert rule_ids(findings) == ["all-drift"]
        assert "no __all__" in findings[0].message

    def test_name_missing_from_all_flagged(self):
        findings = lint("""\
            from fakepkg.mod import thing, other

            __all__ = ["thing"]
        """, path=INIT)
        assert rule_ids(findings) == ["all-drift"]
        assert "'other'" in findings[0].message

    def test_stale_all_entry_flagged(self):
        findings = lint("""\
            from fakepkg.mod import thing

            __all__ = ["thing", "ghost"]
        """, path=INIT)
        assert rule_ids(findings) == ["all-drift"]
        assert "'ghost'" in findings[0].message

    def test_consistent_init_clean(self):
        findings = lint("""\
            from fakepkg.mod import thing, other

            __all__ = ["thing", "other"]
        """, path=INIT)
        assert findings == []

    def test_pep562_lazy_exports_clean(self):
        findings = lint("""\
            _EXPORTS = {"thing": "fakepkg.mod"}

            __all__ = ["thing"]

            def __getattr__(name):
                import importlib

                return getattr(importlib.import_module(_EXPORTS[name]), name)
        """, path=INIT)
        assert findings == []

    def test_shared_lazy_exports_helper_clean(self):
        findings = lint("""\
            from repro._lazy import lazy_exports

            __all__, __getattr__, __dir__ = lazy_exports(__name__, {
                "fakepkg.mod": ("thing",),
            })
        """, path=INIT)
        assert findings == []

    def test_non_init_module_exempt(self):
        findings = lint("from fakepkg.mod import thing\n",
                        path="src/repro/fakepkg/mod.py")
        assert findings == []

    def test_suppression_comment(self):
        findings = lint("""\
            from fakepkg.mod import thing  # qa-ignore[all-drift]

            __all__ = []
        """, path=INIT)
        assert findings == []


# -- engine behaviour --------------------------------------------------------


class TestEngine:
    def test_parse_error_reported_as_finding(self):
        findings = lint("def broken(:\n")
        assert rule_ids(findings) == ["parse-error"]

    def test_bare_suppression_covers_all_rules(self):
        findings = lint("""\
            import numpy as np

            x = np.random.rand(3)  # qa-ignore
        """)
        assert findings == []

    def test_suppression_only_covers_listed_rules(self):
        findings = lint("""\
            import numpy as np

            x = np.random.rand(3)  # qa-ignore[float-equality]
        """)
        assert rule_ids(findings) == ["rng-discipline"]

    def test_findings_carry_location(self):
        findings = lint("x = 1.0 == 1.0\n")
        assert findings[0].path.endswith("snippet.py")
        assert findings[0].line == 1
        assert findings[0].col == 5  # the comparison, not the assign
        assert str(findings[0]).startswith(findings[0].path + ":1:5 ")

    def test_findings_sort_by_position(self):
        findings = lint("a = 1.0 == b() == 2.0\n")
        cols = [f.col for f in findings]
        assert cols == sorted(cols)

    def test_multiline_statement_suppressed_from_first_line(self):
        # The finding anchors on line 4 (the call); the marker sits on
        # the first physical line of the enclosing statement.
        findings = lint("""\
            import numpy as np

            x = (  # qa-ignore[rng-discipline]
                np.random.rand(3)
            )
        """)
        assert findings == []

    def test_multiline_suppression_only_listed_rule(self):
        findings = lint("""\
            import numpy as np

            x = (  # qa-ignore[float-equality]
                np.random.rand(3)
            )
        """)
        assert rule_ids(findings) == ["rng-discipline"]
        assert findings[0].line == 4

    def test_suppression_on_inner_statement_does_not_leak(self):
        # A qa-ignore inside an if-body's first statement must not
        # cover a finding on a different statement in the same block.
        findings = lint("""\
            import numpy as np

            if True:
                y = np.random.rand(2)  # qa-ignore[rng-discipline]
                x = np.random.rand(3)
        """)
        assert rule_ids(findings) == ["rng-discipline"]
        assert findings[0].line == 5

    def test_lint_paths_on_fixture_tree(self, tmp_path):
        pkg = tmp_path / "core"
        pkg.mkdir()
        (pkg / "dirty.py").write_text(
            "import numpy as np\nx = np.random.rand(3)\n"
        )
        (pkg / "clean.py").write_text("VALUE = 1\n")
        findings = lint_paths([tmp_path])
        assert rule_ids(findings) == ["rng-discipline"]
        assert findings[0].path.endswith("dirty.py")


# -- obs-discipline ----------------------------------------------------------


class TestObsDiscipline:
    def test_raw_clock_read_flagged(self):
        findings = lint("""\
            import time

            start = time.perf_counter()
        """)
        assert rule_ids(findings) == ["obs-discipline"]
        assert "time.perf_counter" in findings[0].message
        assert "span" in findings[0].message

    def test_time_time_flagged(self):
        findings = lint("""\
            import time

            t0 = time.time()
        """)
        assert rule_ids(findings) == ["obs-discipline"]

    def test_bare_imported_clock_flagged(self):
        findings = lint("""\
            from time import perf_counter_ns

            t0 = perf_counter_ns()
        """)
        assert rule_ids(findings) == ["obs-discipline"]

    def test_library_print_flagged(self):
        findings = lint("""\
            def render(card):
                print(card)
        """)
        assert rule_ids(findings) == ["obs-discipline"]
        assert "print" in findings[0].message

    def test_span_usage_is_clean(self):
        findings = lint("""\
            from repro.obs.trace import span

            def kernel(matrix):
                with span("kernel.trend"):
                    return matrix
        """)
        assert findings == []

    def test_print_in_main_exempt(self):
        findings = lint("""\
            def main():
                print("report")
        """)
        assert findings == []

    def test_main_guard_exempt(self):
        findings = lint("""\
            import time

            if __name__ == "__main__":
                start = time.time()
                print(start)
        """)
        assert findings == []

    def test_print_with_explicit_stream_exempt(self):
        findings = lint("""\
            import sys

            def warn(msg):
                print(msg, file=sys.stderr)
        """)
        assert findings == []

    def test_cli_and_bench_modules_exempt(self):
        source = "import time\nt0 = time.perf_counter()\nprint(t0)\n"
        assert lint(source, path="src/repro/cli.py") == []
        assert lint(source, path="src/repro/obs/manifest.py") == []
        assert lint(source, path="tests/test_thing.py") == []
        # A module named like a bench driver gets no carve-out.
        for path in ("src/repro/core/thing.py",
                     "src/repro/engine/subset_bench.py"):
            assert rule_ids(lint(source, path=path)) == \
                ["obs-discipline", "obs-discipline"]

    def test_suppression(self):
        findings = lint("""\
            import time

            now = time.time()  # qa-ignore[obs-discipline]
        """)
        assert findings == []


class TestCli:
    def test_cli_lint_clean_file_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n")
        assert main(["lint", str(target)]) == 0
        assert capsys.readouterr().out == ""

    def test_cli_lint_dirty_file_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "dirty.py"
        target.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert f"{target}:2:5 rng-discipline" in out

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("rng-discipline", "arg-mutation", "float-equality",
                        "overbroad-except", "all-drift", "obs-discipline",
                        "cache-purity", "pool-safety", "backend-purity"):
            assert rule_id in out

    @staticmethod
    def _python(*argv):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = SRC
        return subprocess.run([sys.executable, *argv], capture_output=True,
                              text=True, env=env)

    def test_parser_imports_nothing_from_qa(self):
        # The lint arguments live in the CLI parser, so building it must
        # not pay for the qa package: bare CLI start-up is timed.
        probe = self._python("-c", (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m == 'repro.qa' or m.startswith('repro.qa.')))"))
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"

    def test_module_entry_point_is_repro_lint(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "dirty.py"
        target.write_text("import numpy as np\nx = np.random.rand(3)\n")
        trace = tmp_path / "lint.jsonl"
        status = main(["lint", "--format", "json", str(target)])
        expected = capsys.readouterr().out
        run = self._python("-m", "repro.qa.lint", "--format", "json",
                           "--trace", str(trace), str(target))
        assert status == 1
        assert (run.returncode, run.stdout) == (status, expected)
        assert trace.is_file()
        assert self._python("-m", "repro.qa.lint",
                            str(tmp_path / "absent")).returncode == 2


# -- rule helpers ------------------------------------------------------------


class TestReboundNames:
    """A parameter rebound anywhere in the body is a local afterwards:
    ``arg-mutation`` stops tracking it, and keeps tracking the rest."""

    @staticmethod
    def _flagged(source):
        findings = lint(source, path="src/repro/stats/thing.py")
        assert set(rule_ids(findings)) <= {"arg-mutation"}
        return [f.line for f in findings]

    def test_plain_and_tuple_assigns(self):
        assert self._flagged("""\
            def f(a, b, y, z, kept):
                a = 1
                x, (y, *z) = b
                a[0] = x
                y[0] = 1
                z[0] = 1
                kept[0] = 1
        """) == [7]

    def test_augmented_assignment_counts_as_rebind(self):
        assert self._flagged("""\
            def f(total, items):
                total += len(items)
                total[0] = 1
                items[0] = 1
        """) == [4]

    def test_walrus_counts_as_rebind(self):
        assert self._flagged("""\
            def f(values, n):
                if (n := len(values)) > 3:
                    n[0] = 1
                values[0] = 1
        """) == [4]

    def test_arg_mutation_not_flagged_after_augassign_rebind(self):
        # Pre-fix false positive: AugAssign did not count as a rebind,
        # so `arr.sort()` was reported as parameter mutation.
        findings = lint("""\
            def kernel(arr, extra):
                arr += extra
                arr.sort()
                return arr
        """, path="src/repro/stats/thing.py")
        assert findings == []

    def test_arg_mutation_not_flagged_after_walrus_rebind(self):
        findings = lint("""\
            import numpy as np

            def kernel(arr):
                if (arr := np.asarray(arr, dtype=float).copy()).size:
                    arr.sort()
                return arr
        """, path="src/repro/stats/thing.py")
        assert findings == []


class TestIterPythonFiles:
    def test_hidden_directories_excluded(self, tmp_path):
        from repro.qa.lint import iter_python_files

        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("A = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "secret.py").write_text("B = 2\n")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["mod.py"]

    def test_mixed_file_and_directory_args(self, tmp_path):
        from repro.qa.lint import iter_python_files

        lone = tmp_path / "lone.py"
        lone.write_text("A = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "mod.py").write_text("B = 2\n")
        files = iter_python_files([lone, sub])
        assert [f.name for f in files] == ["lone.py", "mod.py"]

    def test_non_python_file_raises(self, tmp_path):
        from repro.qa.lint import iter_python_files

        target = tmp_path / "notes.txt"
        target.write_text("hi\n")
        with pytest.raises(FileNotFoundError):
            iter_python_files([target])

    def test_missing_path_raises(self, tmp_path):
        from repro.qa.lint import iter_python_files

        with pytest.raises(FileNotFoundError):
            iter_python_files([tmp_path / "nope"])

    def test_non_py_files_in_directory_skipped(self, tmp_path):
        from repro.qa.lint import iter_python_files

        (tmp_path / "mod.py").write_text("A = 1\n")
        (tmp_path / "README.md").write_text("hi\n")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["mod.py"]

    def test_root_reached_through_dot_dot_is_linted(self, tmp_path,
                                                    monkeypatch, capsys):
        from repro.cli import main

        root = self._dirty_tree(tmp_path / "repo")
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        relative = Path("..") / root.relative_to(tmp_path)
        for deep in ([], ["--deep"]):
            assert main(["lint", *deep, str(relative)]) == 1
            assert "rng-discipline" in capsys.readouterr().out

    def test_root_under_dot_directory_is_linted(self, tmp_path, capsys):
        from repro.cli import main

        root = self._dirty_tree(tmp_path / ".work")
        for deep in ([], ["--deep"]):
            assert main(["lint", *deep, str(root)]) == 1
            assert "rng-discipline" in capsys.readouterr().out

    @staticmethod
    def _dirty_tree(base):
        # Hidden directories are skipped only below the linted root;
        # the root's own path may hold ``..`` or a dot-directory.
        kern = base / "src" / "repro" / "stats" / "kern.py"
        kern.parent.mkdir(parents=True)
        kern.write_text("import numpy as np\nx = np.random.rand(3)\n")
        return base / "src" / "repro"
