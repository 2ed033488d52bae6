"""The clean-tree gates: ``repro lint src/repro`` must stay at zero,
shallow and deep.

This is the pytest face of the static-analysis pass -- any new finding
in the library tree fails CI here with the same ``file:line:col
rule-id`` diagnostics the CLI prints. The deep gate additionally runs
the whole-program effect analyzer (:mod:`repro.qa.flow`): cache-purity,
pool-safety and backend-purity must hold over the full cross-module call
graph. Fix the code (or, for a justified exception, add a per-line
``# qa-ignore[rule-id]``) rather than loosening the rules.
"""

from pathlib import Path

from repro.qa.lint import iter_python_files, lint_paths

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_source_tree_exists():
    assert SRC.is_dir()


def test_tree_is_lint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n" + "\n".join(str(f) for f in findings)


def test_linter_actually_saw_the_tree():
    # Guard against a silently-empty walk making the gate vacuous.
    files = iter_python_files([SRC])
    assert len(files) > 50
    assert any(f.name == "perspector.py" for f in files)


def test_tree_is_deep_clean():
    from repro.qa.flow.analyze import deep_findings

    findings = deep_findings([SRC])
    assert findings == [], "\n" + "\n".join(str(f) for f in findings)


def test_deep_analysis_actually_saw_the_contracts():
    # Guard against the deep gate going vacuous: the analyzer must see
    # the engine's real memoization writes and pool submissions.
    from repro.qa.flow.analyze import analyze_project

    analysis = analyze_project(SRC)
    assert len(analysis.graph.cache_sites) >= 10
    assert len(analysis.graph.pool_sites) >= 4
    assert len(analysis.index.functions) > 300
