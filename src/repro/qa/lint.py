"""AST-based static-analysis pass for the repro tree.

The linter parses every Python file it is pointed at and runs a set of
project-specific rules over the AST (see :mod:`repro.qa.rules`). Each
finding is reported as ``file:line:col rule-id message`` -- the same
shape compiler diagnostics take -- and the process exits non-zero when
any finding survives suppression, so the pass can gate a merge. With
``--deep`` the whole-program effect analyzer (:mod:`repro.qa.flow`)
additionally proves the cross-module contracts (cache purity,
pool safety, backend purity) over a fresh parse of the whole package;
``--format json`` emits the findings as a JSON array for CI
consumption.

Suppression is per-line and per-rule: append ``# qa-ignore[rule-id]``
to the offending line (several ids may be comma-separated), or a bare
``# qa-ignore`` to silence every rule on that line; for a multi-line
statement the marker goes on its first physical line. Suppressions are
deliberately loud in review diffs; the clean-tree pytest gate
(``tests/test_qa_lint_clean.py``) keeps the default posture "fix, not
suppress".

Run it as::

    repro lint src/repro
    repro lint --deep --format json src/repro
    python -m repro.qa.lint src/repro tests

The arguments are declared once, by the CLI's ``lint`` subparser:
``python -m repro.qa.lint ARGS`` runs exactly ``repro lint ARGS``,
``--trace`` included.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where (line and column), which rule, and what
    is wrong."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def __str__(self):
        return (f"{self.path}:{self.line}:{self.col} "
                f"{self.rule_id} {self.message}")

    def as_dict(self):
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule_id": self.rule_id, "message": self.message}


_SUPPRESS_RE = re.compile(r"#\s*qa-ignore(?:\[(?P<rules>[^\]]*)\])?")


class SourceContext:
    """Everything a rule may want to know about one source file."""

    def __init__(self, path, source):
        self.path = Path(path)
        self.source = source
        self.lines = source.splitlines()
        self._stmt_start = {}  # physical line -> enclosing stmt's line

    def in_directory(self, *names):
        """Whether any path component matches one of ``names``."""
        return any(part in names for part in self.path.parts)

    @property
    def is_package_init(self):
        return self.path.name == "__init__.py"

    def attach_statements(self, tree):
        """Record, for every physical line, the starting line of the
        innermost statement containing it, so a ``# qa-ignore`` on the
        first line of a multi-line statement covers findings anchored
        on its continuation lines."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            end = getattr(node, "end_lineno", None) or node.lineno
            for line in range(node.lineno, end + 1):
                known = self._stmt_start.get(line, 0)
                # Innermost statement wins: the largest start line.
                if node.lineno > known:
                    self._stmt_start[line] = node.lineno

    def _line_suppresses(self, line, rule_id):
        if not (1 <= line <= len(self.lines)):
            return False
        match = _SUPPRESS_RE.search(self.lines[line - 1])
        if match is None:
            return False
        listed = match.group("rules")
        if listed is None:
            return True  # bare qa-ignore silences everything
        ids = {item.strip() for item in listed.split(",") if item.strip()}
        return rule_id in ids

    def suppressed(self, line, rule_id):
        """Whether ``# qa-ignore`` covers ``rule_id`` at ``line`` --
        either on that physical line or on the first line of the
        enclosing statement (multi-line calls, parenthesized args)."""
        if self._line_suppresses(line, rule_id):
            return True
        start = self._stmt_start.get(line)
        return (start is not None and start != line
                and self._line_suppresses(start, rule_id))


def _default_rules():
    from repro.qa.rules import default_rules

    return default_rules()


def lint_source(source, path="<string>", rules=None):
    """Lint one source string; returns surviving :class:`Finding`s."""
    if rules is None:
        rules = _default_rules()
    ctx = SourceContext(path, source)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                path=str(path),
                line=int(exc.lineno or 1),
                col=int(exc.offset or 1),
                rule_id="parse-error",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx.attach_statements(tree)
    findings = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(tree, ctx):
            if not ctx.suppressed(finding.line, finding.rule_id):
                findings.append(finding)
    return sorted(findings)


def iter_python_files(paths):
    """Expand files/directories into a sorted list of ``.py`` files."""
    out = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                p for p in sorted(path.rglob("*.py"))
                if not any(part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py" and path.is_file():
            out.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {raw}")
    return out


def lint_paths(paths, rules=None):
    """Lint files/directories; returns all surviving findings, sorted."""
    if rules is None:
        rules = _default_rules()
    findings = []
    for path in iter_python_files(paths):
        findings.extend(
            lint_source(path.read_text(encoding="utf-8"), path=path,
                        rules=rules)
        )
    return sorted(findings)


def main(argv=None):
    """``python -m repro.qa.lint ARGS`` is ``repro lint ARGS``."""
    from repro.cli import main as cli_main

    return cli_main(["lint", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
