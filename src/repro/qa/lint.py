"""AST-based static-analysis pass for the repro tree.

The linter parses every Python file it is pointed at once, into a
:class:`SourceContext` whose one walk indexes the tree, and runs a set
of project-specific rules over that index (see :mod:`repro.qa.rules`).
Each finding is reported as ``file:line:col rule-id message`` -- the
same shape compiler diagnostics take -- and the process exits non-zero
when any finding survives suppression, so the pass can gate a merge.
With ``--deep`` the whole-program effect analyzer
(:mod:`repro.qa.flow`) additionally proves the cross-module contracts
(cache purity, pool safety, backend purity) over the whole package,
reusing these contexts: no file is parsed twice in one run.
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
from collections import deque
from dataclasses import dataclass
from functools import cached_property
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

#: Node types of a (nested) function definition.
FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def dotted(node):
    """``a.b.c`` attribute/name chain as a string, or ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class SourceContext:
    """One source file, parsed once: the tree plus, built by one walk
    on first use, the statement-start map, parent links and a by-type
    node index. Every per-file rule, the deep pass's module extraction
    and deep-finding suppression read this one object."""

    def __init__(self, path, source):
        self.path = Path(path)
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source, filename=str(path))
            self.error = None
        except SyntaxError as exc:
            self.tree, self.error = None, exc

    def in_directory(self, *names):
        """Whether any path component matches one of ``names``."""
        return any(part in names for part in self.path.parts)

    @property
    def is_package_init(self):
        return self.path.name == "__init__.py"

    @cached_property
    def _walk(self):
        """The one walk (breadth-first, as :func:`ast.walk`): for every
        physical line the starting line of the innermost statement
        containing it, each node's parent, and the nodes by type."""
        stmt_start, parents, by_type = {}, {}, {}
        todo = deque([self.tree] if self.tree is not None else [])
        while todo:
            node = todo.popleft()
            by_type.setdefault(type(node), []).append(node)
            if isinstance(node, ast.stmt):
                end = getattr(node, "end_lineno", None) or node.lineno
                for line in range(node.lineno, end + 1):
                    # Innermost statement wins: the largest start line.
                    if node.lineno > stmt_start.get(line, 0):
                        stmt_start[line] = node.lineno
            for child in ast.iter_child_nodes(node):
                parents[child] = node
                todo.append(child)
        return stmt_start, parents, by_type

    def nodes(self, *types):
        """Every node of exactly the given types, in walk order within
        each type."""
        by_type = self._walk[2]
        return [node for t in types for node in by_type.get(t, ())]

    def enclosing(self, node, *types):
        """The ancestors of ``node`` that are instances of ``types``,
        innermost first."""
        parents = self._walk[1]
        node = parents.get(node)
        while node is not None:
            if isinstance(node, types):
                yield node
            node = parents.get(node)

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
        start = self._walk[0].get(line)
        return (start is not None and start != line
                and self._line_suppresses(start, rule_id))


def lint_contexts(contexts, rules=None):
    """Lint parsed files; returns every surviving :class:`Finding`,
    sorted. A file that does not parse is one ``parse-error``."""
    if rules is None:
        from repro.qa.rules import default_rules

        rules = default_rules()
    findings = []
    for ctx in contexts:
        if ctx.error is not None:
            findings.append(Finding(
                path=str(ctx.path),
                line=int(ctx.error.lineno or 1),
                col=int(ctx.error.offset or 1),
                rule_id="parse-error",
                message=f"file does not parse: {ctx.error.msg}",
            ))
            continue
        findings.extend(
            finding for rule in rules if rule.applies_to(ctx)
            for finding in rule.check(ctx)
            if not ctx.suppressed(finding.line, finding.rule_id)
        )
    return sorted(findings)


def lint_source(source, path="<string>", rules=None):
    """Lint one source string; returns surviving :class:`Finding`s."""
    return lint_contexts([SourceContext(path, source)], rules=rules)


def iter_module_files(root):
    """``(module_name, path, is_package)`` for every ``.py`` under
    ``root``, sorted, hidden directories below ``root`` excluded.

    A root containing ``__init__.py`` is treated as a package named
    after the directory (``src/repro`` -> ``repro.*``); otherwise each
    file becomes a top-level module named by its stem.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    is_pkg_root = (root / "__init__.py").is_file()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if any(part.startswith(".") for part in relative.parts):
            continue
        parts = list(relative.parts)
        parts[-1] = parts[-1][:-3]  # strip .py
        is_package = parts[-1] == "__init__"
        if is_package:
            parts = parts[:-1]
        if is_pkg_root:
            parts = [root.name] + parts
        if not parts:
            # a bare __init__.py directly under a non-package root
            continue
        yield ".".join(parts), path, is_package


def iter_python_files(paths):
    """Expand files/directories into a list of ``.py`` files."""
    out = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(file for _, file, _ in iter_module_files(path))
        elif path.suffix == ".py" and path.is_file():
            out.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {raw}")
    return out


def read_sources(paths):
    """One :class:`SourceContext` per ``.py`` file under ``paths``."""
    return [SourceContext(path, path.read_text(encoding="utf-8"))
            for path in iter_python_files(paths)]


def lint_paths(paths, rules=None):
    """Lint files/directories; returns all surviving findings, sorted."""
    return lint_contexts(read_sources(paths), rules=rules)


def main(argv=None):
    """``python -m repro.qa.lint ARGS`` is ``repro lint ARGS``."""
    from repro.cli import main as cli_main

    return cli_main(["lint", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
