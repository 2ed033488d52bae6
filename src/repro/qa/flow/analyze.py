"""Front-door drivers for the whole-program effect analyzer.

:func:`analyze_project` runs the full pipeline -- index, call graph,
effect fixpoint -- and returns the three artifacts bundled.
:func:`deep_findings` is what ``repro lint --deep`` calls: it widens
each requested path to its outermost package root (cross-module
resolution needs the whole package), runs the contract rules, filters
back down to the requested paths, and honors ``# qa-ignore`` comments.
:func:`effects_report` renders the ``repro analyze effects <symbol>``
view: the inferred effect set plus one justifying call chain per
effect. Everything here returns strings/findings; printing is the
CLI's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.qa.flow.callgraph import CallGraph
from repro.qa.flow.deeprules import check_all
from repro.qa.flow.effects import ALL_EFFECTS, EffectSolver, format_chain
from repro.qa.flow.indexer import index_project


@dataclass
class FlowAnalysis:
    """Index + call graph + solved effect fixpoint for one root."""

    index: object
    graph: object
    solver: object

    def findings(self):
        return check_all(self.index, self.graph, self.solver)


def analyze_project(root, parsed=()):
    """Index ``root`` (reusing the source contexts in ``parsed``) and
    solve the effect fixpoint."""
    index = index_project(root, parsed)
    graph = CallGraph(index)
    solver = EffectSolver(graph).solve()
    return FlowAnalysis(index=index, graph=graph, solver=solver)


def package_root(path):
    """Walk up from a directory to the outermost package root, so
    ``src/repro/engine`` analyzes as ``repro.engine.*`` (module names
    must match the sanctioned-substrate prefixes)."""
    path = Path(path)
    while (path.parent / "__init__.py").is_file():
        path = path.parent
    return path


def _within(finding_path, requested):
    try:
        Path(finding_path).relative_to(requested)
        return True
    except ValueError:
        return str(Path(finding_path)) == str(requested)


def deep_findings(paths, parsed=()):
    """All deep-rule findings under the requested paths, suppression
    applied. Directories are widened to their package root for
    analysis; findings are filtered back to what was asked for.
    ``parsed`` holds the per-file pass's source contexts, so no file
    it linted is parsed again."""
    requested = []
    roots = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            requested.append(path)
            root = package_root(path)
        elif path.is_file():
            requested.append(path)
            root = package_root(path.parent)
        else:
            raise FileNotFoundError(
                f"not a Python file or directory: {raw}")
        if root not in roots:
            roots.append(root)

    findings, sources = [], {}
    for root in roots:
        analysis = analyze_project(root, parsed)
        findings.extend(analysis.findings())
        sources.update(analysis.index.sources)

    # ``# qa-ignore[...]`` applies as in the per-file pass, markers on
    # the first line of a multi-line statement included.
    return sorted(
        f for f in findings
        if any(_within(f.path, req) for req in requested)
        and not sources[f.path].suppressed(f.line, f.rule_id)
    )


def resolve_symbol(analysis, symbol):
    """Map a user-supplied name to a function fq: exact match first,
    then a unique ``.suffix`` match. Raises ``LookupError`` with the
    candidate list when ambiguous or unknown."""
    functions = analysis.index.functions
    if symbol in functions:
        return symbol
    candidates = sorted(
        fq for fq in functions
        if fq.endswith(f".{symbol}")
    )
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise LookupError(f"no function matches {symbol!r}")
    shown = ", ".join(candidates[:8])
    more = "" if len(candidates) <= 8 else f" (+{len(candidates) - 8} more)"
    raise LookupError(f"{symbol!r} is ambiguous: {shown}{more}")


def effects_report(symbol, root="src/repro", analysis=None):
    """The ``repro analyze effects`` text: inferred effect set, what
    callers inherit after masking, and one call chain per effect."""
    if analysis is None:
        analysis = analyze_project(package_root(root))
    fq = resolve_symbol(analysis, symbol)
    record = analysis.graph.record(fq)
    solver = analysis.solver
    effects = solver.effects(fq)
    exported = solver.exported(fq)

    lines = [f"{fq} ({record.path}:{record.line})"]
    if not effects:
        lines.append("  effects: PURE (no observed effects)")
        return "\n".join(lines)
    ordered = [e for e in ALL_EFFECTS if e in effects]
    lines.append(f"  effects: {', '.join(ordered)}")
    masked = effects - exported
    if masked:
        shown = ", ".join(e for e in ALL_EFFECTS if e in masked)
        lines.append(f"  masked at sanctioned boundary (callers do not "
                     f"inherit): {shown}")
    for effect in ordered:
        chain = solver.chain(fq, effect)
        if chain:
            lines.append(f"  {effect}: {format_chain(chain, effect)}")
    return "\n".join(lines)
