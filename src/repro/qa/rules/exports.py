"""``__all__`` drift in package ``__init__`` re-exports.

A package ``__init__`` that re-exports names is the public API surface;
``__all__`` is its contract. Two drifts are flagged:

* a public name imported with ``from X import Y`` but absent from
  ``__all__`` (the export exists but is undeclared -- ``import *`` and
  documentation tools will miss it);
* an ``__all__`` entry that is never bound in the module (a stale or
  misspelled export). Modules with a PEP 562 ``__getattr__`` resolve
  names lazily, so the stale-entry check is skipped there.

Only statically-resolvable ``__all__`` lists (list/tuple of string
literals) are checked; computed ``__all__`` expressions -- including
the one :func:`repro._lazy.lazy_exports` returns -- are left alone.
"""

from __future__ import annotations

import ast

from repro.qa.rules.base import Rule


def _static_all(node):
    """String entries of an ``__all__`` list/tuple literal, else None."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    entries = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        entries.append(element.value)
    return entries


class AllDrift(Rule):
    rule_id = "all-drift"
    description = ("package __init__ re-exports must agree with __all__")

    def applies_to(self, ctx):
        return ctx.is_package_init and not ctx.in_directory("tests")

    def check(self, tree, ctx):
        all_node = None
        all_entries = None
        imported = {}  # name -> lineno
        bound = set()
        has_getattr = False
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    name = alias.asname or alias.name
                    if name != "*" and not name.startswith("_"):
                        imported.setdefault(name, stmt.lineno)
                    bound.add(name)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            all_node = stmt
                            all_entries = _static_all(stmt.value)
                        else:
                            bound.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        # ``__all__, __getattr__, __dir__ =
                        # lazy_exports(...)``: a computed __all__.
                        names = {e.id for e in target.elts
                                 if isinstance(e, ast.Name)}
                        if "__all__" in names:
                            all_node, all_entries = stmt, None
                        has_getattr |= "__getattr__" in names
                        bound |= names - {"__all__"}
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                bound.add(stmt.target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bound.add(stmt.name)
                if stmt.name == "__getattr__":
                    has_getattr = True

        if all_node is None:
            if imported:
                first = min(imported.values())
                yield self.finding(
                    ctx, first,
                    f"package __init__ re-exports {len(imported)} name(s) "
                    f"but defines no __all__",
                )
            return
        if all_entries is None:
            return  # computed __all__: not statically checkable

        declared = set(all_entries)
        for name, line in sorted(imported.items()):
            if name not in declared:
                yield self.finding(
                    ctx, line,
                    f"re-exported name {name!r} is missing from __all__",
                )
        if not has_getattr:
            for name in all_entries:
                if name not in bound and name != "__version__":
                    yield self.finding(
                        ctx, all_node,
                        f"__all__ lists {name!r} but the module never "
                        f"binds it",
                    )
