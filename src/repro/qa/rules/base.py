"""Shared rule machinery for the QA linter."""

from __future__ import annotations

import ast

from repro.qa.lint import Finding


class Rule:
    """One static-analysis rule.

    Subclasses set ``rule_id`` / ``description`` and implement
    :meth:`check`, which reads the file's one parse and node index
    through its :class:`~repro.qa.lint.SourceContext` rather than
    walking the tree again; :meth:`applies_to` scopes the rule to part
    of the tree (e.g. kernel-only rules).
    """

    rule_id = "abstract"
    description = ""

    def applies_to(self, ctx):
        return True

    def check(self, ctx):
        raise NotImplementedError

    def finding(self, ctx, node_or_line, message):
        if isinstance(node_or_line, int):
            line, col = node_or_line, 1
        else:
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0) + 1
        return Finding(path=str(ctx.path), line=line, col=col,
                       rule_id=self.rule_id, message=message)


def parameter_names(func):
    """Positional/keyword/kw-only parameter names, ``self``/``cls``
    excluded."""
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return [n for n in names if n not in ("self", "cls")]


def parameters_with_none_default(func):
    """Names of parameters whose declared default is the constant None."""
    args = func.args
    out = set()
    positional = args.posonlyargs + args.args
    for param, default in zip(positional[len(positional) - len(args.defaults):],
                              args.defaults):
        if isinstance(default, ast.Constant) and default.value is None:
            out.add(param.arg)
    for param, default in zip(args.kwonlyargs, args.kw_defaults):
        if (default is not None and isinstance(default, ast.Constant)
                and default.value is None):
            out.add(param.arg)
    return out
