"""Argument-mutation detection for the numerical kernels.

The ``stats/`` and ``core/`` kernels receive caller-owned numpy arrays;
writing into them in place (``x[...] = ``, ``x += ``, ``np.clip(...,
out=x)``) corrupts the caller's data and makes results depend on call
order. Kernels must copy (``x = np.asarray(x, dtype=float).copy()``) or
compute out of place.

A parameter that is *rebound* in the function body (``x = normalize(x)``)
is treated as a local afterwards and not flagged: the idiomatic
"coerce-then-work-on-your-own-copy" pattern stays clean.
"""

from __future__ import annotations

import ast

from repro.qa.lint import FUNCTION_DEFS, dotted
from repro.qa.rules.base import Rule, parameter_names

#: numpy free functions whose first positional argument is written in place.
NUMPY_FIRST_ARG_MUTATORS = frozenset({
    "fill_diagonal", "copyto", "place", "put", "put_along_axis", "putmask",
})

#: ndarray methods that write in place.
NDARRAY_MUTATOR_METHODS = frozenset({
    "fill", "sort", "partition", "resize", "setfield", "itemset", "setflags",
})


#: Statements and expressions that (re)bind their target names.
_BINDERS = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr,
            ast.For, ast.withitem)


def _bound_names(node):
    """Plain names one binder rebinds: assignment targets (tuple,
    list and starred unpacking included), the augmented-assignment,
    walrus and for-loop targets, and ``with ... as`` targets."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.withitem):
        targets = [node.optional_vars]
    else:
        targets = [node.target]
    out = set()
    while targets:
        target = targets.pop()
        if isinstance(target, ast.Name):
            out.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
    return out


def _subscript_root(node):
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class ArgumentMutation(Rule):
    rule_id = "arg-mutation"
    description = ("stats/ and core/ kernels must not write into their "
                   "array parameters in place")

    def applies_to(self, ctx):
        return ctx.in_directory("stats", "core")

    def check(self, ctx):
        # A parameter rebound anywhere in a function body (nested
        # functions included) is that function's local afterwards.
        rebound = {}
        for node in ctx.nodes(*_BINDERS):
            names = _bound_names(node)
            for func in ctx.enclosing(node, *FUNCTION_DEFS):
                rebound.setdefault(func, set()).update(names)
        tracked = {
            func: set(parameter_names(func)) - rebound.get(func, set())
            for func in ctx.nodes(*FUNCTION_DEFS)
        }
        # Every (nested) definition around a write checks it, so a
        # write that two enclosing functions track is reported twice.
        for node in ctx.nodes(ast.Assign, ast.AugAssign, ast.Call):
            for func in ctx.enclosing(node, *FUNCTION_DEFS):
                if tracked[func]:
                    yield from self._check_node(node, tracked[func], ctx)

    def _check_node(self, node, tracked, ctx):
        if isinstance(node, ast.Call):
            yield from self._check_call(node, tracked, ctx)
            return
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Subscript):
                root = _subscript_root(target)
                if root in tracked:
                    yield self.finding(
                        ctx, node,
                        f"in-place write to parameter {root!r}; "
                        f"copy before mutating",
                    )

    def _check_call(self, call, tracked, ctx):
        for keyword in call.keywords:
            if keyword.arg == "out" and \
                    isinstance(keyword.value, ast.Name) and \
                    keyword.value.id in tracked:
                yield self.finding(
                    ctx, call,
                    f"out={keyword.value.id} writes into a parameter; "
                    f"allocate a fresh output array",
                )
        name = dotted(call.func)
        if name is None:
            return
        head, _, tail = name.rpartition(".")
        if tail in NUMPY_FIRST_ARG_MUTATORS and head in ("np", "numpy") \
                and call.args:
            target = call.args[0]
            if isinstance(target, ast.Name) and target.id in tracked:
                yield self.finding(
                    ctx, call,
                    f"np.{tail}() mutates parameter {target.id!r} in "
                    f"place; copy first",
                )
        elif tail in NDARRAY_MUTATOR_METHODS and head in tracked:
            yield self.finding(
                ctx, call,
                f"{head}.{tail}() mutates parameter {head!r} in place; "
                f"copy first",
            )
