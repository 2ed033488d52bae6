"""Float-equality comparisons.

``x == 0.98`` is only true when the bit patterns match exactly; any
value that went through arithmetic (normalization, averaging) will miss
it. Comparisons where either side is a float *literal* are flagged --
use ``math.isclose`` / ``np.isclose`` or an explicit tolerance. Integer
literals are deliberately not flagged: ``if step == 0`` after an exact
``max(...)`` is a legitimate exact-zero guard.
"""

from __future__ import annotations

import ast

from repro.qa.rules.base import Rule


def _is_float_literal(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # unary minus on a float literal: -0.5
    return (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and _is_float_literal(node.operand))


class FloatEquality(Rule):
    rule_id = "float-equality"
    description = ("no == / != against float literals; use a tolerance "
                   "(math.isclose, np.isclose)")

    def check(self, ctx):
        for node in ctx.nodes(ast.Compare):
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(left) or _is_float_literal(right):
                    yield self.finding(
                        ctx, node,
                        "exact float equality against a literal; compare "
                        "with a tolerance (math.isclose / np.isclose)",
                    )
                    break
