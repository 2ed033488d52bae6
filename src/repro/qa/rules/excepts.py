"""Bare and overbroad exception handlers.

``except:`` and ``except Exception:`` swallow programming errors --
including the ``ValueError`` a :class:`~repro.core.matrix.CounterMatrix`
raises on a non-finite counter or time series -- and turn hard failures
into silent wrong numbers. A
handler that *re-raises* (contains a bare ``raise``) is fine: it is a
logging/cleanup wrapper, not a swallow.
"""

from __future__ import annotations

import ast

from repro.qa.lint import dotted
from repro.qa.rules.base import Rule

_OVERBROAD = frozenset({"Exception", "BaseException"})


class OverbroadExcept(Rule):
    rule_id = "overbroad-except"
    description = ("no bare except / except Exception unless the handler "
                   "re-raises")

    def check(self, ctx):
        # Handlers holding a bare ``raise`` anywhere inside them.
        reraising = {
            handler for node in ctx.nodes(ast.Raise) if node.exc is None
            for handler in ctx.enclosing(node, ast.ExceptHandler)
        }
        for node in ctx.nodes(ast.ExceptHandler):
            if node.type is None:
                if node not in reraising:
                    yield self.finding(
                        ctx, node,
                        "bare except swallows every error (including "
                        "KeyboardInterrupt); name the exceptions",
                    )
                continue
            name = dotted(node.type)
            if name in _OVERBROAD and node not in reraising:
                yield self.finding(
                    ctx, node,
                    f"except {name} swallows programming errors; catch "
                    f"the specific exceptions or re-raise",
                )
