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

from repro.qa.rules.base import Rule, dotted_name

_OVERBROAD = frozenset({"Exception", "BaseException"})


def _reraises(handler):
    return any(isinstance(node, ast.Raise) and node.exc is None
               for node in ast.walk(handler))


class OverbroadExcept(Rule):
    rule_id = "overbroad-except"
    description = ("no bare except / except Exception unless the handler "
                   "re-raises")

    def check(self, tree, ctx):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not _reraises(node):
                    yield self.finding(
                        ctx, node,
                        "bare except swallows every error (including "
                        "KeyboardInterrupt); name the exceptions",
                    )
                continue
            name = dotted_name(node.type)
            if name in _OVERBROAD and not _reraises(node):
                yield self.finding(
                    ctx, node,
                    f"except {name} swallows programming errors; catch "
                    f"the specific exceptions or re-raise",
                )
