"""Observability discipline: timing goes through spans, status through
the CLI.

The ``repro.obs`` subsystem (DESIGN.md section 10) makes two promises:
every measured duration lands in the trace, and every machine-readable
output stream stays clean of status chatter. Ad-hoc instrumentation
breaks both, so two shapes are flagged in library code:

* raw wall/monotonic clock reads (``time.time()``,
  ``time.perf_counter()`` and friends) -- a duration computed from
  these is invisible to ``--trace`` and ``repro obs summary``; wrap
  the region in :func:`repro.obs.trace.span` (or record it through the
  metrics registry) instead. Non-timing wall-clock uses (e.g. a
  staleness cutoff) carry a ``qa-ignore`` waiver with a comment saying
  why;
* bare ``print()`` -- library code returns data, the CLI renders it.
  Reports go to stdout, status lines to stderr, and only from the CLI
  surface.

Exempt: tests/examples/benchmarks, the ``obs`` package itself (it is
the clock's home), ``cli.py``, ``main()`` entry points and
``if __name__ == "__main__":`` blocks (those *are* CLI surface), and
prints that route an explicit ``file=`` stream.
"""

from __future__ import annotations

import ast

from repro.qa.lint import FUNCTION_DEFS, dotted
from repro.qa.rules.base import Rule

#: Clock reads whose result is almost always a timing measurement.
#: Bare names cover ``from time import perf_counter`` style imports;
#: bare ``time`` is omitted (too ambiguous a name to claim).
CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
    "process_time", "process_time_ns",
})


def _is_main_guard(test):
    """Whether an ``if`` test is the ``__name__ == "__main__"`` idiom."""
    if not (isinstance(test, ast.Compare) and len(test.comparators) == 1
            and len(test.ops) == 1 and isinstance(test.ops[0], ast.Eq)):
        return False
    sides = (test.left, test.comparators[0])
    names = {n.id for n in sides if isinstance(n, ast.Name)}
    values = {c.value for c in sides if isinstance(c, ast.Constant)}
    return "__name__" in names and "__main__" in values


class ObsDiscipline(Rule):
    rule_id = "obs-discipline"
    description = ("timing goes through repro.obs spans, not raw clock "
                   "reads; print() is CLI/entry-point surface only")

    def applies_to(self, ctx):
        if ctx.in_directory("tests", "examples", "benchmarks", "obs"):
            return False
        return ctx.path.name != "cli.py"

    def check(self, ctx):
        for node in ctx.nodes(ast.Call):
            name = dotted(node.func)
            if name in CLOCK_CALLS:
                if not _under_main_guard(node, ctx):
                    yield self.finding(
                        ctx, node,
                        f"raw clock read {name}(); time the region with "
                        f"repro.obs.trace.span(...) so the measurement "
                        f"reaches --trace output (qa-ignore with a reason "
                        f"for non-timing wall-clock uses)",
                    )
            elif (name == "print"
                    and not any(kw.arg == "file" for kw in node.keywords)
                    and not _under_main_guard(node, ctx)
                    and not any(func.name == "main" for func in
                                ctx.enclosing(node, *FUNCTION_DEFS))):
                yield self.finding(
                    ctx, node,
                    "print() in library code; return data and let the "
                    "CLI render it (reports on stdout, status on stderr)",
                )


def _under_main_guard(node, ctx):
    """Whether ``node`` sits anywhere in an ``if __name__ ==
    "__main__":`` statement (its ``else`` branch included)."""
    return any(_is_main_guard(guard.test)
               for guard in ctx.enclosing(node, ast.If))
