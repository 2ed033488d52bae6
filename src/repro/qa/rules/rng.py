"""RNG discipline: every random stream must thread an explicit seed.

The determinism story of the whole pipeline (ROADMAP: reproducible
scores, bit-identical same-seed reruns) dies the moment one kernel pulls
from numpy's global RNG or builds an unseeded ``Generator``. Three
shapes are flagged:

* calls into the legacy module-level RNG (``np.random.rand`` and
  friends, including ``np.random.seed`` -- global state is the problem,
  seeding it does not help);
* ``default_rng()`` with no argument or a literal ``None`` (OS-entropy
  seeding: nondeterministic by construction);
* a function parameter (or dataclass field) named anything that defaults
  to ``None`` and then flows into ``default_rng`` -- callers that do not
  pass a seed silently get a nondeterministic stream, so the default
  itself must be a concrete seed.

Test/example/benchmark code is exempt: the rule is about the library.
"""

from __future__ import annotations

import ast

from repro.qa.lint import FUNCTION_DEFS, dotted
from repro.qa.rules.base import Rule, parameters_with_none_default

#: Module-level samplers/state of the legacy numpy RNG.
LEGACY_RNG_ATTRS = frozenset({
    "seed", "get_state", "set_state",
    "rand", "randn", "randint", "random_integers",
    "random", "random_sample", "ranf", "sample", "bytes",
    "shuffle", "permutation", "choice",
    "uniform", "normal", "standard_normal", "lognormal",
    "exponential", "poisson", "binomial", "beta", "gamma",
    "chisquare", "dirichlet", "geometric", "laplace", "multinomial",
    "multivariate_normal", "pareto", "rayleigh", "triangular",
    "vonmises", "wald", "weibull", "zipf",
})

_NUMPY_ROOTS = ("np.random.", "numpy.random.")


def _is_default_rng_call(call):
    name = dotted(call.func)
    return name is not None and (
        name == "default_rng" or name.endswith(".default_rng")
    )


class RngDiscipline(Rule):
    rule_id = "rng-discipline"
    description = ("no module-level np.random calls; default_rng must "
                   "receive an explicit seed or Generator")

    def applies_to(self, ctx):
        return not ctx.in_directory("tests", "examples", "benchmarks")

    def check(self, ctx):
        yield from self._check_calls(ctx)
        seeded = [node for node in ctx.nodes(ast.Call)
                  if _is_default_rng_call(node) and node.args]
        yield from self._check_none_default_params(seeded, ctx)
        yield from self._check_class_fields(seeded, ctx)

    # -- direct calls --------------------------------------------------------

    def _check_calls(self, ctx):
        for node in ctx.nodes(ast.Call):
            name = dotted(node.func)
            if name is None:
                continue
            for root in _NUMPY_ROOTS:
                if name.startswith(root) and name[len(root):] in \
                        LEGACY_RNG_ATTRS:
                    yield self.finding(
                        ctx, node,
                        f"call to module-level RNG {name}(); use a seeded "
                        f"np.random.default_rng(seed) Generator instead",
                    )
                    break
            if _is_default_rng_call(node):
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "unseeded default_rng(): nondeterministic stream; "
                        "thread an explicit seed or Generator",
                    )
                elif node.args and isinstance(node.args[0], ast.Constant) \
                        and node.args[0].value is None:
                    yield self.finding(
                        ctx, node,
                        "default_rng(None) is entropy-seeded; thread an "
                        "explicit seed or Generator",
                    )

    # -- None-default seed parameters ---------------------------------------

    def _check_none_default_params(self, seeded, ctx):
        flagged = set()
        for call in seeded:
            arg = call.args[0]
            if not isinstance(arg, ast.Name):
                continue
            for func in ctx.enclosing(call, *FUNCTION_DEFS):
                if (func, arg.id) in flagged or \
                        arg.id not in parameters_with_none_default(func):
                    continue
                flagged.add((func, arg.id))
                yield self.finding(
                    ctx, func,
                    f"parameter {arg.id!r} of {func.name}() defaults to "
                    f"None and feeds default_rng(); default to a concrete "
                    f"seed so unseeded callers stay deterministic",
                )

    # -- None-default dataclass fields --------------------------------------

    def _check_class_fields(self, seeded, ctx):
        flagged = set()
        for call in seeded:
            name = dotted(call.args[0])
            if name is None or not name.startswith("self."):
                continue
            field = name[len("self."):]
            for cls in ctx.enclosing(call, ast.ClassDef):
                stmt = _none_fields(cls).get(field)
                if stmt is None or (cls, field) in flagged:
                    continue
                flagged.add((cls, field))
                yield self.finding(
                    ctx, stmt,
                    f"field {field!r} of {cls.name} defaults to None and "
                    f"feeds default_rng(); default to a concrete seed",
                )


def _none_fields(cls):
    """``name -> AnnAssign`` for the class-body fields defaulting to
    the constant None."""
    return {
        stmt.target.id: stmt for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is None
    }
