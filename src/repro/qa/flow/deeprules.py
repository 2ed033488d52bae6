"""The three whole-program contract rules behind ``repro lint --deep``.

``cache-purity``
    A function that writes through :class:`~repro.engine.cache.KernelCache`
    (or the disk tier) is asserting "my result is a pure function of my
    key". Everything it transitively calls must therefore be free of
    ``WRITES_GLOBAL`` / ``RNG_UNSEEDED`` / ``CLOCK`` / ``IO`` -- an
    impure cached kernel turns the cache into a replay of whatever
    happened first. (``SPAWNS_PROCESS`` and ``READS_GLOBAL`` are
    permitted: fan-out is bit-transparent by the qa harness's proof,
    and config reads are stable within a run.)

``pool-safety``
    A callable submitted across the process-pool boundary must be a
    module-top-level function -- lambdas, nested functions and bound
    methods either fail to pickle under the spawn start method or
    silently capture driver-side state. The submitted function must
    also be free of ``RNG_UNSEEDED`` / ``WRITES_GLOBAL``: per-worker
    RNG state and driver-global writes both diverge from the
    single-process answer.

``backend-purity``
    Every function in :mod:`repro.stats.backend` is (or backs) the
    dispatch that the engine calls through a record attribute, which
    the call graph cannot see through. They must all stay
    module-top-level (nested functions and methods either fail to
    pickle under spawn or capture state a pool task cannot carry) and
    transitively free of ``WRITES_GLOBAL`` / ``RNG_UNSEEDED`` /
    ``CLOCK`` / ``IO`` -- an effectful kernel would make its caller
    impure behind the analysis's back.

Every finding embeds the justifying call chain (who calls whom down to
the intrinsic atom) so the report is actionable without re-running the
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qa.flow.effects import (
    CLOCK,
    IO,
    RNG_UNSEEDED,
    WRITES_GLOBAL,
    format_chain,
    sanctioned_mask,
)
from repro.qa.lint import Finding

#: Effects a cached computation may not carry.
FORBIDDEN_CACHED = frozenset({WRITES_GLOBAL, RNG_UNSEEDED, CLOCK, IO})

#: Effects a pool-submitted task may not carry.
POOL_FORBIDDEN = frozenset({RNG_UNSEEDED, WRITES_GLOBAL})

#: The compute-dispatch module held to dispatch purity.
BACKEND_MODULE = "repro.stats.backend"

#: Effects a backend dispatch function may not carry.
BACKEND_FORBIDDEN = frozenset({WRITES_GLOBAL, RNG_UNSEEDED, CLOCK, IO})


@dataclass(frozen=True)
class DeepRule:
    """Catalogue entry for ``--list-rules``."""

    rule_id: str
    description: str


DEEP_RULES = (
    DeepRule(
        "cache-purity",
        "functions memoized through the kernel/disk cache must be "
        "transitively free of global writes, unseeded RNG, clock reads "
        "and IO",
    ),
    DeepRule(
        "pool-safety",
        "pool-submitted callables must be module-top-level and free of "
        "unseeded RNG and global writes",
    ),
    DeepRule(
        "backend-purity",
        "compute-backend dispatch functions must be module-top-level "
        "and transitively free of global writes, unseeded RNG, clock "
        "reads and IO",
    ),
)


def check_cache_purity(graph, solver):
    """One finding per (cache site, forbidden effect) with the call
    chain proving the effect."""
    findings = []
    for site in graph.cache_sites:
        if sanctioned_mask(site.func):
            # The cache/transport layers legitimately call their own
            # put(); purity of *their* internals is the substrate's
            # runtime proof, not this rule's contract.
            continue
        record = graph.record(site.func)
        if record is None:
            continue
        bad = solver.effects(site.func) & FORBIDDEN_CACHED
        for effect in sorted(bad):
            chain = format_chain(solver.chain(site.func, effect), effect)
            findings.append(Finding(
                path=record.path, line=site.line, col=site.col,
                rule_id="cache-purity",
                message=(
                    f"cached computation {site.func} (via {site.via}) is "
                    f"not pure: {effect} -- {chain}"
                ),
            ))
    return findings


def check_pool_safety(graph, solver):
    """Findings for every pool submission whose target is not a clean
    module-top-level function."""
    findings = []
    for site in graph.pool_sites:
        record = graph.record(site.func)
        if record is None:
            continue

        def flag(message):
            findings.append(Finding(
                path=record.path, line=site.line, col=site.col,
                rule_id="pool-safety", message=message,
            ))

        if site.target_kind == "lambda":
            flag(f"lambda submitted to {site.via}: not importable by "
                 f"spawn workers -- hoist it to a module-top-level "
                 f"function")
        elif site.target_kind == "opaque":
            described = (f" {site.target!r}" if site.target else "")
            flag(f"cannot resolve callable{described} submitted to "
                 f"{site.via}: pool-safety is unprovable -- submit a "
                 f"module-top-level function by name")
        elif site.target_kind == "func":
            target = graph.record(site.target)
            if target is None:
                continue
            if target.nested:
                flag(f"nested function {site.target} submitted to "
                     f"{site.via}: closures are not picklable under "
                     f"spawn -- hoist it to module top level")
            elif target.cls is not None:
                flag(f"bound method {site.target} submitted to "
                     f"{site.via}: it captures the instance -- submit a "
                     f"module-top-level function instead")
            else:
                bad = solver.effects(site.target) & POOL_FORBIDDEN
                for effect in sorted(bad):
                    chain = format_chain(
                        solver.chain(site.target, effect), effect)
                    flag(f"pool task {site.target} carries {effect} -- "
                         f"{chain}")
    return findings


def check_backend_purity(index, solver):
    """Findings for every backend-registry function that is not a
    clean module-top-level dispatch target."""
    findings = []
    for summary in index.modules.values():
        if summary.module != BACKEND_MODULE:
            continue
        for fq, record in sorted(summary.functions.items()):
            def flag(message):
                findings.append(Finding(
                    path=record.path, line=record.line, col=record.col,
                    rule_id="backend-purity", message=message,
                ))

            if record.nested:
                flag(f"nested function {fq} in the backend registry: "
                     f"dispatch targets must be module-top-level so "
                     f"spawn workers can import them by name")
                continue
            if record.cls is not None:
                flag(f"method {fq} in the backend registry: dispatch "
                     f"targets must be free functions, not methods "
                     f"capturing an instance")
                continue
            bad = solver.effects(fq) & BACKEND_FORBIDDEN
            for effect in sorted(bad):
                chain = format_chain(solver.chain(fq, effect), effect)
                flag(f"backend dispatch function {fq} carries {effect} "
                     f"-- {chain}")
    return findings


def check_all(index, graph, solver):
    """Every deep finding for one analyzed project, sorted."""
    findings = []
    findings.extend(check_cache_purity(graph, solver))
    findings.extend(check_pool_safety(graph, solver))
    findings.extend(check_backend_purity(index, solver))
    return sorted(findings)
