"""Bit-for-bit determinism checker for the scoring pipeline.

Reproducibility claims are only honest at the bit level: "close enough"
drift between two same-seed runs means an unseeded RNG or an
order-dependent reduction is hiding somewhere. This checker runs
``Perspector.score`` twice -- two *fresh* Perspector/PerfSession
instances under one seed -- and diffs the scorecards through the IEEE-754
bit patterns of every score and every per-item decomposition value
(NaN == NaN under this comparison, unlike ``==``). It also enforces the
scoring engine's invariance contract: disabling the kernel cache,
fanning the work across ``--workers N`` processes of the persistent
spawn pool, or going through a cold-then-warm on-disk cache tier, must
not move a single bit. Neither may running under an installed span tracer
(:mod:`repro.obs`): the trace-on variant re-scores under a live tracer,
requires bit-identical output, and validates the collected span tree
(every span closed, nested within its same-process parent, worker spans
re-parented under their dispatching map-call span). The CLI entry
point finishes with a leak check: no half-written tmp artifacts may
remain in the disk-cache directory.

Run it as ``python -m repro.qa.determinism`` (the default drives a
synthetic suite through the full simulate-measure-score stack, covering
all four scores) or call :func:`check_determinism` with any suite or
:class:`~repro.core.matrix.CounterMatrix`.
"""

from __future__ import annotations

import argparse
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np


def _bits(value):
    """IEEE-754 bit pattern of a float (total ordering, NaN-stable)."""
    return struct.pack("<d", float(value))


def _mismatch(label, a, b):
    return (f"{label}: {a!r} (bits {_bits(a).hex()}) != "
            f"{b!r} (bits {_bits(b).hex()})")


def _compare_mapping(label, a, b, mismatches):
    if set(a) != set(b):
        mismatches.append(
            f"{label}: key sets differ ({sorted(map(str, a))} vs "
            f"{sorted(map(str, b))})"
        )
        return
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, (int, float, np.floating, np.integer)):
            if _bits(va) != _bits(vb):
                mismatches.append(_mismatch(f"{label}[{key!r}]", va, vb))


def diff_scorecards(a, b):
    """Bit-level differences between two scorecards; empty list means
    bit-identical."""
    mismatches = []
    if a.suite_name != b.suite_name:
        mismatches.append(f"suite_name: {a.suite_name!r} != {b.suite_name!r}")
    if a.focus != b.focus:
        mismatches.append(f"focus: {a.focus!r} != {b.focus!r}")
    for score in ("cluster", "trend", "coverage", "spread"):
        va, vb = getattr(a, score), getattr(b, score)
        if _bits(va) != _bits(vb):
            mismatches.append(_mismatch(score, va, vb))
    for name, attr in (("cluster", "per_k"), ("trend", "per_event"),
                       ("spread", "per_item")):
        da, db = a.details.get(name), b.details.get(name)
        if (da is None) != (db is None):
            mismatches.append(f"details[{name!r}]: present in one run only")
        elif da is not None:
            _compare_mapping(f"{name}.{attr}", getattr(da, attr),
                             getattr(db, attr), mismatches)
    ca, cb = a.details.get("coverage"), b.details.get("coverage")
    if (ca is None) != (cb is None):
        mismatches.append("details['coverage']: present in one run only")
    elif ca is not None:
        if ca.n_components != cb.n_components:
            mismatches.append(
                f"coverage.n_components: {ca.n_components} != "
                f"{cb.n_components}"
            )
        elif [_bits(v) for v in ca.component_variances] != \
                [_bits(v) for v in cb.component_variances]:
            mismatches.append("coverage.component_variances: bit drift")
    return mismatches


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of a two-run determinism check.

    Attributes
    ----------
    identical:
        Whether the two scorecards were bit-for-bit identical.
    mismatches:
        Human-readable descriptions of every bit-level difference.
    scorecards:
        The two scorecards, in run order.
    seed:
        The shared seed both runs used.
    """

    identical: bool
    mismatches: tuple
    scorecards: tuple
    seed: int

    def __str__(self):
        card = self.scorecards[0]
        head = (f"determinism check (seed={self.seed}, suite="
                f"{card.suite_name!r}): ")
        if self.identical:
            return (head + "PASS -- scorecards bit-identical across "
                    f"{len(self.scorecards)} runs")
        lines = [head + f"FAIL -- {len(self.mismatches)} mismatch(es)"]
        lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


def check_determinism(suite_or_matrix, seed=0, focus="all",
                      session_factory=None, workers=1, cache_dir=None,
                      backend=None):
    """Score the input twice under one seed; diff the results bit-for-bit.

    Each run builds a *fresh* Perspector (and, unless ``session_factory``
    is given, a fresh default :class:`~repro.perf.session.PerfSession`),
    so no state leaks between runs -- exactly the "two cold processes"
    setting a user hitting reproducibility bugs would be in.

    On top of the two baseline runs, the check verifies the scoring
    engine's invariance contract through a set of variant runs, each of
    which must be bit-identical to the baseline (mismatches are
    prefixed with the variant label):

    * the kernel cache disabled;
    * when ``workers > 1``: the work fanned across that many processes
      of the engine's persistent spawn pool;
    * when ``cache_dir`` is given: a disk-cold run that populates the
      on-disk tier, then a disk-warm run (fresh process-level state,
      same directory) that must reproduce the baseline from the
      persisted entries; and ``scorecard-tier``, the baseline stored
      as the disk tier's scorecard entry (what a disk-warm ``repro
      score`` prints from) and served back by a fresh tier, every
      per-k, per-event, per-item and coverage-component bit included.

    When ``backend`` names a non-reference compute backend, the
    baseline runs are pinned to the reference backend and every variant
    (plus an extra serial run) is re-run under the requested backend:
    vectorized scorecards must reproduce the *reference* bits on every
    execution shape, and the disk-warm variant doubles as proof that
    cache keys are backend-free (entries written by one backend serve
    the other).

    Returns
    -------
    DeterminismReport
    """
    from repro.core.perspector import Perspector, PerspectorConfig

    def run_once(**config_kwargs):
        session = None if session_factory is None else session_factory()
        perspector = Perspector(
            session=session,
            config=PerspectorConfig(seed=seed, **config_kwargs),
        )
        return perspector.score(suite_or_matrix, focus=focus)

    cross = backend not in (None, "reference")
    baseline_kwargs = {"backend": "reference"} if cross else {}
    cards = [run_once(**baseline_kwargs), run_once(**baseline_kwargs)]
    mismatches = list(diff_scorecards(cards[0], cards[1]))
    variants = [("cache=off", {"cache": False})]
    if workers > 1:
        variants.append((f"workers={workers}", {"workers": workers}))
    if cache_dir is not None:
        variants.append(("disk-cold", {"cache_dir": cache_dir}))
        variants.append(("disk-warm", {"cache_dir": cache_dir}))
    if cross:
        # Cross-backend identity: the requested backend must reproduce
        # the reference baseline's bits on every execution shape. The
        # disk-warm arm additionally proves cache keys are backend-free:
        # it serves entries the disk-cold arm wrote under this backend.
        variants = [(f"backend={backend}", {"backend": backend})] + [
            (f"{backend}:{label}", dict(kwargs, backend=backend))
            for label, kwargs in variants
        ]
    for label, config_kwargs in variants:
        card = run_once(**config_kwargs)
        mismatches.extend(
            f"[{label}] {m}" for m in diff_scorecards(cards[0], card)
        )
        cards.append(card)
    if cache_dir is not None:
        card = _served_from_scorecard_tier(cards[0], cache_dir, seed)
        if card is None:
            mismatches.append("[scorecard-tier] the stored scorecard was "
                              "not served back")
        else:
            mismatches.extend(f"[scorecard-tier] {m}"
                              for m in diff_scorecards(cards[0], card))
    # Tracing must observe, never perturb: a run under an installed span
    # tracer (fanned, when workers > 1, so worker spans ship back) must
    # be bit-identical to the baseline, and the collected span tree must
    # be well-formed -- every span closed, children nested within their
    # same-process parents, worker spans re-parented under their
    # dispatching map-call span.
    from repro.obs import trace as obs_trace

    traced_kwargs = {"workers": workers} if workers > 1 else {}
    traced_label = "traced"
    if cross:
        traced_kwargs["backend"] = backend
        traced_label = f"{backend}:traced"
    tracer = obs_trace.install(obs_trace.Tracer())
    try:
        card = run_once(**traced_kwargs)
    finally:
        obs_trace.uninstall()
    mismatches.extend(
        f"[{traced_label}] {m}" for m in diff_scorecards(cards[0], card)
    )
    mismatches.extend(
        f"[{traced_label}] span tree: {problem}"
        for problem in obs_trace.validate_spans(tracer.spans(),
                                                owner_pid=os.getpid())
    )
    cards.append(card)
    return DeterminismReport(
        identical=not mismatches,
        mismatches=tuple(mismatches),
        scorecards=tuple(cards),
        seed=seed,
    )


def _served_from_scorecard_tier(card, cache_dir, seed):
    """``card`` stored as a disk-tier scorecard entry, then read back
    by a fresh tier on the same directory (as a later ``repro score``
    process would); ``None`` if it was not served."""
    from repro.engine.cache import MISS, content_key
    from repro.engine.diskcache import DiskCache

    key = content_key("scorecard", card.suite_name, card.focus, seed)
    writer = DiskCache(cache_dir)
    writer.put(key, card)
    served = DiskCache(cache_dir).get(key)
    return None if served is MISS else served


def diff_search_results(a, b):
    """Bit-level differences between two
    :class:`~repro.engine.subset_eval.SubsetSearchResult` objects; empty
    list means bit-identical (including every candidate's report and
    which trend path each event took)."""
    mismatches = []
    for attr in ("suite", "subset_size", "method", "n_candidates"):
        va, vb = getattr(a, attr), getattr(b, attr)
        if va != vb:
            mismatches.append(f"{attr}: {va!r} != {vb!r}")
    if tuple(a.best.selected) != tuple(b.best.selected):
        mismatches.append(
            f"best.selected: {a.best.selected} != {b.best.selected}"
        )
    if len(a.reports) != len(b.reports):
        mismatches.append(
            f"n_evaluated: {len(a.reports)} != {len(b.reports)}"
        )
        return mismatches
    for i, (ra, rb) in enumerate(zip(a.reports, b.reports)):
        label = f"reports[{i}]"
        if tuple(ra.selected) != tuple(rb.selected):
            mismatches.append(
                f"{label}.selected: {ra.selected} != {rb.selected}"
            )
            continue
        for name in ("full_scores", "subset_scores", "deviations"):
            _compare_mapping(f"{label}.{name}", getattr(ra, name),
                             getattr(rb, name), mismatches)
        if _bits(ra.mean_deviation_pct) != _bits(rb.mean_deviation_pct):
            mismatches.append(_mismatch(f"{label}.mean_deviation_pct",
                                        ra.mean_deviation_pct,
                                        rb.mean_deviation_pct))
        pa = ra.details.get("trend_paths")
        pb = rb.details.get("trend_paths")
        if pa != pb:
            mismatches.append(
                f"{label}.details['trend_paths']: {pa!r} != {pb!r}"
            )
    return mismatches


@dataclass(frozen=True)
class SearchDeterminismReport:
    """Outcome of a subset-search determinism check.

    Attributes
    ----------
    identical:
        Whether every run's search result was bit-for-bit identical.
    mismatches:
        Human-readable descriptions of every bit-level difference.
    results:
        The search results, in run order.
    seed:
        The shared seed all runs used.
    """

    identical: bool
    mismatches: tuple
    results: tuple
    seed: int

    def __str__(self):
        head = (f"subset-search determinism check (seed={self.seed}, "
                f"method={self.results[0].method!r}, "
                f"{self.results[0].n_evaluated} candidates): ")
        if self.identical:
            return (head + "PASS -- results bit-identical across "
                    f"{len(self.results)} runs")
        lines = [head + f"FAIL -- {len(self.mismatches)} mismatch(es)"]
        lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


def check_search_determinism(matrix, subset_size=4, n_candidates=8,
                             method="swap", seed=0, workers=1,
                             cache_dir=None, backend=None):
    """Run ``SubsetSearch.search`` twice from fresh engines under one
    seed; diff the results bit-for-bit. Like :func:`check_determinism`,
    extra variant runs enforce the engine invariance contract: cache
    disabled; when ``workers > 1``, candidate batches fanned across
    that many processes of the persistent spawn pool; and when
    ``cache_dir`` is given, a disk-cold then a disk-warm run against
    the on-disk cache tier; the disk-warm run must also compute no DTW
    pair at all. A non-reference ``backend`` pins the baseline to the
    reference backend and re-runs every variant under the requested
    one, as in :func:`check_determinism`.

    Returns
    -------
    SearchDeterminismReport
    """
    from repro.engine import Engine, SubsetSearch

    def run_once(**engine_kwargs):
        engine = Engine(**engine_kwargs)
        try:
            search = SubsetSearch(matrix, subset_size, seed=seed,
                                  engine=engine)
            return search.search(n_candidates, method=method)
        finally:
            engine.close()

    cross = backend not in (None, "reference")
    baseline_kwargs = {"backend": "reference"} if cross else {}
    results = [run_once(**baseline_kwargs), run_once(**baseline_kwargs)]
    mismatches = list(diff_search_results(results[0], results[1]))
    variants = [("cache=off", {"cache": False})]
    if workers > 1:
        variants.append((f"workers={workers}", {"workers": workers}))
    if cache_dir is not None:
        variants.append(("disk-cold", {"cache_dir": cache_dir}))
        variants.append(("disk-warm", {"cache_dir": cache_dir}))
    if cross:
        variants = [(f"backend={backend}", {"backend": backend})] + [
            (f"{backend}:{label}", dict(kwargs, backend=backend))
            for label, kwargs in variants
        ]
    for label, kwargs in variants:
        counted = None
        if label.endswith("disk-warm"):
            kwargs, counted = _pair_counting(kwargs)
        result = run_once(**kwargs)
        mismatches.extend(
            f"[{label}] {m}"
            for m in diff_search_results(results[0], result)
        )
        if counted is not None and sum(counted):
            # Every full-suite kernel and every candidate report is on
            # disk by now: a missing or undecodable entry shows up here
            # instead of being silently recomputed.
            mismatches.append(
                f"[{label}] computed {sum(counted)} DTW pair(s); a "
                f"disk-warm search must read every kernel and candidate "
                f"report back"
            )
        results.append(result)
    # Trace-on bit-identity + span-tree well-formedness, as in
    # check_determinism.
    from repro.obs import trace as obs_trace

    traced_kwargs = {"workers": workers} if workers > 1 else {}
    traced_label = "traced"
    if cross:
        traced_kwargs["backend"] = backend
        traced_label = f"{backend}:traced"
    tracer = obs_trace.install(obs_trace.Tracer())
    try:
        result = run_once(**traced_kwargs)
    finally:
        obs_trace.uninstall()
    mismatches.extend(
        f"[{traced_label}] {m}"
        for m in diff_search_results(results[0], result)
    )
    mismatches.extend(
        f"[{traced_label}] span tree: {problem}"
        for problem in obs_trace.validate_spans(tracer.spans(),
                                                owner_pid=os.getpid())
    )
    results.append(result)
    return SearchDeterminismReport(
        identical=not mismatches,
        mismatches=tuple(mismatches),
        results=tuple(results),
        seed=seed,
    )


def _pair_counting(engine_kwargs):
    """``engine_kwargs`` with the backend swapped for one that records
    the size of every DTW pair batch it computes, plus that record (a
    list; empty while no pair was computed). It sees every call made
    through the engine's own backend -- all candidate work and every
    inline full-suite matrix fill -- but not trend-event pool tasks,
    which look their backend up by name even when run inline."""
    import dataclasses

    from repro.stats.backend import resolve_backend

    backend = resolve_backend(engine_kwargs.get("backend"))
    counted = []

    def pair_distances(arrays, idx_i, idx_j, band=None):
        counted.append(len(idx_i))
        return backend.pair_distances(arrays, idx_i, idx_j, band)

    counting = dataclasses.replace(backend, pair_distances=pair_distances)
    return dict(engine_kwargs, backend=counting), counted


def synthetic_matrix(seed, n_workloads, n_events, length):
    """A seeded random CounterMatrix with per-workload series, for
    checks that need scores but no simulation."""
    from repro.core.matrix import CounterMatrix

    rng = np.random.default_rng(seed)
    workloads = tuple(f"wl{i:02d}" for i in range(n_workloads))
    events = tuple(f"ev{i}" for i in range(n_events))
    series = {
        e: [rng.uniform(0.0, 10.0, size=length) for _ in workloads]
        for e in events
    }
    return CounterMatrix(
        workloads=workloads,
        events=events,
        values=rng.uniform(1.0, 100.0, size=(n_workloads, n_events)),
        series=series,
        suite_name="synthetic",
    )


def _default_subject(seed, quick):
    """A synthetic suite exercising all four scores through the full
    simulate-measure-score stack."""
    from repro.perf.session import PerfSession
    from repro.workloads.synthetic import make_synthetic_suite

    suite = make_synthetic_suite(
        n_workloads=6, diversity=0.7, phase_richness=0.6, seed=seed,
        name="qa-determinism",
    )
    if quick:
        factory = (lambda: PerfSession(n_intervals=8, ops_per_interval=400,
                                       seed=seed))
    else:
        factory = lambda: PerfSession(seed=seed)
    return suite, factory


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa.determinism",
        description="Re-run Perspector.score twice under one seed and "
                    "diff the scorecards bit-for-bit.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--focus", default="all",
                        choices=["all", "llc", "tlb", "branch", "core"])
    parser.add_argument("--full", action="store_true",
                        help="full-length traces (slower; default is the "
                             "quick preset)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="also require a run fanned across N worker "
                             "processes to be bit-identical")
    parser.add_argument("--backend", default=None,
                        help="also require this compute backend to "
                             "reproduce the reference backend's bits on "
                             "every variant (e.g. vectorized)")
    args = parser.parse_args(argv)

    import tempfile

    from repro.engine.diskcache import stale_artifacts

    with tempfile.TemporaryDirectory(prefix="repro-qa-cache-") as tmp:
        suite, factory = _default_subject(args.seed, quick=not args.full)
        report = check_determinism(suite, seed=args.seed, focus=args.focus,
                                   session_factory=factory,
                                   workers=args.workers, cache_dir=tmp,
                                   backend=args.backend)
        print(report)

        # The sliced subset evaluator and search driver carry the same
        # bit-identity contract; cover `subset --search` (swap
        # refinement, cache off, workers=N, disk-cold/disk-warm) on a
        # small synthetic matrix.
        search_report = check_search_determinism(
            synthetic_matrix(seed=args.seed, n_workloads=10, n_events=3,
                             length=32),
            seed=args.seed, workers=args.workers, cache_dir=tmp,
            backend=args.backend,
        )
        print(search_report)

        # Leak check: the disk tier must hold no half-written tmp files
        # or stale lock artifacts.
        stale = stale_artifacts(tmp)
        if stale:
            print(f"leak check: FAIL -- {len(stale)} stale disk-cache "
                  f"artifact(s): {sorted(stale)}")
        else:
            print("leak check: PASS -- no disk-cache tmp artifacts left "
                  "behind")
    ok = report.identical and search_report.identical and not stale
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
