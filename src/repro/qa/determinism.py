"""The qa harness: bit-for-bit determinism of everything that scores.

Reproducibility claims are only honest at the bit level: "close enough"
drift between two same-seed runs means an unseeded RNG or an
order-dependent reduction is hiding somewhere. Every check here is a
table of ``(label, run)`` rows that one loop runs: each row's result is
diffed against the check's baseline through its wire record
(:func:`repro.service.protocol.record_diff`: every field, floats as
IEEE-754 hex, so NaN == NaN, unlike ``==``), and the row adds its own
checks. Four tables:

* **score** (:func:`check_determinism`) -- ``Perspector.score`` from
  fresh instances: a second baseline, the kernel cache off, fanned
  across ``workers=N`` processes of the process-wide spawn pool,
  disk-cold then disk-warm on the on-disk tier, the scorecard stored in
  and served back by that tier, and under an installed span tracer
  whose span tree must also validate;
* **search** (:func:`check_search_determinism`) -- ``SubsetSearch``
  through the same engine rows; its disk-warm run must compute no DTW
  pair, and ``lockstep=off`` fits every candidate's K-means sweep
  alone;
* **served** (:func:`check_served`) -- a real daemon over real HTTP
  must answer with ``repro score``'s bits and rendered bytes: cold,
  warm (kernel-cache hits move), to three concurrent sessions, and
  restarted over the warm disk tier (disk hits on its first request);
* **history** (:func:`check_history`) -- recording observes, never
  perturbs: recorder on vs off, an equal-digest CLI re-run that diffs
  to zero, and deterministic windowed trajectories.

:func:`check_all` runs the four over one temp directory and ends with a
leak check: no half-written tmp artifact may remain there. Run it as
``repro qa`` or ``python -m repro.qa.determinism`` (one command, one
set of options), or call a check with any suite or
:class:`~repro.core.matrix.CounterMatrix`.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile
import threading
from dataclasses import dataclass, replace

import numpy as np

from repro.service import protocol


def diff_scorecards(a, b):
    """Bit-level differences between two scorecards: every leaf their
    :func:`~repro.service.protocol.scorecard_record` disagree on;
    empty list means bit-identical."""
    return protocol.record_diff(protocol.scorecard_record(a),
                                protocol.scorecard_record(b))


def _search_record(result):
    """A :class:`~repro.engine.subset_eval.SubsetSearchResult` as the
    comparison sees it: its identity fields, then the
    :func:`~repro.service.protocol.subset_report_record` of its best
    and of every candidate report."""
    return {
        "suite": result.suite,
        "subset_size": result.subset_size,
        "method": result.method,
        "n_candidates": result.n_candidates,
        "best": protocol.subset_report_record(result.best),
        "reports": [protocol.subset_report_record(report)
                    for report in result.reports],
    }


def diff_search_results(a, b):
    """Bit-level differences between two
    :class:`~repro.engine.subset_eval.SubsetSearchResult` objects; empty
    list means bit-identical (including every candidate's report and
    which trend path each event took)."""
    return protocol.record_diff(_search_record(a), _search_record(b))


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of one check's table of rows.

    Attributes
    ----------
    name:
        What was checked: the result kind and its subject.
    seed:
        The seed every run of the check used.
    rows:
        ``(label, mismatches)`` per row, in run order; a row passes
        when its tuple of mismatches is empty.
    results:
        The baseline, then each row's result (``None`` for a row with
        nothing to diff), in run order.
    """

    name: str
    seed: int
    rows: tuple
    results: tuple

    @property
    def mismatches(self):
        """Every row's mismatches, each prefixed with its row label."""
        return tuple(f"[{label}] {m}" for label, found in self.rows
                     for m in found)

    @property
    def identical(self):
        return not self.mismatches

    def __str__(self):
        lines = []
        for label, found in self.rows:
            head = f"{self.name} [{label}]: "
            if not found:
                lines.append(head + "PASS")
                continue
            lines.append(head + f"FAIL -- {len(found)} mismatch(es)")
            lines.extend(f"  {m}" for m in found)
        return "\n".join(lines)


def _run_rows(name, seed, baseline, diff, rows):
    """The one loop every check runs. Each ``(label, run)`` row's
    ``run()`` returns ``(result, problems)``; the result (unless
    ``None``) is diffed against ``baseline`` with ``diff``, and the
    row's own ``problems`` are added."""
    outcomes, results = [], [baseline]
    for label, run in rows:
        result, problems = run()
        found = [] if result is None else list(diff(baseline, result))
        outcomes.append((label, tuple(found) + tuple(problems)))
        results.append(result)
    return DeterminismReport(name=name, seed=seed, rows=tuple(outcomes),
                             results=tuple(results))


def _engine_rows(run, workers, cache_dir, disk_warm=None):
    """The engine-invariance rows both result kinds share. ``run(**kw)``
    re-runs the subject from fresh state under engine options ``kw``;
    ``disk_warm``, when given, replaces the plain disk-warm row."""
    rows = [("baseline", lambda: (run(), ())),
            ("cache=off", lambda: (run(cache=False), ()))]
    if workers > 1:
        rows.append((f"workers={workers}",
                     lambda: (run(workers=workers), ())))
    if cache_dir is not None:
        rows.append(("disk-cold", lambda: (run(cache_dir=cache_dir), ())))
        rows.append(("disk-warm", disk_warm
                     or (lambda: (run(cache_dir=cache_dir), ()))))
    rows.append(("traced", lambda: _traced(run, workers)))
    return rows


def _traced(run, workers):
    """The traced row. Tracing must observe, never perturb: the subject
    runs under a fresh span tracer (fanned when ``workers > 1``, so
    worker spans ship back) and its span tree must be well-formed --
    every span closed, nested within its same-process parent, worker
    spans re-parented under their dispatching map-call span. The
    caller's own tracer (``repro qa --trace``) is restored afterwards."""
    from repro.obs import trace as obs_trace

    tracer = obs_trace.Tracer()
    previous = obs_trace.swap(tracer)
    try:
        result = run(**({"workers": workers} if workers > 1 else {}))
    finally:
        obs_trace.swap(previous)
    return result, [f"span tree: {problem}" for problem in
                    obs_trace.validate_spans(tracer.spans(),
                                             owner_pid=os.getpid())]


def check_determinism(suite_or_matrix, seed=0, focus="all",
                      session_factory=None, workers=1, cache_dir=None):
    """The score table: ``Perspector.score`` under one seed, diffed bit
    for bit against a baseline run.

    Every run builds a *fresh* Perspector (and, unless
    ``session_factory`` is given, a fresh default
    :class:`~repro.perf.session.PerfSession`), so no state leaks between
    runs -- the "two cold processes" setting a user hitting
    reproducibility bugs would be in. The rows: a second baseline; the
    kernel cache off; when ``workers > 1``, that many pool processes;
    when ``cache_dir`` is given, a disk-cold then a disk-warm run on
    the on-disk tier, and ``scorecard-tier``, the baseline stored as the
    tier's scorecard entry (what a disk-warm ``repro score`` prints
    from) and served back by a fresh tier; and ``traced``.

    Returns
    -------
    DeterminismReport
    """
    from repro.core.matrix import CounterMatrix
    from repro.core.perspector import Perspector, PerspectorConfig

    def run(**config_kwargs):
        session = None if session_factory is None else session_factory()
        perspector = Perspector(
            session=session,
            config=PerspectorConfig(seed=seed, **config_kwargs),
        )
        return perspector.score(suite_or_matrix, focus=focus)

    baseline = run()
    rows = _engine_rows(run, workers, cache_dir)
    if cache_dir is not None:
        rows.insert(-1, ("scorecard-tier", lambda: _served_from_scorecard_tier(
            baseline, cache_dir, seed)))
    if not isinstance(suite_or_matrix, CounterMatrix):
        rows.insert(-1, ("lru-stack=off", lambda: _without_lru_stack(run)))
    return _run_rows(f"score {baseline.suite_name!r}", seed, baseline,
                     diff_scorecards, rows)


def _without_lru_stack(run):
    """The subject re-simulated with the LRU stack pass switched off,
    for this row only: every cache stream takes the round kernel, and
    the scorecard must be the stack pass's bit for bit. If no stream
    would have taken the stack pass, the row compared the round kernel
    with itself, and says so."""
    from repro.uarch.cache import SetAssociativeCache

    stack_pays = SetAssociativeCache._stack_pays
    declined = []

    def rounds_only(cache, lines):
        declined.append(stack_pays(cache, lines))
        return False

    SetAssociativeCache._stack_pays = rounds_only
    try:
        result = run()
    finally:
        SetAssociativeCache._stack_pays = stack_pays
    return result, () if any(declined) else (
        "no cache stream would have taken the LRU stack pass",)


def _served_from_scorecard_tier(card, cache_dir, seed):
    """``card`` stored as a disk-tier scorecard entry, then read back
    by a fresh tier on the same directory (as a later ``repro score``
    process would)."""
    from repro.engine.cache import MISS, content_key
    from repro.engine.diskcache import DiskCache

    key = content_key("scorecard", card.suite_name, card.focus, seed)
    DiskCache(cache_dir).put(key, card)
    served = DiskCache(cache_dir).get(key)
    if served is MISS:
        return None, ("the stored scorecard was not served back",)
    return served, ()


def check_search_determinism(matrix, subset_size=4, n_candidates=8,
                             method="swap", seed=0, workers=1,
                             cache_dir=None):
    """The search table: ``SubsetSearch.search`` from fresh engines
    under one seed, through the engine rows of
    :func:`check_determinism`; the disk-warm run must also compute no
    DTW pair at all, and ``lockstep=off`` re-runs the search in blocks
    of one candidate, so every K-means sweep fits alone.

    Returns
    -------
    DeterminismReport
    """
    from repro.engine import Engine, SubsetSearch

    def run(**engine_kwargs):
        search = SubsetSearch(matrix, subset_size, seed=seed,
                              engine=Engine(**engine_kwargs))
        return search.search(n_candidates, method=method)

    def disk_warm():
        kwargs, counted = _pair_counting({"cache_dir": cache_dir})
        result = run(**kwargs)
        # Every full-suite kernel and every candidate report is on disk
        # by now: a missing or undecodable entry shows up here instead
        # of being silently recomputed.
        if not sum(counted):
            return result, ()
        return result, (f"computed {sum(counted)} DTW pair(s); a "
                        f"disk-warm search must read every kernel and "
                        f"candidate report back",)

    baseline, blocks = _lockstep_blocks(run)
    rows = _engine_rows(run, workers, cache_dir, disk_warm=disk_warm)
    rows.insert(-1, ("lockstep=off", lambda: _without_lockstep(run,
                                                               blocks)))
    return _run_rows(f"search {method!r} ({baseline.n_evaluated} "
                     f"candidates)", seed, baseline, diff_search_results,
                     rows)


def _lockstep_blocks(run):
    """``run()`` plus the candidate count of every
    :meth:`~repro.engine.Engine.kmeans_sweeps` call it made: the
    blocks whose K-means sweeps it fitted in lockstep."""
    from repro.engine import Engine

    sweeps, blocks = Engine.kmeans_sweeps, []

    def counted(engine, xs, kseeds, n_restarts):
        blocks.append(len(xs))
        return sweeps(engine, xs, kseeds, n_restarts)

    Engine.kmeans_sweeps = counted
    try:
        return run(), blocks
    finally:
        Engine.kmeans_sweeps = sweeps


def _without_lockstep(run, blocks):
    """The search re-run with blocks of one candidate
    (:data:`~repro.engine.subset_eval.BATCH_CANDIDATES` set to 1 for
    this row only): every candidate's ClusterScore sweep fits alone,
    one ``KMeans.fit`` per k, and the result must be the lockstep
    fits' bit for bit. If the lockstep run's ``blocks`` hold no block
    of at least two candidates, the row compared the one-candidate
    path with itself, and says so."""
    from repro.engine import subset_eval

    block = subset_eval.BATCH_CANDIDATES
    subset_eval.BATCH_CANDIDATES = 1
    try:
        result = run()
    finally:
        subset_eval.BATCH_CANDIDATES = block
    return result, () if max(blocks, default=0) >= 2 else (
        "no batch of two or more candidates was fitted in lockstep",)


def _pair_counting(engine_kwargs):
    """``engine_kwargs`` with a kernel record that records the size of
    every DTW pair batch it computes, plus that record (a list; empty
    while no pair was computed). Every DTW pair an engine computes at
    one worker goes through the engine's own record -- candidate work,
    the evaluator's full-suite matrices and trend scoring alike -- so
    a disk-warm search that recomputes any of them is caught."""
    import dataclasses

    from repro.stats.backend import kernels

    record = kernels()
    counted = []

    def pair_distances(arrays, idx_i, idx_j, band=None):
        counted.append(len(idx_i))
        return record.pair_distances(arrays, idx_i, idx_j, band)

    counting = dataclasses.replace(record, pair_distances=pair_distances)
    return dict(engine_kwargs, backend=counting), counted


def check_served(config, focus="all"):
    """The served table: a scoring daemon on an ephemeral port must
    serve what ``repro score nbench`` prints. The baseline is
    :func:`~repro.experiments.runner.score_suite` from a cold
    measurement memo; every served payload must diff clean against its
    :func:`~repro.service.protocol.scorecard_record` and carry its
    ``str()`` as ``rendered``. Rows: ``served`` (a cold
    daemon's first request), ``served-warm`` (a second request must
    move the kernel-cache hit counter), ``served-concurrent`` (three
    sessions at once, rendered bytes only) and ``served-restart`` (a
    daemon restarted over the warm disk tier must read it on its first
    request). Daemons run on ``config``, so the disk tier is
    ``config.cache_dir``.

    Returns
    -------
    DeterminismReport
    """
    from repro.experiments import runner
    from repro.service import ServiceClient, ServiceThread

    def diff(card, payload):
        found = protocol.record_diff(protocol.scorecard_record(card),
                                     payload)
        if payload["rendered"] != str(card):
            found.append(f"rendered text differs from the CLI: "
                         f"{payload['rendered']!r} != {str(card)!r}")
        return found

    daemon = contextlib.ExitStack()
    clients = []

    def boot():
        """Stop the running daemon, if any; start one from a cold
        process memo over the same disk tier."""
        daemon.close()
        runner.clear_cache()
        thread = daemon.enter_context(ServiceThread(config))
        clients.append(ServiceClient(host=thread.host, port=thread.port))
        return clients[-1]

    def counter(name):
        return clients[-1].metrics()["values"].get(name, 0)

    def served():
        return boot().score("nbench", focus=focus), ()

    def warm():
        before = counter("cache_hits")
        payload = clients[-1].score("nbench", focus=focus)
        moved = counter("cache_hits") - before
        return payload, () if moved > 0 else (
            f"a warm second request moved cache_hits by {moved}",)

    def concurrent():
        rendered = [None] * 3

        def session(i):
            rendered[i] = clients[-1].score("nbench", focus=focus)["rendered"]

        tenants = [threading.Thread(target=session, args=(i,))
                   for i in range(len(rendered))]
        for tenant in tenants:
            tenant.start()
        for tenant in tenants:
            tenant.join()
        return None, [f"session {i} got different bytes: {text!r}"
                      for i, text in enumerate(rendered)
                      if text != str(cli_card)]

    def restart():
        payload = boot().score("nbench", focus=focus)
        hits = counter("disk_hits")
        return payload, () if hits > 0 else (
            f"a daemon restarted over a warm disk tier read {hits} "
            f"disk-tier hits on its first request",)

    runner.clear_cache()
    cli_card, _metrics = runner.score_suite("nbench", config, focus)
    with daemon:
        return _run_rows("served 'nbench'", config.metric_seed, cli_card,
                         diff, [("served", served), ("served-warm", warm),
                                ("served-concurrent", concurrent),
                                ("served-restart", restart)])


def check_history(config, store_dir):
    """The history table: recording observes, never perturbs. The
    baseline scores parsec on ``config`` without a recorder. Rows:
    ``recorded`` (the same scoring with a recorder installed; the card
    it recorded must diff clean against the one it returned), ``rerun``
    (two ``repro --quick score parsec`` runs into the store at
    ``store_dir`` share a config digest, diff to zero drift and print
    identical bytes) and ``windows`` (two :func:`~repro.obs.history.window_trajectory`
    passes are identical, and the final window carries the
    evaluator's full-suite bits).

    Returns
    -------
    DeterminismReport
    """
    import io

    from repro.cli import main as cli_main
    from repro.engine import Engine, SubsetEvaluator
    from repro.experiments.runner import measure_suites, score_job
    from repro.obs.history import (
        HistoryRecorder,
        HistoryStore,
        diff_records,
        install_recorder,
        uninstall_recorder,
        window_trajectory,
    )

    matrix = measure_suites(["parsec"], config)["parsec"]

    def score():
        return score_job(config, {"suite": "parsec", "focus": "all"})

    def recorded():
        recorder = install_recorder(HistoryRecorder())
        try:
            card = score()
        finally:
            uninstall_recorder()
        if len(recorder.scorecards) != 1 or \
                recorder.metrics_snapshot is None:
            return card, ("the recorder did not capture exactly one "
                          "scorecard and a metrics snapshot",)
        return card, [f"recorded {mismatch}" for mismatch in
                      diff_scorecards(card, recorder.scorecards[0])]

    def rerun():
        argv = ["--quick", "score", "parsec", "--history-dir", store_dir]
        if config.cache_dir:
            argv += ["--cache-dir", config.cache_dir]
        problems, printed = [], []
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = cli_main(list(argv))
            if status != 0:
                problems.append(f"CLI exited {status}")
            printed.append(out.getvalue())
        if printed[0] != printed[1]:
            problems.append("printed scorecards differ between two "
                            "identical recorded runs")
        records = HistoryStore(store_dir).runs()
        if len(records) != 2:
            return None, problems + [f"store holds {len(records)} runs, "
                                     f"expected 2"]
        diff = diff_records(*records)
        if not diff.same_digest:
            problems.append("config digests differ across identical runs")
        problems.extend(f"drift: {d}" for d in diff.drift)
        return None, problems

    def windows():
        seed = config.metric_seed
        engine = Engine.from_config(config)
        first = window_trajectory(matrix, seed=seed, n_windows=3,
                                  engine=engine)
        second = window_trajectory(matrix, seed=seed, n_windows=3,
                                   engine=engine)
        evaluator = SubsetEvaluator(matrix, seed=seed, engine=engine)
        full = evaluator.evaluate(list(matrix.workloads))
        problems = []
        if protocol.record_diff(first, second):
            problems.append("two window_trajectory passes are not "
                            "bit-identical")
        last = first[-1]
        if last["workloads"] != len(matrix.workloads):
            problems.append(f"final window spans {last['workloads']} "
                            f"workloads, expected {len(matrix.workloads)}")
        full_bits = protocol.subset_report_record(full)["subset_score_bits"]
        if last["score_bits"] != full_bits:
            problems.append(f"final window bits {last['score_bits']} != "
                            f"full-suite evaluator bits {full_bits}")
        return None, problems

    return _run_rows("history 'parsec'", config.metric_seed, score(),
                     diff_scorecards, [("recorded", recorded),
                                       ("rerun", rerun),
                                       ("windows", windows)])


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


def check_all(seed=0, focus="all", full=False, workers=1):
    """Every table over one temp directory (the disk tier and the
    history store live under it), then the leak check over it: no
    half-written tmp artifact may remain. Yields each report as its
    check completes."""
    from repro.engine.diskcache import stale_artifacts
    from repro.experiments.runner import ExperimentConfig

    with tempfile.TemporaryDirectory(prefix="repro-qa-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        suite, factory = _default_subject(seed, quick=not full)
        yield check_determinism(suite, seed=seed, focus=focus,
                                session_factory=factory, workers=workers,
                                cache_dir=cache_dir)
        yield check_search_determinism(
            synthetic_matrix(seed=seed, n_workloads=10, n_events=3,
                             length=32),
            seed=seed, workers=workers, cache_dir=cache_dir,
        )
        preset = ExperimentConfig.full() if full else ExperimentConfig.quick()
        config = replace(preset, workers=workers, cache_dir=cache_dir)
        yield check_served(config, focus=focus)
        yield check_history(config, os.path.join(tmp, "history"))
        yield _run_rows("qa temp dir", seed, None, None, [(
            "leak check",
            lambda: (None, [f"stale tmp artifact: {path}"
                            for path in stale_artifacts(tmp)]),
        )])


def main(argv=None):
    """``python -m repro.qa.determinism ARGS`` is ``repro qa ARGS``: the
    same parser, bounds and trace flags."""
    from repro.cli import main as cli_main

    return cli_main(["qa", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
