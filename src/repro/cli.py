"""Command-line interface.

::

    perspector score <suite> [--focus all|llc|tlb] ...
    perspector compare <suite> <suite> ... [--focus ...]
    perspector subset <suite> --size 8 [--search N --method lhs|random|swap]
    perspector suites
    perspector experiment fig1|fig2|fig3|fig4|fig5|fig6|subset|mux|ablations
    perspector lint [--deep] [--format text|json] [paths ...]
    perspector analyze effects <symbol> [--root DIR]
    perspector qa [--seed N] [--workers N] [--full]
    perspector obs summary TRACE [--top N]
    perspector obs history [--history-dir DIR] [--digest PREFIX]
    perspector obs diff [RUN-A RUN-B] [--history-dir DIR]
    perspector obs check [--history-dir DIR] [--max-wall-pct PCT]
    perspector serve [--host H] [--port P] [--workers N ...]
    perspector client score <suite> [--host H] [--port P]

Scoring commands run the simulation stack end-to-end; ``--quick``
switches to the short-trace preset. ``score``, ``compare``, ``subset``
and ``experiment`` accept ``--workers N`` (fan scoring across a
persistent spawn worker pool), ``--no-cache`` (disable the engine's
kernel cache), ``--cache-dir DIR`` / ``$REPRO_CACHE_DIR`` (persist
measured suites and kernel results on disk, so repeat invocations
start warm); none of the three changes any output bit. ``lint`` runs
the project's static-analysis pass (:mod:`repro.qa.lint`); with
``--deep`` it adds the whole-program contract rules (cache-purity,
pool-safety, backend-purity -- :mod:`repro.qa.flow`) and ``--format
json`` emits findings machine-readably for CI. ``analyze effects``
prints a function's inferred effect set with the justifying call
chains. ``qa`` runs the bit-for-bit determinism harness
(:mod:`repro.qa.determinism`): engine, served and history rows. The
``repro`` console script is an alias of this one, so ``repro lint
src/repro`` works as documented.

Every subcommand also accepts ``--trace FILE`` / ``--trace-format
{jsonl,chrome}`` (default: ``$REPRO_TRACE`` if set): the run executes
under a span tracer (:mod:`repro.obs`) and writes the span log plus a
run manifest (``FILE.manifest.json``) on exit. Tracing never changes
an output bit -- ``repro qa`` checks that. ``repro obs summary FILE``
renders a JSONL trace as a human report (top spans by self time,
cache-tier hit rates, pool utilization).

Scoring subcommands also accept ``--history-dir DIR`` /
``$REPRO_HISTORY``: each run appends a record -- the full scorecard in
the bit-exact wire encoding, the metrics snapshot, per-span self-time
totals and the run manifest, keyed by config digest -- to the
longitudinal history store (:mod:`repro.obs.history`). ``repro obs
history`` lists the stored trajectories, ``repro obs diff`` diffs two
runs at the IEEE-754 bit level (drift under an equal digest is a
determinism regression), and ``repro obs check`` gates a trajectory on
score drift and perf regressions. Recording never changes an output
bit either -- ``repro qa`` checks that too. A failed append is one
``history append failed`` line after the report, exit 2.

``score``, ``compare`` and ``subset`` adapt arguments in and text out;
the request vocabulary, its checks and the jobs live in
:mod:`repro.experiments.runner`, the recorder in
:func:`repro.obs.history.record_run`, both shared with the daemon. A
request that fails a check is one ``repro <cmd>: ...`` line, exit 2,
before anything is measured.

``serve`` runs the scoring daemon (:mod:`repro.service`): one shared
engine -- persistent pool, kernel cache, disk tier -- kept hot across
HTTP requests, with ``score``/``compare``/``subset`` as endpoints and
a live metrics snapshot at ``GET /v1/metrics``. ``client`` is the
matching blocking client, declaring the same request arguments;
``repro client score <suite>`` prints byte-for-byte what ``repro score
<suite>`` prints (the served rows of ``repro qa`` enforce that at the
IEEE-754 bit level).

Report tables go to stdout; status lines (``wrote ...``) go to stderr,
so piping a report into a file never interleaves progress chatter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

# Neither these modules nor the lazy package inits they sit under import
# numpy or the simulator; every import that does lives in the handler
# that needs it, so a disk-warm ``repro score`` imports neither.
from repro.experiments.runner import (
    FOCUS_VALUES,
    REQUESTS,
    SEARCH_METHODS,
    ExperimentConfig,
    RequestError,
    check_request,
    compare_job,
    score_job,
    score_suite,
    subset_job,
)
from repro.obs.history import (
    MAX_HIT_RATE_DROP,
    MAX_WALL_REGRESSION_PCT,
    publish,
    record_run,
)
from repro.obs.trace import span
from repro.workloads import available_suites

_EXPERIMENTS = {
    "fig1": "repro.experiments.fig1_normalization",
    "fig2": "repro.experiments.fig2_coverage_vs_spread",
    "fig3": "repro.experiments.fig3_suite_scores",
    "fig4": "repro.experiments.fig4_clustering",
    "fig5": "repro.experiments.fig5_trend",
    "fig6": "repro.experiments.fig6_pca_coverage",
    "subset": "repro.experiments.subset_generation",
    "mux": "repro.experiments.multiplexing",
    "ablations": "repro.experiments.ablations",
    "machine": "repro.experiments.machine_ablations",
    "stability": "repro.experiments.stability",
}


def _bounded(kind, lo, hi=None, above=False):
    """argparse ``type``: an int or finite float that is ``>= lo``
    (``> lo`` with ``above``) and ``<= hi`` when given (else exit 2)."""
    if above:
        bound = f"> {lo}"
    elif hi is None:
        bound = f">= {lo}"
    else:
        bound = f"in [{lo}, {hi}]"

    def parse(text):
        value = kind(text)
        # Written so NaN fails every comparison and is rejected.
        ok = (value > lo if above else value >= lo) and value < math.inf
        if not ok or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    # argparse names the type in "invalid int value" / "invalid float value".
    parse.__name__ = kind.__name__
    return parse


def _config(args, default_preset=ExperimentConfig.full):
    config = (ExperimentConfig.quick() if args.quick
              else default_preset())
    return replace(
        config,
        workers=getattr(args, "workers", 1),
        cache=not getattr(args, "no_cache", False),
        cache_dir=getattr(args, "cache_dir", None),
        history_dir=getattr(args, "history_dir", None),
    )


def _cmd_suites(args):
    for name in available_suites():
        print(name)
    return 0


def _request(args, command):
    """The ``command`` request ``args`` carries (:data:`REQUESTS`),
    plus ``history_windows`` when ``repro score`` asks for it."""
    request = {name: getattr(args, name) for name in REQUESTS[command]}
    if getattr(args, "history_windows", 0):
        request["history_windows"] = args.history_windows
    return request


def _checked_request(args):
    request = _request(args, args.command)
    check_request(args.command, request, flag=lambda name: f"--{name}")
    return request


def _cmd_score(args):
    if args.history_windows and not args.history_dir:
        # The trajectory is only ever published to a history store;
        # without one it would be computed and thrown away.
        raise RequestError("--history-windows needs a history store "
                           "(pass --history-dir or set $REPRO_HISTORY)")
    request, config = _checked_request(args), _config(args)
    if args.history_windows:
        card = score_job(config, request)
    else:
        card, metrics = score_suite(args.suite, config, args.focus)
        publish("scorecard", card)
        publish("metrics", metrics)
    print(card)
    return 0


def _cmd_compare(args):
    comparison = compare_job(_config(args), _checked_request(args))
    print(comparison.table())
    if args.bars:
        for score in ("cluster", "trend", "coverage", "spread"):
            print()
            print(comparison.bars(score))
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(comparison.to_csv())
        # Status goes to stderr: stdout carries only the report tables,
        # so redirecting them to a file stays clean.
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_subset(args):
    _kind, result = subset_job(_config(args), _checked_request(args))
    print(result)
    return 0


def _cmd_lint(args):
    from repro.qa.lint import lint_contexts, read_sources
    from repro.qa.rules import default_rules

    if args.list_rules:
        from repro.qa.flow.deeprules import DEEP_RULES

        for rule in default_rules():
            print(f"{rule.rule_id:<18} {rule.description}")
        for deep_rule in DEEP_RULES:
            print(f"{deep_rule.rule_id:<18} [deep] "
                  f"{deep_rule.description}")
        return 0

    paths = args.paths or ["src/repro"]
    try:
        # One parse per file: the deep pass reuses these contexts.
        contexts = read_sources(paths)
        findings = lint_contexts(contexts)
        if args.deep:
            from repro.qa.flow.analyze import deep_findings

            findings = sorted(findings + deep_findings(paths, contexts))
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args):
    from repro.qa.flow.analyze import effects_report

    try:
        report = effects_report(args.symbol, root=args.root)
    except LookupError as exc:
        print(f"repro analyze: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _cmd_qa(args):
    from repro.qa.determinism import check_all

    ok = True
    for report in check_all(seed=args.seed, focus=args.focus,
                            full=args.full, workers=args.workers):
        print(report, flush=True)
        ok = ok and report.identical
    return 0 if ok else 1


def _cmd_serve(args):
    from repro.service import ScoringService

    config = _config(args)
    service = ScoringService(config, host=args.host, port=args.port)
    return service.run()


def _cmd_client(args):
    import json

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port,
                           timeout=args.timeout,
                           connect_timeout=args.connect_timeout,
                           retries=args.retries)
    command = args.client_command
    call = getattr(client, command)
    try:
        if command in REQUESTS:
            print(call(**_request(args, command))["rendered"])
        elif command == "shutdown":
            call()
            print(f"asked {args.host}:{args.port} to shut down",
                  file=sys.stderr)
        else:  # metrics, health, history
            print(json.dumps(call(), indent=2, sort_keys=True))
    except ServiceError as exc:
        print(f"repro client: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro client: cannot reach {args.host}:{args.port} "
              f"({exc})", file=sys.stderr)
        return 2
    return 0


#: Drivers that default to the quick preset when run without --quick
#: (their full-preset runtime is prohibitive for an interactive CLI).
_QUICK_BY_DEFAULT = {"stability"}

#: Drivers whose run() takes no ExperimentConfig at all.
_NO_CONFIG = {"fig2", "mux", "machine"}


def _experiment_config(args):
    return _config(args, default_preset=(
        ExperimentConfig.quick if args.name in _QUICK_BY_DEFAULT
        else ExperimentConfig.full))


def _cmd_experiment(args):
    import importlib

    module = importlib.import_module(_EXPERIMENTS[args.name])
    kwargs = ({} if args.name in _NO_CONFIG
              else {"config": _experiment_config(args)})
    rendered = module.render(module.run(**kwargs))
    # Experiment drivers return rendered artifacts, not scorecard
    # objects; the history record keys on the rendered text's digest.
    publish("rendered", rendered)
    print(rendered)
    return 0


def _cmd_obs(args):
    if args.obs_command == "summary":
        return _cmd_obs_summary(args)
    if args.obs_command == "history":
        return _cmd_obs_history(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    return _cmd_obs_check(args)


def _cmd_obs_summary(args):
    from repro.obs import summarize_file

    try:
        report = summarize_file(args.trace_path, top=args.top)
    except (OSError, ValueError) as exc:
        # One pointed line and exit code 2, never a traceback: corrupt
        # or truncated traces are an expected operational condition.
        print(f"repro obs summary: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _require_history_dir(args):
    if not args.history_dir:
        print("repro obs: no history directory (pass --history-dir or "
              "set $REPRO_HISTORY)", file=sys.stderr)
        return None
    from repro.obs import HistoryStore

    return HistoryStore(args.history_dir)


def _cmd_obs_history(args):
    from repro.obs import render_history

    store = _require_history_dir(args)
    if store is None:
        return 2
    print(render_history(store, digest=args.digest))
    return 0


def _cmd_obs_diff(args):
    from repro.obs import diff_records, render_diff

    store = _require_history_dir(args)
    if store is None:
        return 2
    if len(args.runs) not in (0, 2):
        print("repro obs diff: pass exactly two run ids, or none to "
              "diff the two most recent runs", file=sys.stderr)
        return 2
    try:
        if args.runs:
            record_a = store.load(args.runs[0])
            record_b = store.load(args.runs[1])
        else:
            run_ids = store.run_ids()
            if len(run_ids) < 2:
                print(f"repro obs diff: need at least 2 recorded runs "
                      f"in {store.root}, found {len(run_ids)}",
                      file=sys.stderr)
                return 2
            record_a = store.load(run_ids[-2])
            record_b = store.load(run_ids[-1])
    except (KeyError, OSError, ValueError) as exc:
        print(f"repro obs diff: {exc}", file=sys.stderr)
        return 2
    diff = diff_records(record_a, record_b)
    print(render_diff(diff))
    # Drift under an equal config digest is a determinism regression
    # and fails the command; across different digests it is expected.
    return 1 if (diff.same_digest and not diff.clean) else 0


def _cmd_obs_check(args):
    from repro.obs.history import by_digest, check_trajectories, \
        skipped_notes

    store = _require_history_dir(args)
    if store is None:
        return 2
    records, skipped = store.scan()
    trajectories = by_digest(records)
    findings = check_trajectories(
        trajectories, digest=args.digest,
        max_wall_pct=(None if args.max_wall_pct < 0
                      else args.max_wall_pct),
        max_hit_drop=(None if args.max_hit_drop < 0
                      else args.max_hit_drop),
    )
    for note in skipped_notes(skipped):
        print(note)
    if findings:
        for finding in findings:
            print(finding)
        print(f"history check: FAIL ({len(findings)} finding(s) across "
              f"{len(trajectories)} trajectory(ies))", file=sys.stderr)
        return 1
    print(f"history check: ok ({len(records)} run(s), "
          f"{len(trajectories)} trajectory(ies), no score drift, no "
          f"perf regressions)")
    return 0


def _add_trace_flags(p):
    """Span-tracing knobs, shared by every subcommand. Tracing never
    changes any output bit (``repro qa`` enforces that)."""
    p.add_argument(
        "--trace", metavar="FILE",
        default=os.environ.get("REPRO_TRACE") or None,
        help="run under a span tracer and write the span log to FILE "
             "on exit, plus a run manifest to FILE.manifest.json "
             "(default: $REPRO_TRACE if set, else tracing off; outputs "
             "are bit-identical either way)",
    )
    p.add_argument(
        "--trace-format", choices=["jsonl", "chrome"], default="jsonl",
        help="span-log format: one JSON record per line (readable by "
             "'obs summary') or Chrome trace-event JSON for "
             "chrome://tracing (default: jsonl)",
    )


def _add_engine_flags(p):
    """Scoring-engine knobs shared by every scoring subcommand. None of
    these flags changes any output bit; they only trade speed for
    resources."""
    p.add_argument(
        "--workers", type=_bounded(int, 1), default=1, metavar="N",
        help="worker processes for the scoring engine's parallel "
             "fan-out (default 1 = serial; results are bit-identical "
             "for any value)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the engine's content-addressed kernel cache "
             "(results are bit-identical either way)",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR",
        default=os.environ.get("REPRO_CACHE_DIR") or None,
        help="directory for the engine's on-disk cache tier: measured "
             "suites and kernel results persist there under "
             "content-addressed keys, so repeat invocations start warm "
             "(default: $REPRO_CACHE_DIR if set, else memory-only; "
             "results are bit-identical either way)",
    )
    p.add_argument(
        "--history-dir", metavar="DIR",
        default=os.environ.get("REPRO_HISTORY") or None,
        help="append this run's scorecard (bit-exact wire encoding), "
             "metrics snapshot, self-time totals and manifest to the "
             "longitudinal run-history store in DIR, keyed by config "
             "digest; inspect with 'repro obs history/diff/check' "
             "(default: $REPRO_HISTORY if set, else no recording; "
             "outputs are bit-identical either way)",
    )


def _add_request_args(p, command):
    """Declare one scoring command's request arguments
    (:data:`REQUESTS`): ``repro CMD`` and ``repro client CMD`` share
    them."""
    defaults = REQUESTS[command]
    if command == "compare":
        p.add_argument("suites", nargs="+", choices=available_suites())
    else:
        p.add_argument("suite", choices=available_suites())
    if "focus" in defaults:
        p.add_argument("--focus", default=defaults["focus"],
                       choices=FOCUS_VALUES)
    if command != "subset":
        return
    p.add_argument("--size", type=_bounded(int, 2), default=defaults["size"])
    p.add_argument(
        "--search", type=_bounded(int, 1), default=defaults["search"],
        metavar="N",
        help="evaluate up to N candidate subsets through the sliced "
             "evaluator (precomputes the full-suite kernels once) and "
             "report the lowest-mean-deviation one, instead of the "
             "single LHS subset",
    )
    p.add_argument(
        "--method", default=defaults["method"], choices=SEARCH_METHODS,
        help="candidate generation for --search: N maximin-LHS designs, "
             "N uniform draws, or a baseline-seeded greedy swap local "
             "search (default: lhs)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="perspector",
        description="Benchmark benchmark suites (DATE 2023 reproduction).",
    )
    parser.add_argument("--quick", action="store_true",
                        help="short-trace preset (fast, noisier)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_suites = sub.add_parser("suites", help="list modelled suites")
    _add_trace_flags(p_suites)

    p_score = sub.add_parser("score", help="score one suite")
    _add_request_args(p_score, "score")
    p_score.add_argument(
        "--history-windows", type=_bounded(int, 0), default=0, metavar="N",
        help="with --history-dir: also record an N-point windowed "
             "trajectory inside this run -- cumulative prefixes of the "
             "suite's interval-sampled counter windows scored "
             "incrementally through the precompute-and-slice evaluator "
             "(default 0 = off; the printed scorecard is bit-identical "
             "either way)",
    )
    _add_engine_flags(p_score)
    _add_trace_flags(p_score)

    p_cmp = sub.add_parser("compare", help="compare suites jointly")
    _add_request_args(p_cmp, "compare")
    p_cmp.add_argument("--csv", metavar="PATH",
                       help="also write the comparison as CSV")
    p_cmp.add_argument("--bars", action="store_true",
                       help="print bar panels per score")
    _add_engine_flags(p_cmp)
    _add_trace_flags(p_cmp)

    p_sub = sub.add_parser(
        "subset", help="LHS subset generation / multi-candidate search"
    )
    _add_request_args(p_sub, "subset")
    _add_engine_flags(p_sub)
    _add_trace_flags(p_sub)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    _add_engine_flags(p_exp)
    _add_trace_flags(p_exp)

    p_lint = sub.add_parser(
        "lint", help="run the QA static-analysis pass over the tree",
        description="Project-specific numerical static-analysis pass.",
        epilog=(
            "--deep additionally runs the whole-program effect analyzer "
            "(repro.qa.flow): cache-purity, pool-safety and backend-purity "
            "are proven over the cross-module call graph, with findings "
            "carrying the justifying call chain. Every run parses the "
            "package fresh; nothing is cached."
        ),
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories (default: src/repro)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    p_lint.add_argument(
        "--deep", action="store_true",
        help="also run the whole-program effect analyzer: cache-purity, "
             "pool-safety and backend-purity proven over the cross-module "
             "call graph, parsed fresh on every run",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format",
        help="findings as diagnostics lines (default) or a JSON array "
             "for CI",
    )
    _add_trace_flags(p_lint)

    p_ana = sub.add_parser(
        "analyze", help="whole-program effect analysis queries"
    )
    ana_sub = p_ana.add_subparsers(dest="analyze_command", required=True)
    p_eff = ana_sub.add_parser(
        "effects",
        help="print a function's inferred effect set with one "
             "justifying call chain per effect",
    )
    p_eff.add_argument(
        "symbol",
        help="fully-qualified function (repro.engine.engine.Engine."
             "dtw_matrix) or a unique suffix (Engine.dtw_matrix)",
    )
    p_eff.add_argument(
        "--root", default="src/repro", metavar="DIR",
        help="project root to index (default: src/repro)",
    )
    _add_trace_flags(p_ana)

    p_qa = sub.add_parser(
        "qa", help="bit-for-bit determinism check of the scoring pipeline"
    )
    p_qa.add_argument("--seed", type=int, default=0)
    p_qa.add_argument("--focus", default="all", choices=FOCUS_VALUES)
    p_qa.add_argument("--full", action="store_true",
                      help="full-length traces (slower)")
    p_qa.add_argument(
        "--workers", type=_bounded(int, 1), default=1, metavar="N",
        help="also check engine invariance at this worker count, and "
             "run the served rows' daemon at it (every result must be "
             "bit-identical to the serial path)",
    )
    _add_trace_flags(p_qa)

    p_rep = sub.add_parser(
        "report", help="full suite report (scores + characterization)"
    )
    p_rep.add_argument("suite", help="suite name or path to a JSON spec")
    _add_trace_flags(p_rep)

    p_obs = sub.add_parser(
        "obs", help="observability utilities (span traces, run history)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_sum = obs_sub.add_parser(
        "summary",
        help="render a JSONL span trace as a human report: top spans "
             "by self time, cache-tier hit rates, pool utilization",
    )
    # dest is trace_path, not trace: main() keys "run under a tracer"
    # off args.trace, and summarizing a trace must not be traced.
    p_sum.add_argument("trace_path", metavar="TRACE",
                       help="JSONL trace file (from --trace)")
    p_sum.add_argument("--top", type=_bounded(int, 1), default=15,
                       metavar="N",
                       help="how many span names to rank by self time "
                            "(default 15)")

    def _history_store_flags(p):
        # dest is history_dir, matching the scoring subcommands' flag,
        # so $REPRO_HISTORY points both the writers and the readers at
        # the same store.
        p.add_argument(
            "--history-dir", metavar="DIR",
            default=os.environ.get("REPRO_HISTORY") or None,
            help="run-history store directory (default: $REPRO_HISTORY)",
        )

    p_hist = obs_sub.add_parser(
        "history",
        help="list recorded run trajectories grouped by config digest, "
             "with per-score sparkline-style drift strips ('*' first "
             "run, '=' bit-equal to the previous run, '!' drift)",
    )
    _history_store_flags(p_hist)
    p_hist.add_argument(
        "--digest", metavar="PREFIX", default=None,
        help="only trajectories whose config digest starts with PREFIX",
    )

    p_hdiff = obs_sub.add_parser(
        "diff",
        help="bit-exact diff of two recorded runs via their IEEE-754 "
             "hex bit patterns: under an equal config digest any "
             "changed bit is a determinism regression (exit 1); perf "
             "metrics (wall time, hit rates) diff as tolerance deltas",
    )
    _history_store_flags(p_hdiff)
    p_hdiff.add_argument(
        "runs", nargs="*", metavar="RUN",
        help="two run ids (full, unique prefix, or bare sequence "
             "number); omit both to diff the two most recent runs",
    )

    p_hcheck = obs_sub.add_parser(
        "check",
        help="scan recorded trajectories and exit nonzero on score "
             "drift (always fatal under an equal digest) or perf "
             "regressions beyond the thresholds",
    )
    _history_store_flags(p_hcheck)
    p_hcheck.add_argument(
        "--digest", metavar="PREFIX", default=None,
        help="only check trajectories whose config digest starts with "
             "PREFIX",
    )
    p_hcheck.add_argument(
        "--max-wall-pct", type=float, default=MAX_WALL_REGRESSION_PCT,
        metavar="PCT",
        help=f"flag a run slower than the best earlier run of its "
             f"trajectory by more than PCT percent (default "
             f"{MAX_WALL_REGRESSION_PCT:g}; negative disables)",
    )
    p_hcheck.add_argument(
        "--max-hit-drop", type=float, default=MAX_HIT_RATE_DROP,
        metavar="FRAC",
        help=f"flag a cache hit rate more than FRAC (absolute) below "
             f"the best earlier rate (default {MAX_HIT_RATE_DROP:g}; "
             f"negative disables)",
    )

    from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT

    p_serve = sub.add_parser(
        "serve",
        help="run the scoring daemon: one shared warm engine "
             "(persistent pool, kernel cache, disk tier) behind an "
             "HTTP/JSON API (POST /v1/score|compare|subset, "
             "GET /v1/metrics|health|history, POST /v1/shutdown)",
    )
    p_serve.add_argument("--host", default=DEFAULT_HOST,
                         help=f"bind address (default {DEFAULT_HOST})")
    p_serve.add_argument("--port", type=_bounded(int, 0, 65535),
                         default=DEFAULT_PORT,
                         help=f"bind port; 0 picks an ephemeral one "
                              f"(default {DEFAULT_PORT})")
    _add_engine_flags(p_serve)
    _add_trace_flags(p_serve)

    p_client = sub.add_parser(
        "client", help="talk to a running scoring daemon"
    )
    client_sub = p_client.add_subparsers(dest="client_command",
                                         required=True)

    def _client_parser(name, help_text):
        p = client_sub.add_parser(name, help=help_text)
        p.add_argument("--host", default=DEFAULT_HOST)
        p.add_argument("--port", type=_bounded(int, 0, 65535),
                       default=DEFAULT_PORT)
        p.add_argument("--timeout", type=_bounded(float, 0, above=True),
                       default=600.0, metavar="SECONDS",
                       help="read timeout per request (default 600)")
        p.add_argument("--connect-timeout",
                       type=_bounded(float, 0, above=True), default=10.0,
                       metavar="SECONDS",
                       help="TCP connect timeout (default 10; an "
                            "unreachable daemon fails fast instead of "
                            "hanging for the full read timeout)")
        p.add_argument("--retries", type=_bounded(int, 0), default=2,
                       metavar="N",
                       help="extra attempts after a connection failure, "
                            "with exponential backoff (default 2; HTTP "
                            "errors are never retried)")
        return p

    for command, help_text in (
        ("score", "score one suite on the daemon; prints byte-for-byte "
                  "what 'repro score' prints"),
        ("compare", "compare suites on the daemon"),
        ("subset", "subset generation/search on the daemon"),
    ):
        _add_request_args(_client_parser(command, help_text), command)
    _client_parser("metrics", "live engine metrics snapshot (JSON)")
    _client_parser("health", "daemon liveness + configuration + uptime "
                             "and per-endpoint request counts (JSON)")
    _client_parser("history", "the daemon's recorded-run summaries "
                              "(JSON; requires the daemon to run with "
                              "--history-dir)")
    _client_parser("shutdown", "graceful drain-and-stop")
    _add_trace_flags(p_client)

    return parser


def _cmd_report(args):
    from repro.perf.report import build_report, render_report
    from repro.workloads import load_suite as load_builtin

    config = _config(args)
    if args.suite in available_suites():
        suite = load_builtin(args.suite)
    else:
        from repro.workloads.custom import suite_from_json

        try:
            suite = suite_from_json(args.suite)
        except (OSError, ValueError) as exc:
            # A bad path, bad JSON or a malformed spec: one line, exit 2.
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
    report = build_report(suite, config.session(),
                          metric_seed=config.metric_seed)
    print(render_report(report))
    return 0


#: Subcommands whose runs the history store records.
_HISTORY_COMMANDS = {"score", "compare", "subset", "experiment"}


def _run_config(args):
    """``(config, request)`` of one run, digested into its manifest
    with the command (:func:`repro.obs.history.record_run`): a scoring
    run's resolved :class:`ExperimentConfig` and request, the same
    mapping the daemon digests; any other run's parsed arguments."""
    if args.command in REQUESTS:
        return _config(args), _request(args, args.command)
    if args.command == "experiment":
        return _experiment_config(args), {"name": args.name}
    return None, vars(args)


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "suites": _cmd_suites,
        "score": _cmd_score,
        "compare": _cmd_compare,
        "subset": _cmd_subset,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "lint": _cmd_lint,
        "analyze": _cmd_analyze,
        "qa": _cmd_qa,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }
    handler = handlers[args.command]
    history_dir = (getattr(args, "history_dir", None)
                   if args.command in _HISTORY_COMMANDS else None)
    trace = getattr(args, "trace", None)

    def job():
        with span(f"cli.{args.command}"):
            return handler(args)

    try:
        if not (history_dir or trace):
            return handler(args)
        config, request = _run_config(args)
        status, path, error = record_run(
            args.command, config, request, job, history_dir=history_dir,
            trace=trace, trace_format=args.trace_format,
            argv=sys.argv[1:] if argv is None else argv,
        )
    except RequestError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    if error is not None:
        # The report is already out; only the record is missing.
        print(f"repro {args.command}: history append failed: {error}",
              file=sys.stderr)
        return 2
    if path is not None:
        run_id = os.path.splitext(os.path.basename(path))[0]
        print(f"recorded run {run_id.rsplit('-', 1)[1]} to {path}",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
