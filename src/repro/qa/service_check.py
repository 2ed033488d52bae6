"""Service determinism check: the daemon must serve the CLI's bits.

The scoring daemon (:mod:`repro.service`) exists to keep the warm
substrate alive across requests; it is only trustworthy if serving
changes nothing. This checker drives a real daemon over real HTTP (an
in-process :class:`~repro.service.app.ServiceThread` on an ephemeral
port) and enforces four claims:

1. **Bit-identity** -- a scorecard served by ``POST /v1/score`` equals
   the one-shot CLI scoring path bit-for-bit: every score, every
   ``per_k``/``per_event``/``per_item`` decomposition value and the
   coverage component variances, compared through
   :func:`repro.qa.determinism.diff_scorecards`; and the ``rendered``
   text equals ``str()`` of the CLI scorecard byte-for-byte.
2. **Warmth** -- a second identical request moves the shared engine's
   in-memory kernel-cache hit counter in ``GET /v1/metrics``, and a
   daemon restarted cold against the same ``--cache-dir`` serves its
   first request with nonzero disk-tier hits. The caches are shared:
   concurrent sessions all receive identical bytes.
3. **Graceful shutdown** -- ``POST /v1/shutdown`` drains and stops;
   afterwards no ``*.tmp`` write orphan survives in the cache
   directory.
4. **Protocol round-trip** -- the bit patterns on the wire decode back
   to the floats that produced them (checked implicitly by 1).

Run as ``python -m repro.qa.service_check`` (the ``make serve-smoke``
target) or via ``repro qa --serve``.
"""

from __future__ import annotations

import argparse
import sys
import threading
from dataclasses import replace


def _cli_scorecard(suite, focus, config):
    """The one-shot CLI arm: exactly what ``repro score`` computes
    (measure through the runner, score through a fresh engine), with
    the engine explicitly closed like the CLI process exiting."""
    from repro.engine import Engine
    from repro.experiments.runner import measure_suites, perspector_for

    matrix = measure_suites([suite], config)[suite]
    engine = Engine.from_config(config)
    try:
        return perspector_for(config, engine=engine).score(matrix,
                                                           focus=focus)
    finally:
        engine.close()


def _served_session(config, suite, focus, cli_card, label, failures,
                    expect_disk_hits):
    """Boot one daemon, run the request sequence against it, shut it
    down; append failure strings to ``failures``."""
    from repro.qa.determinism import diff_scorecards
    from repro.service import ServiceClient, ServiceThread

    thread = ServiceThread(config).start()
    client = ServiceClient(host=thread.host, port=thread.port)
    try:
        # Request 1 (daemon-cold): bit-identity against the CLI arm.
        first = client.score_card(suite, focus=focus)
        failures.extend(
            f"[{label}:request-1] {m}"
            for m in diff_scorecards(cli_card, first)
        )
        if first.rendered != str(cli_card):
            failures.append(
                f"[{label}:request-1] rendered text differs from the "
                f"CLI: {first.rendered!r} != {str(cli_card)!r}"
            )
        if expect_disk_hits:
            values = client.metrics()["values"]
            if values.get("disk_hits", 0) <= 0:
                failures.append(
                    f"[{label}:request-1] expected nonzero disk-tier "
                    f"hits on a cold daemon over a warm --cache-dir; "
                    f"got {values.get('disk_hits', 0)}"
                )
        # Request 2 (daemon-warm): identical bits, nonzero in-memory
        # kernel-cache hits for the movement between the two requests.
        before = client.metrics()["values"]
        second = client.score_card(suite, focus=focus)
        after = client.metrics()["values"]
        failures.extend(
            f"[{label}:request-2] {m}"
            for m in diff_scorecards(cli_card, second)
        )
        warm_hits = (after.get("cache_hits", 0)
                     - before.get("cache_hits", 0))
        if warm_hits <= 0:
            failures.append(
                f"[{label}:request-2] expected nonzero kernel-cache "
                f"hits on the warm second request; counter moved by "
                f"{warm_hits}"
            )
        # Concurrent sessions: every tenant gets the same bytes.
        outcomes = [None] * 3

        def _one(i):
            try:
                outcomes[i] = client.score(suite, focus=focus)["rendered"]
            except Exception as exc:  # qa-ignore[overbroad-except]
                # Collected and reported below; a worker thread must
                # not die silently.
                outcomes[i] = exc
        tenants = [threading.Thread(target=_one, args=(i,))
                   for i in range(len(outcomes))]
        for t in tenants:
            t.start()
        for t in tenants:
            t.join()
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                failures.append(f"[{label}:concurrent] session {i} "
                                f"failed: {outcome!r}")
            elif outcome != str(cli_card):
                failures.append(f"[{label}:concurrent] session {i} got "
                                f"different bytes: {outcome!r}")
    finally:
        try:
            client.shutdown()
        except Exception as exc:  # qa-ignore[overbroad-except]
            # Shutdown failure is itself a finding, not a crash.
            failures.append(f"[{label}:shutdown] {exc!r}")
        thread.join()


def check_service(suite="nbench", focus="all", workers=1, cache_dir=None,
                  quick=True):
    """Run the full service-vs-CLI check; returns a list of failure
    strings (empty = PASS)."""
    from repro.engine.diskcache import stale_artifacts
    from repro.experiments import runner
    from repro.experiments.runner import ExperimentConfig

    preset = (ExperimentConfig.quick if quick
              else ExperimentConfig.full)()
    config = replace(preset, workers=workers, cache_dir=cache_dir)
    failures = []

    # CLI arm first, from a cold measurement memo -- the bits every
    # served response must reproduce.
    runner.clear_cache()
    cli_card = _cli_scorecard(suite, focus, config)

    # Session 1: daemon from a cold process-state (memo cleared), warm
    # across its own requests.
    runner.clear_cache()
    _served_session(config, suite, focus, cli_card, "serve", failures,
                    expect_disk_hits=False)

    # Session 2 (only with a disk tier): a *restarted* daemon, cold
    # in memory but warm on disk -- its first request must be served
    # with disk-tier hits and still carry identical bits.
    if cache_dir is not None:
        runner.clear_cache()
        _served_session(config, suite, focus, cli_card,
                        "serve-restart", failures, expect_disk_hits=True)

    # Leak check: the daemons were closed; no write orphan may survive.
    if cache_dir is not None:
        stale = stale_artifacts(cache_dir)
        if stale:
            failures.append(f"stale disk-cache tmp artifact(s) after "
                            f"shutdown: {sorted(stale)}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa.service_check",
        description="Serve-smoke: boot the scoring daemon, score over "
                    "HTTP, diff against the one-shot CLI bit-for-bit, "
                    "verify warm-cache counters, shut down leak-free.",
    )
    parser.add_argument("--suite", default="nbench",
                        help="suite to score (default: nbench)")
    parser.add_argument("--focus", default="all",
                        choices=["all", "llc", "tlb", "branch", "core"])
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="daemon engine worker processes "
                             "(default 2, exercising the shared pool)")
    parser.add_argument("--full", action="store_true",
                        help="full-length traces (slower; default is "
                             "the quick preset)")
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        failures = check_service(
            suite=args.suite, focus=args.focus, workers=args.workers,
            cache_dir=tmp, quick=not args.full,
        )
    head = (f"service determinism check (suite={args.suite!r}, "
            f"focus={args.focus!r}, workers={args.workers}): ")
    if not failures:
        print(head + "PASS -- served scorecards bit-identical to the "
                     "one-shot CLI (cold, warm, restarted-from-disk, "
                     "concurrent); warm cache counters moved; shutdown "
                     "leak-free")
        return 0
    print(head + f"FAIL -- {len(failures)} problem(s)")
    for failure in failures:
        print(f"  {failure}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
