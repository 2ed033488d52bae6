"""History determinism check: recording must observe, never perturb.

The run-history store (:mod:`repro.obs.history`) is only trustworthy
if two claims hold at the bit level, and only useful if its gates
actually fire. This checker enforces both sides:

1. **Recording bit-identity** -- scoring with a history recorder
   installed produces a scorecard bit-identical to scoring without one
   (:func:`repro.qa.determinism.diff_scorecards`), and the record's
   wire-encoded ``score_bits`` are exactly the scorecard's IEEE-754
   bit patterns. ``--history-dir`` may never change an output bit.
2. **Equal-digest re-run diffs to zero** -- two CLI runs of the same
   configuration recorded into one store share a ``config_digest`` and
   :func:`~repro.obs.history.diff_records` reports zero drift; the
   printed scorecards are byte-identical.
3. **Drift is caught** -- flipping a single bit in a recorded score
   makes :func:`~repro.obs.history.check_trajectory` flag a
   ``score-drift`` finding and ``repro obs diff`` report drift.
4. **Perf regressions are caught** -- an inflated ``wall_time_s``
   yields a ``wall-regression`` finding; a degraded cache hit rate
   yields a ``hit-rate-drop`` finding; and both stay silent inside
   their tolerance.
5. **Windowed trajectories are deterministic** -- two
   :func:`~repro.obs.history.window_trajectory` passes over one matrix
   are bit-identical, and the final window (the full suite, scored
   through the precompute-and-slice evaluator) carries the evaluator's
   own full-suite bits.

Run as ``python -m repro.qa.history_check`` (the ``make
history-smoke`` target) or via ``repro qa --history``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile


def _run_cli(argv):
    """Run the real CLI in-process; returns ``(status, stdout_text)``
    (history/trace status chatter goes to stderr and is left alone)."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


def _check_recording_identity(config, failures):
    """Arm 1: recorder installed vs absent, same bits."""
    from repro.engine import Engine
    from repro.experiments.runner import measure_suites, perspector_for
    from repro.obs.history import (
        HistoryRecorder,
        install_recorder,
        publish,
        uninstall_recorder,
    )
    from repro.qa.determinism import diff_scorecards
    from repro.service.protocol import encode_scorecard

    def _score():
        matrix = measure_suites(["parsec"], config)["parsec"]
        with Engine.from_config(config) as engine:
            card = perspector_for(config, engine=engine).score(
                matrix, focus="all")
            publish("scorecard", card)
            publish("metrics", engine.metrics.snapshot())
        return card

    plain = _score()
    recorder = install_recorder(HistoryRecorder())
    try:
        recorded = _score()
    finally:
        uninstall_recorder()
    failures.extend(
        f"recording-identity: {d}"
        for d in diff_scorecards(plain, recorded)
    )
    if len(recorder.scorecards) != 1:
        failures.append(
            f"recording-identity: recorder captured "
            f"{len(recorder.scorecards)} scorecards, expected 1")
        return
    if recorder.metrics_snapshot is None:
        failures.append(
            "recording-identity: recorder captured no metrics snapshot")
    wire = encode_scorecard(recorder.scorecards[0])
    direct = encode_scorecard(plain)
    if wire["score_bits"] != direct["score_bits"]:
        failures.append(
            f"recording-identity: recorded score_bits "
            f"{wire['score_bits']} != direct {direct['score_bits']}")


def _check_rerun_diffs_to_zero(history_dir, failures):
    """Arm 2: two identical CLI runs, one store, zero drift. Returns
    the two records for the perturbation arms."""
    from repro.obs.history import HistoryStore, diff_records

    argv = ["--quick", "score", "parsec", "--history-dir", history_dir]
    status_a, stdout_a = _run_cli(list(argv))
    status_b, stdout_b = _run_cli(list(argv))
    if status_a != 0 or status_b != 0:
        failures.append(f"rerun: CLI exited {status_a}/{status_b}")
        return None
    if stdout_a != stdout_b:
        failures.append("rerun: printed scorecards differ between two "
                        "identical recorded runs")
    store = HistoryStore(history_dir)
    run_ids = store.run_ids()
    if len(run_ids) != 2:
        failures.append(f"rerun: store holds {len(run_ids)} runs, "
                        f"expected 2")
        return None
    record_a, record_b = store.load(run_ids[0]), store.load(run_ids[1])
    diff = diff_records(record_a, record_b)
    if not diff.same_digest:
        failures.append(
            f"rerun: config digests differ across identical runs "
            f"({record_a['config_digest'][:12]} vs "
            f"{record_b['config_digest'][:12]})")
    if not diff.clean:
        failures.extend(f"rerun: drift: {d}" for d in diff.drift)
    return record_a, record_b


def _check_drift_flagged(record_a, record_b, history_dir, failures):
    """Arm 3: one flipped bit must trip check_trajectory and the CLI
    diff/check exit codes."""
    from repro.cli import main as cli_main
    from repro.obs.history import check_trajectory

    perturbed = json.loads(json.dumps(record_b))
    bits = perturbed["scorecards"][0]["score_bits"]["cluster"]
    flipped = ("%016x" % (int(bits, 16) ^ 1))
    perturbed["scorecards"][0]["score_bits"]["cluster"] = flipped
    findings = check_trajectory([record_a, perturbed])
    kinds = {f.kind for f in findings}
    if "score-drift" not in kinds:
        failures.append(
            f"drift-flagged: flipped bit produced no score-drift "
            f"finding (got {sorted(kinds) or 'none'})")
    # And through the CLI surface: rewrite the stored record, then
    # 'obs check' must exit nonzero and 'obs diff' must report drift.
    path = os.path.join(history_dir, f"{record_b['run_id']}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(perturbed, f)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        check_status = cli_main(["obs", "check", "--history-dir",
                                 history_dir])
        diff_status = cli_main(["obs", "diff", "--history-dir",
                                history_dir])
    if check_status == 0:
        failures.append("drift-flagged: 'repro obs check' exited 0 on "
                        "a perturbed trajectory")
    if diff_status == 0:
        failures.append("drift-flagged: 'repro obs diff' exited 0 on "
                        "an equal-digest bit flip")
    # Restore the untouched record for any later arm.
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record_b, f)


def _synthetic(run_id, digest, wall_s, hits, misses):
    """A minimal valid record for the threshold arms."""
    return {
        "schema_version": 1,
        "run_id": run_id,
        "command": "score",
        "config_digest": digest,
        "scorecards": [],
        "subset_reports": [],
        "search_results": [],
        "windows": [],
        "rendered_sha256": "0" * 64,
        "metrics": {"values": {"cache_hits": hits,
                               "cache_misses": misses},
                    "kinds": {"cache_hits": "counter",
                              "cache_misses": "counter"}},
        "self_times": {},
        "wall_time_s": wall_s,
        "created_unix": 0.0,
    }


def _check_perf_thresholds(failures):
    """Arm 4: wall-time and hit-rate regressions fire beyond their
    thresholds and stay silent inside them."""
    from repro.obs.history import check_trajectory

    digest = "d" * 64
    base = _synthetic("run-000001", digest, wall_s=1.0, hits=90,
                      misses=10)
    ok = _synthetic("run-000002", digest, wall_s=1.2, hits=88,
                    misses=12)
    slow = _synthetic("run-000003", digest, wall_s=2.0, hits=90,
                      misses=10)
    cold = _synthetic("run-000004", digest, wall_s=1.0, hits=10,
                      misses=90)

    kinds = {f.kind for f in check_trajectory([base, ok])}
    if kinds:
        failures.append(f"perf-thresholds: in-tolerance run flagged "
                        f"{sorted(kinds)}")
    kinds = {f.kind for f in check_trajectory([base, slow])}
    if "wall-regression" not in kinds:
        failures.append("perf-thresholds: 2x wall time produced no "
                        "wall-regression finding")
    kinds = {f.kind for f in check_trajectory([base, cold])}
    if "hit-rate-drop" not in kinds:
        failures.append("perf-thresholds: 90%->10% hit rate produced "
                        "no hit-rate-drop finding")


def _check_windows(config, failures):
    """Arm 5: windowed trajectories are deterministic and the final
    window carries the evaluator's full-suite bits."""
    from repro.engine import Engine, SubsetEvaluator
    from repro.experiments.runner import measure_suites
    from repro.obs.history import window_trajectory
    from repro.service.protocol import float_bits

    matrix = measure_suites(["parsec"], config)["parsec"]
    with Engine.from_config(config) as engine:
        first = window_trajectory(matrix, seed=config.metric_seed,
                                  n_windows=3, engine=engine)
        second = window_trajectory(matrix, seed=config.metric_seed,
                                   n_windows=3, engine=engine)
        if first != second:
            failures.append("windows: two window_trajectory passes "
                            "are not bit-identical")
        last = first[-1]
        if last["workloads"] != len(matrix.workloads):
            failures.append(
                f"windows: final window spans {last['workloads']} "
                f"workloads, expected {len(matrix.workloads)}")
        evaluator = SubsetEvaluator(matrix, seed=config.metric_seed,
                                    engine=engine)
        report = evaluator.evaluate(list(matrix.workloads))
        full_bits = {name: float_bits(value)
                     for name, value in report.subset_scores.items()}
        if last["score_bits"] != full_bits:
            failures.append(
                f"windows: final window bits {last['score_bits']} != "
                f"full-suite evaluator bits {full_bits}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="history recording determinism + regression-gate "
                    "check",
    )
    parser.parse_args(argv)

    from repro.experiments.runner import ExperimentConfig, clear_cache

    config = ExperimentConfig.quick()
    failures = []

    clear_cache()
    _check_recording_identity(config, failures)
    with tempfile.TemporaryDirectory(prefix="repro-history-") as tmp:
        records = _check_rerun_diffs_to_zero(tmp, failures)
        if records is not None:
            _check_drift_flagged(records[0], records[1], tmp, failures)
    _check_perf_thresholds(failures)
    _check_windows(config, failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(f"history check: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("history check: recording bit-identical, equal-digest re-run "
          "diffs to zero, drift and perf regressions flagged, windowed "
          "trajectories deterministic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
