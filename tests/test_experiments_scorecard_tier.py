"""The disk tier's scorecard entries behind ``repro score``.

A stored scorecard must round-trip every bit the wire and the history
carry, a changed key part must miss, and a disk-warm ``repro score``
must print the cold run's bytes without importing numpy, the
simulator, the history store or a process pool.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.engine import MISS, DiskCache, content_key
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentConfig,
    clear_cache,
    measure_suites,
    perspector_for,
    score_suite,
)
from repro.obs import Tracer, install, uninstall
from repro.qa.determinism import diff_scorecards
from repro.service.protocol import encode_scorecard, scorecard_record

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.mark.parametrize("suite", ["nbench", "ligra"])
def test_every_field_round_trips_bit_for_bit(suite, tmp_path):
    config = ExperimentConfig.quick()
    matrix = measure_suites([suite], config)[suite]
    disk = DiskCache(tmp_path)
    for focus in ("all", "llc", "tlb"):
        card = perspector_for(config).score(matrix, focus=focus)
        key = content_key("test-scorecard", suite, focus)
        assert disk.put(key, card)
        back = disk.get(key)
        assert back is not MISS
        assert diff_scorecards(card, back) == []
        assert str(back) == str(card)
        assert scorecard_record(back) == scorecard_record(card)
        # The history record of a hit carries the cold run's bits; only
        # the engine counters of the computing run are not stored.
        cold = encode_scorecard(card)
        del cold["details"]["engine"]
        assert encode_scorecard(back) == cold


def _source(config, suite="nbench", focus="all"):
    """Where ``score_suite`` got its scorecard: ``"disk"`` or
    ``"scored"`` (the ``experiment.score`` span's ``source``)."""
    tracer = install(Tracer())
    try:
        score_suite(suite, config, focus)
    finally:
        uninstall()
    [found] = [s for s in tracer.spans() if s.name == "experiment.score"]
    return found.attrs["source"]


def test_each_key_part_misses_when_changed(tmp_path):
    base = replace(ExperimentConfig.quick(), cache_dir=str(tmp_path))
    matrix = measure_suites(["nbench"], base)["nbench"]
    assert _source(base) == "scored"
    assert _source(base) == "disk"
    variants = [replace(base, metric_seed=base.metric_seed + 1),
                replace(base, cache=False)]
    planted = []
    for field in ("n_intervals", "ops_per_interval", "warmup_intervals",
                  "warmup_boost", "seed"):
        variant = replace(base, **{field: getattr(base, field) + 1})
        # Scoring only: the miss reuses the base measurement.
        planted.append(("nbench", variant.measurement_key()))
        runner._CACHE[planted[-1]] = matrix
        variants.append(variant)
    try:
        for variant in variants:
            assert _source(variant) == "scored", variant
    finally:
        for key in planted:
            runner._CACHE.pop(key)
    assert _source(base, focus="llc") == "scored"
    assert _source(base, suite="lmbench") == "scored"
    # The workers and history knobs never move a bit, so they share
    # the entry.
    assert _source(replace(base, workers=2,
                           history_dir=str(tmp_path / "h"))) == "disk"


def test_history_run_may_hit_and_records_the_cold_bits(tmp_path, capsys):
    from repro.cli import main
    from repro.obs import HistoryStore, diff_records

    argv = ["--quick", "score", "nbench", "--focus", "tlb",
            "--cache-dir", str(tmp_path / "tier"),
            "--history-dir", str(tmp_path / "history")]
    assert main(argv) == 0
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[1]
    store = HistoryStore(tmp_path / "history")
    cold, warm = (store.load(run) for run in store.run_ids())
    assert warm["metrics"]["values"]["disk_hits"] >= 1
    assert "cache_hits" not in warm["metrics"]["values"]  # no kernel ran
    diff = diff_records(cold, warm)
    assert diff.same_digest and diff.clean, diff.drift


def test_a_tier_hit_reports_its_own_counts(tmp_path):
    config = replace(ExperimentConfig.quick(), cache_dir=str(tmp_path))
    counts = []
    for _ in range(3):
        clear_cache()
        _card, metrics = score_suite("nbench", config)
        counts.append(tuple(metrics.get(name) for name in
                            ("disk_hits", "disk_misses", "disk_writes")))
    clear_cache()
    # The cold call scores through a fresh engine; each repeat is one
    # scorecard read from the process-wide tier and nothing else.
    assert counts[1:] == [(1, 0, 0), (1, 0, 0)]


_PROBE = """
import json, sys
from repro.cli import build_parser, main

HEAVY = ("numpy", "repro.uarch", "repro.engine.engine", "repro.obs.history",
         "repro.obs.export", "repro.obs.summary", "multiprocessing",
         "concurrent.futures")

def heavy():
    return sorted(m for m in sys.modules
                  if any(m == h or m.startswith(h + ".") for h in HEAVY))

status = main(sys.argv[1:])
sys.stdout.flush()
loaded = heavy()
build_parser()
sys.stderr.write(json.dumps({"status": status, "loaded": loaded,
                             "help": heavy()}))
"""


def _probe(argv):
    """``(stdout, report)`` of ``main(argv)`` in a fresh interpreter:
    which of the probe's heavy modules ``main`` loaded, and which the
    full parser tree (built afterwards, as for help) adds."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    run = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                         capture_output=True, env=env, check=True)
    return (run.stdout.decode(),
            json.loads(run.stderr.decode().strip().splitlines()[-1]))


def test_disk_warm_score_imports_neither_numpy_nor_the_simulator(tmp_path):
    """Nor the history store, nor a process pool: the warm path loads
    only its own modules."""
    argv = ["--quick", "score", "nbench", "--workers", "1", "--cache-dir",
            str(tmp_path)]
    cold, report = _probe(argv)
    # A serial run starts no pool, so it never loads one.
    assert report["status"] == 0
    assert not [m for m in report["loaded"]
                if m.startswith(("multiprocessing", "concurrent."))]
    assert "numpy" in report["loaded"]
    warm, report = _probe(argv)
    assert warm == cold
    # Only the full tree (help, a missing or unknown command) builds
    # the ``obs`` parser, whose defaults come from the history module.
    assert report == {"status": 0, "loaded": [],
                      "help": ["repro.obs.export", "repro.obs.history",
                               "repro.obs.summary"]}


def test_a_source_edit_retires_the_tier(tmp_path):
    """The tier keys on the code that wrote it: an unchanged copy of the
    package reads its own entries back, and one edited constant in the
    workload models makes the next run score afresh."""
    import shutil

    from repro.obs.export import load_spans

    src = tmp_path / "src"
    shutil.copytree(SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    trace = tmp_path / "trace.jsonl"

    def source():
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "--quick", "score",
             "nbench", "--cache-dir", str(tmp_path / "tier"),
             "--trace", str(trace)],
            capture_output=True, env=env, check=True)
        [found] = [s for s in load_spans(trace)
                   if s.name == "experiment.score"]
        return found.attrs["source"]

    assert source() == "scored"
    assert source() == "disk"
    generators = src / "repro" / "workloads" / "generators.py"
    text = generators.read_text()
    assert "\nLINE = 64\n" in text
    generators.write_text(text.replace("\nLINE = 64\n", "\nLINE = 128\n"))
    assert source() == "scored"
