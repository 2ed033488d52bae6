"""Tests of the benchmark harness: ``pytest bench`` (outside the tier-1
``testpaths``; the two harness runs take about 20 s)."""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

from bench import compare, harness, layers
from bench.stats import percentile, summarize, tail_percentile
from bench.workloads import WARMUP, Repeated

if os.path.join(harness.ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(harness.ROOT, "src"))


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (3, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
    (450, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_n_and_only_supported_tails():
    three = summarize([3.0, 1.0, 2.0])
    assert three == {"n": 3, "median": 2.0, "q1": 1.0, "q3": 3.0}
    many = summarize(range(1, 201))
    assert many["n"] == 200
    assert many["tail"] == {"p": 95.0, "value": percentile(range(1, 201), 95)}
    assert summarize([]) == {"n": 0}


def test_percentile_interpolates_between_ranks():
    assert percentile([10, 20, 30, 40], 50) == 25.0
    assert percentile([5], 95) == 5


# -- bound and compare logic --------------------------------------------------


PARENT = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_verdict_within_bound_regression_and_gain():
    assert compare.verdict(PARENT, [v * 1.05 for v in PARENT],
                           "lower", 0.10) == "within bound"
    assert compare.verdict(PARENT, [v * 1.2 for v in PARENT],
                           "lower", 0.10) == "regression"
    assert compare.verdict(PARENT, [v * 0.8 for v in PARENT],
                           "lower", 0.10) == "gain"
    # "higher is better" flips the direction.
    assert compare.verdict(PARENT, [v * 0.8 for v in PARENT],
                           "higher", 0.10) == "regression"


def test_gain_needs_nine_of_ten_pair_wins():
    change = [v * 0.9 for v in PARENT]
    change[0] = change[1] = 20.0  # two lost pairs: 8/10
    assert compare.verdict(PARENT, change, "lower", 0.10) != "gain"


def test_wide_parent_spread_is_unresolved():
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0]
    assert compare.verdict(noisy, [v * 1.3 for v in noisy],
                           "lower", 0.10) == "unresolved"


def test_compare_main_exits_1_on_regression(tmp_path, capsys):
    def doc(wall):
        e2e = {m["name"]: {"value": 1.0} for m in harness.load_spec()[
            "end_to_end"]}
        e2e["wall_s"] = {"value": wall}
        return {"workloads": {"cold-score-nbench": {"end_to_end": e2e}}}

    paths = []
    for i, wall in enumerate(PARENT + [v * 1.5 for v in PARENT]):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(doc(wall)))
        paths.append(str(path))
    assert compare.main(paths) == 1
    out = capsys.readouterr().out
    assert "regression" in out and "cpu_s" in out
    assert compare.main(paths[:10] + paths[:10]) == 0
    assert compare.main(paths[:3]) == 2


# -- self-time arithmetic on a synthetic span tree ---------------------------


def test_raw_totals_attributes_self_time_to_layers():
    from repro.obs.trace import SpanRecord

    def span(sid, parent, name, start, end, pid=1, **attrs):
        return SpanRecord(sid=sid, parent=parent, name=name, start_ns=start,
                          end_ns=end, pid=pid, attrs=attrs)

    spans = [
        span(1, None, layers.ROOT, 1, 101, bench=1),
        span(2, 1, "cli.parse", 2, 5, bench=1),
        span(3, 1, "experiment.measure", 6, 61),          # program span
        span(4, 3, "uarch.cpu", 11, 51, bench=1),
        span(5, 4, "uarch.hierarchy", 16, 46, bench=1),
        span(6, 5, "uarch.cache_batch", 21, 31, bench=1),
        span(7, 1, "parallel.map", 61, 91, workers=2, tasks=1),
        span(8, 7, "worker.task", 1000, 1025, pid=2),     # other clock
        span(9, 1, "parallel.map", 91, 95, inline=True),  # not a layer
    ]
    raw = layers.raw_totals(spans, {"counts": {"uarch.l1.accesses": 40},
                                    "engine_metrics": {}})
    assert raw["traced_wall_ns"] == 100
    assert raw["self.uarch_ns"] == 40       # cpu 10 + hierarchy 20 + batch 10
    assert raw["self.uarch.hierarchy_ns"] == 20
    assert raw["time.uarch.cpu_ns"] == 40
    assert raw["self.cli_ns"] == 3
    assert raw["self.parallel_ns"] == 30
    # Root self (100 - 3 - 55 - 30 = 12, the inline map included) plus
    # the measure span's own 15.
    assert raw["self.bench_ns"] == 27
    assert sum(v for k, v in raw.items()
               if k.startswith("self.") and k.count(".") == 1) == 100
    assert raw["parallel.busy_ns"] == 25 and raw["parallel.capacity_ns"] == 60
    metrics = layers.per_layer_metrics(raw, {"cli.import_s": 0.2,
                                             "wall_s": 0.4,
                                             "trace_overhead_pct": 1.0})
    assert metrics["parallel.util"] == 25 / 60
    assert metrics["uarch.ns_per_mem_op"] == 1.0
    assert metrics["cli.import_share"] == 0.5
    assert {m["name"] for m in harness.load_spec()["per_layer"]} == \
        set(metrics)


# -- harness runs of the smallest request ------------------------------------


class Smoke(Repeated):
    name = "smoke"
    args = WARMUP
    setup_reps = 1


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """Route the harness to the ``smoke`` workload and to goldens and a
    baseline under ``tmp_path``."""
    goldens = tmp_path / "goldens.json"
    shutil.copyfile(harness.GOLDENS_PATH, goldens)
    monkeypatch.setitem(harness.WORKLOADS, "smoke", Smoke)
    monkeypatch.setattr(harness, "GOLDENS_PATH", str(goldens))
    monkeypatch.setattr(harness, "BASELINE_PATH", str(tmp_path / "b.json"))
    return goldens


def _run(capsys, *argv):
    status = harness.main(["--workload", "smoke", "--seconds", "1", *argv])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_smoke_run_checks_outputs_and_traces_layers(smoke, capsys):
    status, line = _run(capsys, "--bless")
    assert status == 0 and line["correct"] and line["failed"] == 0
    assert line["metrics"]["uarch.l1.accesses"]["value"] > 0
    assert json.loads(smoke.read_text())["counts"]["smoke"]
    status, line = _run(capsys, "--trace", "1")
    assert status == 0 and line["correct"]
    status, line = _run(capsys, "--trace", "0")
    assert status == 0 and line["attempted"] >= 2
    assert set(line["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb",
                                    "setup_s"}


def test_perturbed_golden_fails_the_run(smoke, capsys):
    data = json.loads(smoke.read_text())
    key = " ".join(WARMUP)
    data["stdout_sha256"][key] = "0" * 64
    smoke.write_text(json.dumps(data))
    status, line = _run(capsys, "--trace", "0")
    assert status == 1
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 2
