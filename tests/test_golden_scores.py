"""Golden scorecards: any change to a scored bit fails here.

``tests/data/golden_scores.json`` pins, for the quick-preset nbench and
ligra scorecards, the IEEE-754 hex of the four Section III scores, of
every per-event ``TScore_z`` (Eq. 7) and of every per-k silhouette of the
ClusterScore sweep (Eq. 5-6), plus ``best_k``. The per-event trends are
where the DTW kernels land and the per-k silhouettes are where K-means
lands, so a kernel that moves one bit shows up here by event or by k,
even when it averages out of the mean. One subset search on quick
nbench (``SubsetSearch(matrix, 4, seed=0).search(8)``) is pinned too:
the chosen subset and its full, subset and deviation bits. So is one
quick spec17 search at the benchmark's subset size
(``SubsetSearch(matrix, 8, seed=0).search(16)``), candidate by
candidate: where k sweeps 2..7, so the lockstep K-means fits and the
maximin-LHS draws behind every candidate show up by candidate. The
counter matrices come through the ``measure_suites`` memo, so other
tests' measurements are reused (and ``tests/test_golden_counters.py``
already pins them).

A deliberate science change re-blesses in the same commit::

    PYTHONPATH=src python tests/test_golden_scores.py

which rewrites the JSON; its diff shows what moved (``make rebless``
re-blesses all three golden files and prints the diff stat).
"""

import json
from pathlib import Path

import pytest

from repro.engine.subset_eval import SubsetSearch
from repro.experiments.runner import (
    ExperimentConfig,
    measure_suites,
    perspector_for,
)
from repro.service.protocol import float_bits

GOLDEN = Path(__file__).parent / "data" / "golden_scores.json"

#: Quick-preset suites the tier-1 tests measure anyway.
SUITES = ("nbench", "ligra")

SCORES = ("cluster", "trend", "coverage", "spread")

#: Bit-pinned groups of a scorecard fingerprint.
GROUPS = ("scores", "trend_per_event", "cluster_per_k")

#: The pinned subset searches: suite, subset size, seed, candidates.
SEARCH = ("nbench", 4, 0, 8)
SPEC17_SEARCH = ("spec17", 8, 0, 16)


def scorecard_fingerprint(card):
    cluster = card.details["cluster"]
    return {
        "scores": {name: float_bits(card.score(name)) for name in SCORES},
        "trend_per_event": {
            event: float_bits(value)
            for event, value in card.details["trend"].per_event.items()
        },
        "cluster_per_k": {
            str(k): float_bits(value) for k, value in cluster.per_k.items()
        },
        "best_k": cluster.best_k,
    }


def quick_matrix(suite):
    return measure_suites([suite], ExperimentConfig.quick())[suite]


def suite_fingerprint(suite):
    config = ExperimentConfig.quick()
    return scorecard_fingerprint(
        perspector_for(config).score(quick_matrix(suite)))


def bits(scores):
    return {name: float_bits(value) for name, value in scores.items()}


def report_fingerprint(report):
    return {
        "selected": list(report.selected),
        "subset": bits(report.subset_scores),
        "deviations": bits(report.deviations),
        "mean_deviation_pct": float_bits(report.mean_deviation_pct),
    }


def run_search(spec):
    suite, size, seed, candidates = spec
    return SubsetSearch(quick_matrix(suite), size, seed=seed).search(
        candidates)


def search_fingerprint():
    best = run_search(SEARCH).best
    return dict(report_fingerprint(best), full=bits(best.full_scores))


def spec17_search_fingerprint():
    result = run_search(SPEC17_SEARCH)
    return {
        "full": bits(result.best.full_scores),
        "candidates": [report_fingerprint(r) for r in result.reports],
    }


def compute_goldens():
    goldens = {suite: suite_fingerprint(suite) for suite in SUITES}
    goldens["search"] = search_fingerprint()
    goldens["search_spec17"] = spec17_search_fingerprint()
    return goldens


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("suite", SUITES)
def test_quick_scorecard_unchanged(golden, suite):
    got = suite_fingerprint(suite)
    want = golden[suite]
    moved = [
        f"{group}/{name}: {bits} -> {got[group].get(name)}"
        for group in GROUPS
        for name, bits in want[group].items()
        if got[group].get(name) != bits
    ]
    assert not moved, "scored bits moved:\n" + "\n".join(moved)
    assert got["best_k"] == want["best_k"], "best_k moved"
    assert got == want, "the set of scored events or ks changed"


def test_subset_search_unchanged(golden):
    assert search_fingerprint() == golden["search"]


def test_spec17_search_candidates_unchanged(golden):
    got = spec17_search_fingerprint()
    want = golden["search_spec17"]
    assert got["full"] == want["full"], "full-suite bits moved"
    assert len(got["candidates"]) == len(want["candidates"])
    moved = [f"candidate {i}: {a} -> {b}"
             for i, (a, b) in enumerate(zip(want["candidates"],
                                            got["candidates"]))
             if a != b]
    assert not moved, "candidate bits moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_goldens(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
