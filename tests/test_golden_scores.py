"""Golden scorecards: any change to a scored bit fails here.

``tests/data/golden_scores.json`` pins, for the quick-preset nbench and
ligra scorecards, the IEEE-754 hex of the four Section III scores and of
every per-event ``TScore_z`` (Eq. 7). The per-event trends are where the
DTW kernels land, so a kernel that moves one distance bit shows up here
by event name. The counter matrices come through the ``measure_suites``
memo, so other tests' measurements are reused (and
``tests/test_golden_counters.py`` already pins them).

A deliberate science change re-blesses in the same commit::

    PYTHONPATH=src python tests/test_golden_scores.py

which rewrites the JSON; its diff shows what moved.
"""

import json
from pathlib import Path

import pytest

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


def scorecard_fingerprint(card):
    return {
        "scores": {name: float_bits(card.score(name)) for name in SCORES},
        "trend_per_event": {
            event: float_bits(value)
            for event, value in card.details["trend"].per_event.items()
        },
    }


def suite_fingerprint(suite):
    config = ExperimentConfig.quick()
    matrix = measure_suites([suite], config)[suite]
    return scorecard_fingerprint(perspector_for(config).score(matrix))


def compute_goldens():
    return {suite: suite_fingerprint(suite) for suite in SUITES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("suite", SUITES)
def test_quick_scorecard_unchanged(golden, suite):
    got = suite_fingerprint(suite)
    want = golden[suite]
    moved = [
        f"{group}/{name}: {bits} -> {got[group].get(name)}"
        for group in ("scores", "trend_per_event")
        for name, bits in want[group].items()
        if got[group].get(name) != bits
    ]
    assert not moved, "scored bits moved:\n" + "\n".join(moved)
    assert got == want, "the set of scored events changed"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_goldens(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
