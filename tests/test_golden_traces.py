"""Golden traces: any change to a generated trace bit fails here.

``tests/data/golden_traces.json`` pins, for every paper suite at the
quick preset, one sha256 per workload over the exact intervals a
:class:`PerfSession` feeds the simulator (warmup intervals included):
each interval's ``addresses``, ``is_write``, ``branch_sites`` and
``branch_taken`` bytes in fixed dtypes, and its ``n_instructions``.
The golden counters pin only the suites tier-1 measures anyway; the
chase-heavy parsec, sgxgauge and spec17 traces are pinned here, without
running the simulator.

A deliberate change to a workload model re-blesses in the same commit::

    PYTHONPATH=src python tests/test_golden_traces.py

which rewrites the JSON; its diff shows which workloads moved.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import ExperimentConfig
from repro.perf.session import _workload_seed
from repro.workloads import load_suite

GOLDEN = Path(__file__).parent / "data" / "golden_traces.json"

#: Every paper suite (Table III).
SUITES = ("parsec", "ligra", "lmbench", "nbench", "sgxgauge", "spec17")


def _intervals(workload, session):
    """The intervals ``PerfSession.run_workload`` generates."""
    return workload.intervals(
        n_intervals=session.n_intervals + session.warmup_intervals,
        ops_per_interval=session.ops_per_interval,
        seed=_workload_seed(session.seed, workload.name),
        boost_first=session.warmup_intervals,
        boost_factor=session.warmup_boost,
    )


def workload_fingerprint(workload, session):
    digest = hashlib.sha256()
    for interval in _intervals(workload, session):
        for array, dtype in ((interval.addresses, "<i8"),
                             (interval.is_write, "u1"),
                             (interval.branch_sites, "<i8"),
                             (interval.branch_taken, "u1")):
            digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
        digest.update(int(interval.n_instructions).to_bytes(8, "little"))
    return digest.hexdigest()


def suite_fingerprint(name):
    session = ExperimentConfig.quick().session()
    return {w.name: workload_fingerprint(w, session)
            for w in load_suite(name)}


def compute_goldens():
    return {name: suite_fingerprint(name) for name in SUITES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("suite", SUITES)
def test_quick_suite_traces_unchanged(golden, suite):
    got = suite_fingerprint(suite)
    want = golden[suite]
    assert sorted(got) == sorted(want), "workload set changed"
    moved = sorted(name for name in want if got[name] != want[name])
    assert not moved, "traces moved: " + ", ".join(moved)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_goldens(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
