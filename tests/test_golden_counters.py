"""Golden counters: any change to a simulated counter bit fails here.

``tests/data/golden_counters.json`` pins two kinds of fingerprint:

* ``suites`` -- the quick-preset measured :class:`CounterMatrix` of each
  suite the tier-1 tests already measure: the sha256 of its bit-exact
  wire encoding (values plus every per-event series) and each value's
  IEEE-754 hex, so a failure names the cells that moved. The matrices
  come through the ``measure_suites`` memo, so other tests' measurements
  are reused.
* ``cpu`` -- direct :class:`CPU` runs on ``small_test_machine()`` over
  prefetcher {on, off} x policy {lru, fifo, random} (and each predictor
  kind): one sha256 over every :class:`CounterSample`, one over the
  simulator state the samples leave behind (set contents in order, dirty
  bits, stats, TLB sets, predictor tables, the replacement RNG).

A deliberate science change re-blesses in the same commit::

    PYTHONPATH=src python tests/test_golden_counters.py

which rewrites the JSON; its diff shows what moved.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments.runner import ExperimentConfig, measure_suites
from repro.service.protocol import encode_counter_matrix, float_bits
from repro.uarch.config import small_test_machine
from repro.uarch.cpu import CPU

GOLDEN = Path(__file__).parent / "data" / "golden_counters.json"

#: Quick-preset suites the tier-1 tests measure anyway (CLI and service).
SUITES = ("nbench", "ligra", "lmbench")

#: (prefetcher, replacement policy, predictor kind) per CPU fingerprint.
CPU_CASES = tuple(
    (prefetch, policy, "bimodal")
    for prefetch in (True, False)
    for policy in ("lru", "fifo", "random")
) + tuple((True, "lru", kind) for kind in ("static", "gshare", "tournament"))


def _sha256(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def suite_fingerprint(matrix):
    return {
        "sha256": _sha256(encode_counter_matrix(matrix)),
        "values": {
            workload: dict(zip(matrix.events,
                               (float_bits(v) for v in row)))
            for workload, row in zip(matrix.workloads, matrix.values)
        },
    }


def case_name(prefetch, policy, kind):
    return f"{'pf' if prefetch else 'nopf'}-{policy}-{kind}"


def _intervals(seed=11, n=3, n_mem=2600, n_branch=1500):
    """Traces long enough to span several 1024-access chunks, mixing a
    sequential stream (prefetch-friendly), a 64 KB random region (L2/LLC
    conflicts) and a 2 MB one (TLB walks), with ~30% stores."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        stream = (i * n_mem + np.arange(n_mem)) * 8
        near = rng.integers(0, 64 * 1024, size=n_mem)
        far = rng.integers(0, 2 * 1024 * 1024, size=n_mem)
        pick = rng.integers(0, 3, size=n_mem)
        addrs = np.choose(pick, [stream, near, far]).astype(np.int64)
        sites = rng.integers(0, 200, size=n_branch)
        bias = (sites % 7) / 7.0
        out.append(dict(
            addresses=addrs,
            is_write=rng.uniform(size=n_mem) < 0.3,
            branch_sites=sites,
            branch_taken=rng.uniform(size=n_branch) < bias,
            n_instructions=4 * (n_mem + n_branch),
        ))
    return out


def _machine(prefetch, policy, kind):
    base = small_test_machine().with_policy(policy)
    return dataclasses.replace(
        base, enable_prefetcher=prefetch,
        branch=dataclasses.replace(base.branch, kind=kind),
    )


def _sample_record(sample):
    return [float_bits(v) if isinstance(v, float) else int(v)
            for v in dataclasses.astuple(sample)]


def _sets(sets):
    return [[[int(tag), bool(dirty)] for tag, dirty in ways.items()]
            for ways in sets]


def _cpu_state(cpu):
    hier = cpu.hierarchy
    levels = {}
    for name in ("l1", "l2", "llc"):
        cache = getattr(hier, name)
        levels[name] = {
            "stats": dataclasses.astuple(cache.stats),
            "sets": _sets(cache._sets),
        }
    pf = hier.prefetcher
    pred = cpu.predictor
    tables = []
    for part in (pred, getattr(pred, "_bimodal", None),
                 getattr(pred, "_gshare", None)):
        if part is not None:
            tables.append([getattr(part, "_table", None),
                           getattr(part, "_history", None),
                           part.branches, part.mispredicts])
    return {
        "caches": levels,
        "rng": str(hier.l1._rng.bit_generator.state),
        "prefetcher": None if pf is None else [pf.issued, pf.installed],
        "tlb": {
            name: [_sets(level._sets), level.hits, level.misses]
            for name, level in (("dtlb", cpu.tlb.dtlb),
                                ("stlb", cpu.tlb.stlb))
        },
        "predictor": [tables, getattr(pred, "_chooser", None)],
        "pager": [cpu.pager.faults, cpu.pager.evictions,
                  list(cpu.pager._resident)],
    }


def cpu_fingerprint(prefetch, policy, kind):
    cpu = CPU(_machine(prefetch, policy, kind), seed=5)
    samples = [_sample_record(cpu.execute_interval(SimpleNamespace(**fields)))
               for fields in _intervals()]
    return {"samples": _sha256(samples), "state": _sha256(_cpu_state(cpu))}


def compute_goldens():
    matrices = measure_suites(list(SUITES), ExperimentConfig.quick())
    return {
        "suites": {name: suite_fingerprint(matrices[name])
                   for name in SUITES},
        "cpu": {case_name(*case): cpu_fingerprint(*case)
                for case in CPU_CASES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("suite", SUITES)
def test_quick_suite_counters_unchanged(golden, suite):
    matrix = measure_suites([suite], ExperimentConfig.quick())[suite]
    got = suite_fingerprint(matrix)
    want = golden["suites"][suite]
    moved = [
        f"{workload}/{event}: {bits} -> {got['values'].get(workload, {}).get(event)}"
        for workload, row in want["values"].items()
        for event, bits in row.items()
        if got["values"].get(workload, {}).get(event) != bits
    ]
    assert not moved, "counter values moved:\n" + "\n".join(moved)
    assert got["sha256"] == want["sha256"], "a counter series moved"


@pytest.mark.parametrize("case", CPU_CASES, ids=lambda c: case_name(*c))
def test_cpu_counters_unchanged(golden, case):
    assert cpu_fingerprint(*case) == golden["cpu"][case_name(*case)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_goldens(), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
