"""Run one ``repro`` CLI invocation under a span tracer, with the
benchmark's own spans around each layer's public entry points::

    python bench/traced.py OUT -- <repro argv...>

Writes the span log to ``OUT`` (JSONL, readable by ``repro obs
summary``) and, to ``OUT.counts.json``, the exact counts taken from the
wrapped calls' return values plus the engine's metrics snapshot. Stdout
and the exit status are the CLI's own, so the harness checks them
against the same goldens as an untraced invocation.

Nothing under ``src/`` changes: the wrappers are installed on classes
and modules in this process only. Batch entry points are wrapped and
their results counted; per-access calls (one cache line, one TLB page)
are neither wrapped nor timed. The file runs as a script rather than
from stdin because spawned pool workers re-import ``__main__``; they
import it as ``__mp_main__``, install nothing, and their time shows
through the ``worker.task`` spans the program already ships.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections import Counter

from repro.obs import trace as obs_trace

#: Span name of the root around ``repro.cli.main``.
ROOT = "bench.cli"

#: Exact counts taken from wrapped calls, dumped to ``OUT.counts.json``.
COUNTS = Counter()


def _span(name):
    # The ``bench`` attribute tells the harness's own spans apart from
    # program spans that happen to share a name.
    return obs_trace.span(name, bench=1)


def traced(fn, name, count=None):
    """``fn`` run inside a ``name`` span; its result and positional
    arguments then go to ``count``, outside the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(result, *args)
        return result

    return wrapper


def wrap(owner, attr, name, count=None):
    """Replace ``owner.attr`` (a function, method or classmethod) with
    its :func:`traced` version."""
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(traced(raw.__func__, name, count)))
    else:
        setattr(owner, attr, traced(raw, name, count))


def _add(deltas):
    for key, value in deltas.items():
        COUNTS[key] += int(value)


def _count_hierarchy(c, *_args):
    _add({"uarch.l1.accesses": c.l1_loads + c.l1_stores,
          "uarch.l1.misses": c.l1_load_misses + c.l1_store_misses,
          "uarch.l2.accesses": c.l2_accesses,
          "uarch.l2.misses": c.l2_misses,
          "uarch.llc.accesses": c.llc_accesses,
          "uarch.llc.misses": c.llc_misses})


def _count_tlb(c, *_args):
    _add({"uarch.tlb.accesses": c.loads + c.stores,
          "uarch.tlb.misses": c.load_misses + c.store_misses,
          "uarch.tlb.walk_cycles": c.walk_cycles})


def _count_branch(mispredicts, _predictor, sites, *_args):
    _add({"uarch.branch.count": len(sites),
          "uarch.branch.mispredicts": mispredicts})


def _count_disk_get(value, *_args):
    from repro.engine.cache import MISS

    _add({"diskcache.gets": 1, "diskcache.hits": value is not MISS})


def _wrap_intervals(workload_cls):
    """Time each step of the ``Workload.intervals`` generator, which is
    where trace generation happens, and count what it yields."""
    original = workload_cls.intervals

    @functools.wraps(original)
    def intervals(self, *args, **kwargs):
        steps = original(self, *args, **kwargs)
        while True:
            with _span("workloads.gen"):
                interval = next(steps, None)
            if interval is None:
                return
            _add({"workloads.mem_ops": len(interval.addresses),
                  "workloads.branches": len(interval.branch_sites)})
            yield interval

    workload_cls.intervals = intervals


def _wrap_backends():
    """Wrap every registered DTW pair kernel. The registry is the one
    place all callers look backends up, and engines resolve theirs when
    built, which happens after this runs."""
    from repro.stats import backend

    def count_pairs(_distances, _arrays, idx_i, *_args):
        _add({"stats.dtw_pairs": len(idx_i)})

    for name, record in list(backend._BACKENDS.items()):
        backend._BACKENDS[name] = dataclasses.replace(
            record, pair_distances=traced(record.pair_distances,
                                          "stats.dtw", count_pairs))


def install_wrappers():
    from repro import cli
    from repro.core import perspector
    from repro.core.matrix import CounterMatrix
    from repro.engine.diskcache import DiskCache
    from repro.engine.engine import Engine
    from repro.engine.subset_eval import SubsetEvaluator, SubsetSearch
    from repro.perf import events
    from repro.perf.sampler import IntervalSampler
    from repro.uarch.branch import _PredictorBase
    from repro.uarch.cache import SetAssociativeCache
    from repro.uarch.cpu import CPU
    from repro.uarch.hierarchy import CacheHierarchy
    from repro.uarch.memory import DemandPager
    from repro.uarch.pipeline import TimingModel
    from repro.uarch.tlb import TwoLevelTLB
    from repro.workloads.base import Workload

    # The first parser build imports the service and backend modules.
    wrap(cli, "build_parser", "cli.parse")
    _wrap_intervals(Workload)
    wrap(CPU, "execute_interval", "uarch.cpu",
         lambda *_: _add({"uarch.intervals": 1}))
    wrap(DemandPager, "touch_many", "uarch.pager",
         lambda faults, *_: _add({"uarch.page_faults": faults}))
    wrap(TwoLevelTLB, "access_many", "uarch.tlb", _count_tlb)
    wrap(CacheHierarchy, "access_many", "uarch.hierarchy", _count_hierarchy)
    wrap(SetAssociativeCache, "access_many", "uarch.cache_batch")
    wrap(_PredictorBase, "run_trace", "uarch.branch", _count_branch)
    wrap(TimingModel, "cycles", "uarch.timing")
    wrap(IntervalSampler, "collect", "perf.collect")
    # PerfSession imports these at call time, so module attributes are
    # what it picks up.
    wrap(events, "samples_to_series", "perf.convert")
    wrap(events, "samples_to_totals", "perf.convert")
    wrap(CounterMatrix, "from_measurement", "core.matrix")
    wrap(perspector, "normalize_matrices_jointly", "core.normalize")
    for kernel in ("cluster", "trend", "coverage", "spread"):
        wrap(Engine, f"{kernel}_score", f"engine.{kernel}")
    _wrap_backends()
    wrap(SubsetEvaluator, "__init__", "subset.precompute")
    wrap(SubsetSearch, "search", "subset.search",
         lambda result, *_: _add({"subset.candidates": result.n_evaluated}))
    wrap(DiskCache, "get", "diskcache.get", _count_disk_get)
    wrap(DiskCache, "put", "diskcache.put",
         lambda *_: _add({"diskcache.puts": 1}))


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: python bench/traced.py OUT -- <repro argv...>",
              file=sys.stderr)
        return 2
    out, cli_argv = argv[0], argv[2:]
    install_wrappers()
    from repro import cli
    from repro.obs import (
        Tracer,
        install,
        install_recorder,
        uninstall,
        uninstall_recorder,
        write_trace,
    )

    tracer = install(Tracer())
    # The CLI publishes the engine's metrics snapshot to the history
    # recorder; installing one is how the snapshot is read from outside.
    recorder = install_recorder()
    try:
        with tracer.span(ROOT, bench=1):
            status = cli.main(cli_argv)
    finally:
        uninstall()
        uninstall_recorder()
    sys.stdout.flush()
    write_trace(tracer.spans(), out)
    snapshot = recorder.metrics_snapshot
    with open(out + ".counts.json", "w", encoding="utf-8") as f:
        json.dump({"counts": dict(COUNTS),
                   "engine_metrics": ({} if snapshot is None
                                      else snapshot.as_dict())}, f)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
