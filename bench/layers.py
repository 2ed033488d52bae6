"""Per-layer metrics from traced invocations.

Each traced invocation (``bench/traced.py``) leaves a span log and a
counts file. :func:`raw_totals` reduces them to additive raw sums
(nanoseconds and counts), so several invocations of one workload simply
add up; :func:`per_layer_metrics` turns the sums into the named
``per_layer`` metrics of ``BENCHMARK.json``.

Time is attributed by self time (:func:`repro.obs.summary.self_times`):
every span of the owner process charges its self time to the layer of
its nearest ancestor-or-self that belongs to a layer. A layer span is
one the benchmark opened around a public entry point (named
``<layer>.<entry>``), or a pooled ``parallel.map`` span the program
already ships. What falls outside every layer -- argument parsing,
facade glue, program spans with no layer above them -- is charged to
the root span and reported as ``bench.unattributed_s``. The layer self
times and the unattributed time sum to the traced wall time.
"""

from __future__ import annotations

import json
from collections import Counter

#: Layers whose self times, with the unattributed rest, make up the
#: traced wall time.
LAYERS = ("cli", "workloads", "uarch", "perf", "core", "engine", "stats",
          "subset", "parallel", "diskcache")

#: The root span ``bench/traced.py`` opens around ``repro.cli.main``.
ROOT = "bench.cli"

#: Counts pinned by the goldens: the simulated statistics, which a
#: change that only speeds the simulator up must leave identical.
SIMULATED_PREFIXES = ("uarch.", "workloads.")


def _layer(span):
    if span.attrs.get("bench"):
        return span.name.split(".", 1)[0]
    if span.name == "parallel.map" and not span.attrs.get("inline"):
        return "parallel"
    return None


def raw_totals(spans, counts_doc):
    """Additive raw sums for one traced invocation.

    ``spans`` are the invocation's :class:`~repro.obs.trace.SpanRecord`
    list, ``counts_doc`` the parsed ``OUT.counts.json``.
    """
    from repro.obs.summary import pool_stats, self_times

    root = next(s for s in spans if s.attrs.get("bench") and s.name == ROOT)
    # Worker spans run on other clocks and overlap the owner's
    # parallel.map span; they count only through pool utilisation.
    local = {s.sid: s for s in spans if s.pid == root.pid}
    selfs = self_times(spans)
    layer_of = {}

    def layer(span):
        chain = []
        while span.sid not in layer_of:
            found = _layer(span)
            if found is not None:
                layer_of[span.sid] = found
                break
            chain.append(span.sid)
            span = local[span.parent]
        for sid in chain:
            layer_of[sid] = layer_of[span.sid]
        return layer_of[span.sid]

    raw = Counter(counts_doc["counts"])
    raw["traced_wall_ns"] += root.duration_ns
    for span in local.values():
        raw[f"self.{layer(span)}_ns"] += selfs[span.sid]
        if span.attrs.get("bench"):
            raw[f"time.{span.name}_ns"] += span.duration_ns
            raw[f"self.{span.name}_ns"] += selfs[span.sid]
    for row in pool_stats(spans):
        raw["parallel.map_ns"] += row["wall_ns"]
        raw["parallel.tasks"] += row["tasks"]
        raw["parallel.busy_ns"] += row["busy_ns"]
        raw["parallel.capacity_ns"] += row["wall_ns"] * row["workers"]
    engine = counts_doc.get("engine_metrics", {})
    raw["engine.cache_hits"] += engine.get("cache_hits", 0)
    raw["engine.cache_misses"] += engine.get("cache_misses", 0)
    return raw


def load_raw_totals(trace_path):
    """:func:`raw_totals` of the files one traced invocation wrote."""
    from repro.obs.export import load_spans

    with open(trace_path + ".counts.json", encoding="utf-8") as f:
        counts_doc = json.load(f)
    return raw_totals(load_spans(trace_path), counts_doc)


def simulated_counts(raw):
    """The pinned simulated counts out of a raw-sum mapping."""
    return {k: int(v) for k, v in sorted(raw.items())
            if k.startswith(SIMULATED_PREFIXES)}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(raw, extra):
    """``{name: value}`` for every per-layer metric.

    ``raw`` sums :func:`raw_totals` over the workload's traced
    invocations (plus ``diskcache.bytes_written``); ``extra`` carries
    what the harness measures outside the trace: ``service.*``,
    ``cli.import_s``, ``wall_s`` and ``trace_overhead_pct``.
    """
    def sec(key):
        return raw[key] / 1e9

    out = {
        "workloads.gen_s": sec("time.workloads.gen_ns"),
        "workloads.mem_ops": raw["workloads.mem_ops"],
        "workloads.branches": raw["workloads.branches"],
        "uarch.cpu_s": sec("time.uarch.cpu_ns"),
        "uarch.pager_s": sec("time.uarch.pager_ns"),
        "uarch.tlb_s": sec("time.uarch.tlb_ns"),
        "uarch.cache_batch_s": sec("time.uarch.cache_batch_ns"),
        "uarch.hierarchy_self_s": sec("self.uarch.hierarchy_ns"),
        "uarch.branch_s": sec("time.uarch.branch_ns"),
        "uarch.timing_s": sec("time.uarch.timing_ns"),
        "uarch.ns_per_mem_op": _ratio(raw["time.uarch.cpu_ns"],
                                      raw["uarch.l1.accesses"]),
        "uarch.hierarchy_ns_per_l1_miss": _ratio(
            raw["self.uarch.hierarchy_ns"], raw["uarch.l1.misses"]),
    }
    for key in ("l1.accesses", "l1.misses", "l2.accesses", "l2.misses",
                "llc.accesses", "llc.misses", "tlb.accesses", "tlb.misses",
                "tlb.walk_cycles", "branch.count", "branch.mispredicts",
                "page_faults", "intervals"):
        out[f"uarch.{key}"] = raw[f"uarch.{key}"]
    out.update({
        "core.matrix_s": sec("time.core.matrix_ns"),
        "core.normalize_s": sec("time.core.normalize_ns"),
        "engine.cluster_s": sec("time.engine.cluster_ns"),
        "engine.trend_s": sec("time.engine.trend_ns"),
        "engine.coverage_s": sec("time.engine.coverage_ns"),
        "engine.spread_s": sec("time.engine.spread_ns"),
        "engine.cache.hit_ratio": _ratio(
            raw["engine.cache_hits"],
            raw["engine.cache_hits"] + raw["engine.cache_misses"]),
        "stats.dtw_s": sec("time.stats.dtw_ns"),
        "stats.dtw_pairs": raw["stats.dtw_pairs"],
        "stats.dtw_us_per_pair": _ratio(raw["time.stats.dtw_ns"] / 1e3,
                                        raw["stats.dtw_pairs"]),
        "subset.precompute_s": sec("time.subset.precompute_ns"),
        "subset.search_s": sec("time.subset.search_ns"),
        "subset.candidates": raw["subset.candidates"],
        "subset.ms_per_candidate": _ratio(raw["time.subset.search_ns"] / 1e6,
                                          raw["subset.candidates"]),
        "parallel.map_s": sec("parallel.map_ns"),
        "parallel.tasks": raw["parallel.tasks"],
        "parallel.util": _ratio(raw["parallel.busy_ns"],
                                raw["parallel.capacity_ns"]),
        "diskcache.get_s": sec("time.diskcache.get_ns"),
        "diskcache.put_s": sec("time.diskcache.put_ns"),
        "diskcache.gets": raw["diskcache.gets"],
        "diskcache.puts": raw["diskcache.puts"],
        "diskcache.hit_ratio": _ratio(raw["diskcache.hits"],
                                      raw["diskcache.gets"]),
        "diskcache.bytes_written": raw["diskcache.bytes_written"],
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sec(f"self.{layer}_ns")
    out.update({
        "service.p50_ms": extra.get("service.p50_ms", 0.0),
        "service.p95_ms": extra.get("service.p95_ms", 0.0),
        "service.cache_hit_ratio": extra.get("service.cache_hit_ratio", 0.0),
        "service.requests": extra.get("service.requests", 0),
        "cli.import_s": extra["cli.import_s"],
        "cli.import_share": _ratio(extra["cli.import_s"], extra["wall_s"]),
        "bench.traced_wall_s": sec("traced_wall_ns"),
        "bench.unattributed_s": sec("self.bench_ns"),
        "bench.trace_overhead_pct": extra["trace_overhead_pct"],
    })
    return out
