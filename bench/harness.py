"""The benchmark command: run workloads, check outputs, print metrics.

::

    PYTHONPATH=src python -m bench                    # all four workloads
    python3 bench/run.py --workload cold-score-nbench --seed 0 \\
        --seconds 10 --trace 0                        # one workload
    python -m bench --bless                           # re-pin the goldens

For each workload the harness times the set-up, runs the timed window
with tracing off, checks every output against ``bench/goldens.json``,
and, with ``--trace 1`` (the default), runs one traced pass for the
per-layer table. It prints a human report, optionally writes the full
results to ``--out``, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the ``end_to_end`` metrics
of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. It exits 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from importlib import metadata
from time import perf_counter

from bench import layers
from bench.stats import summarize
from bench.workloads import (
    WARMUP,
    WORKLOADS,
    Run,
    become_subreaper,
    child_env,
    remove_tree,
    sha256,
    shm_segments,
    tree_bytes,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")
GOLDENS_PATH = os.path.join(ROOT, "bench", "goldens.json")
BASELINE_PATH = os.path.join(ROOT, "bench", "baseline.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: ``python -c "import repro.cli"`` processes timed for cli.import_s.
IMPORT_PROBES = 5


class Goldens:
    """Expected stdout digests per request and simulated counts per
    workload. Blessing records instead of checking, but still requires
    every repeat of one request within the run to print the same bytes.
    """

    def __init__(self, data=None, bless=False):
        data = data or {}
        self.stdout = dict(data.get("stdout_sha256", {}))
        self.counts = dict(data.get("counts", {}))
        self.bless = bless
        self._blessed = set()

    @classmethod
    def load(cls, path, bless=False):
        try:
            with open(path, encoding="utf-8") as f:
                return cls(json.load(f), bless)
        except FileNotFoundError:
            if bless:
                return cls(bless=True)
            raise

    def check_stdout(self, key, data):
        """None when ``data`` is the golden stdout of request ``key``,
        else a one-line reason."""
        digest = sha256(data)
        if self.bless and key not in self._blessed:
            self._blessed.add(key)
            self.stdout[key] = digest
            return None
        want = self.stdout.get(key)
        if want is None:
            return "no golden stdout for this request (run --bless)"
        if want != digest:
            return f"stdout sha256 {digest[:12]} differs from golden {want[:12]}"
        return None

    def check_counts(self, workload, counts):
        """Reasons the simulated ``counts`` differ from the workload's
        golden counts (empty when they match exactly)."""
        if self.bless:
            self.counts[workload] = counts
            return []
        want = self.counts.get(workload)
        if want is None:
            return [f"no golden counts for {workload} (run --bless)"]
        return [f"{k}: {counts.get(k, 0)} != golden {want.get(k, 0)}"
                for k in sorted(set(want) | set(counts))
                if counts.get(k, 0) != want.get(k, 0)]

    def as_json(self):
        return {"stdout_sha256": dict(sorted(self.stdout.items())),
                "counts": dict(sorted(self.counts.items()))}


def load_spec(path=BENCHMARK_PATH):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _import_seconds(run):
    walls = []
    for _ in range(IMPORT_PROBES):
        out = run.execute([sys.executable, "-c", "import repro.cli"],
                          "import repro.cli")
        run.record(out.key, out.error)
        walls.append(out.wall_s)
    return statistics.median(walls)


def _traced_pass(workload, run):
    """Raw layer sums and ``(key, wall_s)`` of the traced invocations;
    the simulated counts are checked against the goldens."""
    raw, walls = Counter(), []
    for args, cache_dir in workload.trace_requests(run):
        before = tree_bytes(cache_dir) if cache_dir else 0
        path = run.path("trace.jsonl")
        out = run.cli(args, cache_dir=cache_dir, trace_to=path)
        if out.error is not None:
            continue
        raw.update(layers.load_raw_totals(path))
        if cache_dir:
            raw["diskcache.bytes_written"] += tree_bytes(cache_dir) - before
        walls.append((out.key, out.wall_s))
    errors = run.goldens.check_counts(workload.name,
                                      layers.simulated_counts(raw))
    run.record("simulated counts", "; ".join(errors))
    return raw, walls


def _trace_overhead_pct(outcomes, traced_walls):
    """Traced wall time over the untraced median of the same requests."""
    by_key = {}
    for out in outcomes:
        if out.error is None:
            by_key.setdefault(out.key, []).append(out.wall_s)
    traced = base = 0.0
    for key, wall in traced_walls:
        if key in by_key:
            traced += wall
            base += statistics.median(by_key[key])
    return (traced / base - 1) * 100 if base else 0.0


def run_workload(name, spec, seconds, seed, trace, goldens):
    """Run one workload; returns its results document."""
    workload = WORKLOADS[name]()
    os.makedirs(WORK_ROOT, exist_ok=True)
    run = Run(ROOT, tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT),
              goldens)
    shm_before = shm_segments()
    setup_s, outcomes = [], []
    raw, traced_walls, import_s = Counter(), [], 0.0
    try:
        for _ in range(workload.setup_reps):
            start = perf_counter()
            run.cli(WARMUP)
            workload.setup(run)
            setup_s.append(perf_counter() - start)
        outcomes = workload.measure(run, seconds, random.Random(seed))
        # Stop the daemon before tracing, so the traced pass runs under
        # the same load as the timed one; ``close`` is idempotent.
        workload.close(run)
        if trace:
            raw, traced_walls = _traced_pass(workload, run)
            import_s = _import_seconds(run)
    # The run must still stop its children, check for leaks and report:
    # any error becomes one failed operation with its traceback on stderr.
    except Exception as exc:  # qa-ignore[overbroad-except]
        traceback.print_exc()
        run.record(name, f"{type(exc).__name__}: {exc}")
    finally:
        workload.close(run)
        run.check_leaks(shm_before)
        remove_tree(run.work)

    ok = [o for o in outcomes if o.error is None]
    rss = [o.rss_mb for o in ok]
    if "daemon_rss_mb" in workload.extra:
        rss.append(workload.extra["daemon_rss_mb"])
    e2e = {
        "wall_s": summarize([o.wall_s for o in ok]),
        "cpu_s": summarize([o.cpu_s for o in ok]),
        "peak_rss_mb": {"n": len(rss), "value": max(rss, default=0.0)},
        "setup_s": summarize(setup_s),
    }
    doc = {
        "seed": seed,
        "seconds": seconds,
        "timed_invocations": len(outcomes),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "correct": not run.failures and run.attempted > 0,
        "failures": run.failures,
        "end_to_end": _with_units(e2e, spec["end_to_end"]),
        "served_ms": summarize(workload.extra.get("service.latencies_ms", [])),
    }
    if trace:
        values = layers.per_layer_metrics(raw, dict(workload.extra, **{
            "cli.import_s": import_s,
            "wall_s": e2e["wall_s"].get("median", 0.0),
            "trace_overhead_pct": _trace_overhead_pct(outcomes, traced_walls),
        }))
        doc["per_layer"] = _with_units(
            {k: {"value": v} for k, v in values.items()}, spec["per_layer"])
    return doc


def _with_units(found, declared):
    """``found`` keyed and ordered as ``declared`` (the BENCHMARK.json
    metric list), each with its value, unit and summary fields."""
    names = [m["name"] for m in declared]
    if set(found) != set(names):
        raise KeyError(f"metrics computed {sorted(found)} do not match "
                       f"BENCHMARK.json {sorted(names)}")
    out = {}
    for metric in declared:
        entry = dict(found[metric["name"]])
        entry.setdefault("value", entry.get("median", 0.0))
        out[metric["name"]] = {"value": entry.pop("value"),
                               "unit": metric["unit"], **entry}
    return out


def _fmt(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def render(name, doc):
    lines = [f"== {name}: {doc['timed_invocations']} timed invocation(s), "
             f"{doc['failed']} of {doc['attempted']} operation(s) failed"]
    for failure in doc["failures"]:
        lines.append(f"   FAILED {failure}")
    lines.append("   end-to-end (tracing off)")
    for metric, m in doc["end_to_end"].items():
        spread = (f"  q1 {_fmt(m['q1'])} q3 {_fmt(m['q3'])}"
                  if "q1" in m else "")
        tail = (f"  p{m['tail']['p']:g} {_fmt(m['tail']['value'])}"
                if "tail" in m else "")
        lines.append(f"     {metric:<30} {_fmt(m['value']):>12} "
                     f"{m['unit']:<6} n={m['n']}{spread}{tail}")
    served = doc["served_ms"]
    if served["n"]:
        tail = (f", p{served['tail']['p']:g} {_fmt(served['tail']['value'])} ms"
                if "tail" in served else "")
        lines.append(f"   served round trips: n={served['n']}, median "
                     f"{_fmt(served['median'])} ms{tail}")
    per_layer = doc.get("per_layer")
    if per_layer:
        lines.append("   per-layer (one traced pass)")
        for metric, m in per_layer.items():
            lines.append(f"     {metric:<30} {_fmt(m['value']):>12} "
                         f"{m['unit']}")
        wall = per_layer["bench.traced_wall_s"]["value"]
        lines.append(f"   self time by layer (traced wall {_fmt(wall)} s)")
        rows = [(layer, f"{layer}.self_s") for layer in layers.LAYERS]
        for label, metric in rows + [("unattributed", "bench.unattributed_s")]:
            own = per_layer[metric]["value"]
            lines.append(f"     {label:<12} {own:10.4f} s "
                         f"{100 * own / wall if wall else 0:6.1f}%")
    return "\n".join(lines)


def environment(scrubbed, subreaper):
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform(),
            "scrubbed_env": scrubbed,
            # Without it, leaked grandchildren escape the leak check.
            "subreaper": subreaper}


def summary_line(results, trace):
    """The final JSON line: one workload's metrics by name, or every
    workload's as ``workload/metric``."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, doc in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric, m in doc.get(section, {}).items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": all(d["correct"] for d in results.values()),
        "attempted": sum(d["attempted"] for d in results.values()),
        "failed": sum(d["failed"] for d in results.values()),
        "metrics": metrics,
    })


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="End-to-end, layer-by-layer benchmark of the repro "
                    "CLI and daemon.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; "
                             "default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (shuffles warm-requests' order)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="length of each timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add one traced pass per workload and end "
                             "with the per-layer metrics (default)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the full results JSON here")
    parser.add_argument("--bless", action="store_true",
                        help="record this run's stdout digests and simulated "
                             "counts as the goldens, and its results as "
                             "bench/baseline.json (implies --trace 1)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    trace = bool(args.trace or args.bless)
    goldens = Goldens.load(GOLDENS_PATH, bless=args.bless)
    subreaper = become_subreaper()

    results = {}
    for name in args.workload or list(WORKLOADS):
        results[name] = run_workload(name, spec, args.seconds, args.seed,
                                     trace, goldens)
        print(render(name, results[name]), flush=True)
    doc = {"environment": environment(child_env(ROOT, "")[1], subreaper),
           "workloads": results}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
    correct = all(d["correct"] for d in results.values())
    if args.bless:
        if correct:
            for path, payload in ((GOLDENS_PATH, goldens.as_json()),
                                  (BASELINE_PATH, doc)):
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(payload, f, indent=1)
                    f.write("\n")
            print(f"blessed {GOLDENS_PATH} and {BASELINE_PATH}")
        else:
            print("not blessed: the run had failures", file=sys.stderr)
    print(summary_line(results, trace), flush=True)
    return 0 if correct else 1
