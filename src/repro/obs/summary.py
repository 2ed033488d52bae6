"""Human-readable trace summaries (``repro obs summary``).

Turns a JSONL span trace into the three questions an engine run
raises:

* **Where did the time go?** Top span names by *self time* -- a span's
  duration minus its same-process children (cross-process children run
  on an unrelated clock and overlap the owner anyway, so they are never
  subtracted; negatives clamp to zero).
* **Which cache tier served which kernel?** Every ``cache.lookup`` span
  carries ``kind`` (the kernel) and ``tier`` (``memory``/``disk``/
  ``miss``) attributes; the summary tabulates hit rates per kind.
* **Did the pool earn its keep?** Per ``parallel.map`` fan-out:
  dispatched task count, worker count, and utilization = summed
  worker-task busy time / (map wall time x workers).
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.export import load_spans, load_spans_tolerant


def _fmt_ms(ns):
    return f"{ns / 1e6:10.3f}"


def self_times(spans):
    """``{sid: self_ns}``: duration minus same-pid children, >= 0."""
    child_ns = defaultdict(int)
    by_sid = {s.sid: s for s in spans}
    for span in spans:
        parent = by_sid.get(span.parent) if span.parent is not None \
            else None
        if parent is not None and parent.pid == span.pid:
            child_ns[parent.sid] += span.duration_ns
    return {
        s.sid: max(0, s.duration_ns - child_ns.get(s.sid, 0))
        for s in spans
    }


def aggregate_by_name(spans):
    """Per-name totals: ``{name: dict(count, total_ns, self_ns)}``."""
    selfs = self_times(spans)
    out = {}
    for span in spans:
        row = out.setdefault(span.name,
                             {"count": 0, "total_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += span.duration_ns
        row["self_ns"] += selfs[span.sid]
    return out


def cache_tiers(spans):
    """Per-kernel-kind tier counts from ``cache.lookup`` spans:
    ``{kind: {"memory": n, "disk": n, "miss": n}}``."""
    out = {}
    for span in spans:
        if span.name != "cache.lookup":
            continue
        kind = span.attrs.get("kind", "?")
        tier = span.attrs.get("tier", "?")
        out.setdefault(kind, defaultdict(int))[tier] += 1
    return {k: dict(v) for k, v in out.items()}


def pool_stats(spans):
    """Per ``parallel.map`` fan-out: tasks, workers, wall, busy,
    utilization (pooled fan-outs only -- inline maps have no workers)."""
    tasks_by_parent = defaultdict(int)
    busy_by_parent = defaultdict(int)
    for span in spans:
        if span.name == "worker.task" and span.parent is not None:
            tasks_by_parent[span.parent] += 1
            busy_by_parent[span.parent] += span.duration_ns
    out = []
    for span in spans:
        if span.name != "parallel.map":
            continue
        if span.attrs.get("inline"):
            continue
        workers = int(span.attrs.get("workers", 1))
        wall_ns = span.duration_ns
        busy_ns = busy_by_parent.get(span.sid, 0)
        capacity = wall_ns * workers
        out.append({
            "fn": span.attrs.get("fn", "?"),
            "tasks": int(span.attrs.get("tasks",
                                        tasks_by_parent.get(span.sid, 0))),
            "workers": workers,
            "wall_ns": wall_ns,
            "busy_ns": busy_ns,
            "utilization": (busy_ns / capacity) if capacity else 0.0,
        })
    return out


def render_summary(spans, top=15):
    """The full ``repro obs summary`` report for a span list."""
    if not spans:
        return "empty trace: no spans"
    lines = []
    pids = sorted({s.pid for s in spans})
    total_ns = sum(s.duration_ns for s in spans if s.parent is None)
    lines.append(
        f"trace summary: {len(spans)} spans across {len(pids)} "
        f"process(es); root wall time {total_ns / 1e6:.3f} ms"
    )

    lines.append("")
    lines.append(f"top {top} span names by self time:")
    lines.append(f"  {'name':<28} {'count':>6} {'self ms':>10} "
                 f"{'total ms':>10} {'mean us':>9}")
    rows = sorted(aggregate_by_name(spans).items(),
                  key=lambda kv: (-kv[1]["self_ns"], kv[0]))
    for name, row in rows[:top]:
        mean_us = row["total_ns"] / row["count"] / 1e3
        lines.append(
            f"  {name:<28} {row['count']:>6} {_fmt_ms(row['self_ns'])} "
            f"{_fmt_ms(row['total_ns'])} {mean_us:>9.1f}"
        )

    tiers = cache_tiers(spans)
    if tiers:
        lines.append("")
        lines.append("cache lookups by kernel and tier:")
        lines.append(f"  {'kind':<22} {'memory':>7} {'disk':>6} "
                     f"{'miss':>6} {'hit rate':>9}")
        for kind in sorted(tiers):
            counts = tiers[kind]
            memory = counts.get("memory", 0)
            disk = counts.get("disk", 0)
            miss = counts.get("miss", 0)
            lookups = memory + disk + miss
            rate = (memory + disk) / lookups if lookups else 0.0
            lines.append(
                f"  {kind:<22} {memory:>7} {disk:>6} {miss:>6} "
                f"{rate:>8.1%}"
            )

    pools = pool_stats(spans)
    if pools:
        lines.append("")
        lines.append("pool fan-outs (parallel.map):")
        lines.append(f"  {'fn':<28} {'tasks':>6} {'workers':>8} "
                     f"{'wall ms':>10} {'busy ms':>10} {'util':>6}")
        for row in pools:
            lines.append(
                f"  {row['fn']:<28} {row['tasks']:>6} "
                f"{row['workers']:>8} {_fmt_ms(row['wall_ns'])} "
                f"{_fmt_ms(row['busy_ns'])} {row['utilization']:>5.0%}"
            )

    return "\n".join(lines)


def summarize_file(path, top=15):
    """Load a JSONL trace and render its summary.

    Uses the tolerant loader: an in-flight run's partial tail line is
    skipped and noted under the report instead of killing the summary
    (mid-file corruption still raises ``ValueError``, as does a
    Chrome-format trace).
    """
    spans, skipped_tail = load_spans_tolerant(path)
    report = render_summary(spans, top=top)
    if skipped_tail:
        report += (f"\n\nnote: skipped {skipped_tail} partial line(s) at "
                   f"end of trace (run still in flight?)")
    return report
