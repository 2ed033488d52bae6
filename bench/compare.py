"""Compare benchmark runs of a parent commit and a change::

    python3 bench/compare.py PARENT.json... CHANGE.json...

Each file is one ``--out`` results document (one harness run, one or
more workloads). The first half of the files are the parent's runs and
the second half the change's, paired in order: parent run *i* with
change run *i* (alternate which side runs first when making them).

One row per workload and end-to-end metric of ``BENCHMARK.json``: each
side's median and quartiles over its runs, the change in percent, the
metric's bound, the pairs the change won, and a verdict:

``gain``
    the change won at least 9/10 of the pairs (ties count for neither)
    and the medians differ by more than the parent's inter-quartile
    distance;
``unresolved``
    the parent's own spread (inter-quartile distance over median) is
    wider than the bound, and not every change run beat every parent
    run, so the data cannot tell a regression from noise;
``regression``
    the change's median is worse than the parent's by more than the
    bound;
``within bound``
    otherwise.

Exits 1 when any row is a regression, 2 on bad input.
"""

from __future__ import annotations

import json
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from bench.stats import quartiles, relative_spread  # noqa: E402

BENCHMARK_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def _beats(a, b, better):
    return a < b if better == "lower" else a > b


def wins(parent, change, better):
    """Pairs in which the change read better; ties count for neither."""
    return sum(_beats(c, p, better) for p, c in zip(parent, change))


def verdict(parent, change, better, bound):
    """The verdict for one metric; ``parent``/``change`` hold one value
    per run, paired by position."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    pairs = min(len(parent), len(change))
    if (wins(parent, change, better) >= 0.9 * pairs
            and _beats(c_med, p_med, better)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "gain"
    if relative_spread(parent) > bound and not all(
            _beats(c, p, better) for c in change for p in parent):
        return "unresolved"
    worse = (c_med - p_med) / p_med
    if better != "lower":
        worse = -worse
    return "regression" if worse > bound else "within bound"


def rows(parent_docs, change_docs, metrics):
    """One dict per (workload, end-to-end metric) both sides measured."""
    out = []
    workloads = [w for w in parent_docs[0]["workloads"]
                 if all(w in d["workloads"] for d in parent_docs + change_docs)]
    for workload in workloads:
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            parent, change = (
                [d["workloads"][workload]["end_to_end"][name]["value"]
                 for d in docs]
                for docs in (parent_docs, change_docs))
            p, c = quartiles(parent), quartiles(change)
            out.append({
                "workload": workload, "metric": name,
                "parent": p, "change": c,
                "delta_pct": (c[1] - p[1]) / p[1] * 100 if p[1] else 0.0,
                "bound_pct": metric["bound"] * 100,
                "wins": wins(parent, change, better),
                "pairs": min(len(parent), len(change)),
                "verdict": verdict(parent, change, better, metric["bound"]),
            })
    return out


def render(table):
    lines = [f"{'workload':<22} {'metric':<12} {'parent median [q1 q3]':>28} "
             f"{'change median [q1 q3]':>28} {'delta':>8} {'bound':>6} "
             f"{'wins':>6}  verdict"]
    for r in table:
        def side(q):
            return f"{q[1]:.4g} [{q[0]:.4g} {q[2]:.4g}]"

        lines.append(
            f"{r['workload']:<22} {r['metric']:<12} {side(r['parent']):>28} "
            f"{side(r['change']):>28} {r['delta_pct']:+7.2f}% "
            f"{r['bound_pct']:5.0f}% {r['wins']:>2}/{r['pairs']:<3}  "
            f"{r['verdict']}")
    return "\n".join(lines)


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths or len(paths) % 2:
        print("usage: compare.py PARENT.json... CHANGE.json... (as many "
              "change runs as parent runs)", file=sys.stderr)
        return 2
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    with open(BENCHMARK_PATH, encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    half = len(docs) // 2
    table = rows(docs[:half], docs[half:], metrics)
    print(render(table))
    return 1 if any(r["verdict"] == "regression" for r in table) else 0


if __name__ == "__main__":
    sys.exit(main())
