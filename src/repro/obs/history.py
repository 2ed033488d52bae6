"""Longitudinal run history: persist, diff, and gate scorecards over
time (DESIGN.md section 15).

Every ``score``/``compare``/``subset``/``experiment`` run computes a
scorecard and throws it away; nothing in the system could answer "did
this suite's scores (or this repo's performance) drift since last
week?". This module is the missing memory:

* :class:`HistoryStore` -- an append-only directory of per-run JSON
  records, keyed by the run manifest's ``config_digest``. A record
  carries the full scorecard with every float in the wire encoding
  (plain JSON number + little-endian IEEE-754 hex bits, exactly the
  :mod:`repro.service.protocol` convention), the
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot (cache tiers,
  pool utilization), per-span-name wall/self-time totals from
  the tracer, and the run manifest itself -- enough to re-key, re-plot
  and bit-diff any run from its artifact alone.
* :class:`HistoryRecorder` -- the in-process collection hook. Like the
  span tracer, it installs as a module global; scoring handlers call
  :func:`publish` unconditionally (a no-op while no recorder is
  installed), so recording can never perturb a result -- ``repro qa
  --history`` enforces the consequence at the bit level.
* :func:`diff_records` -- **bit-exact** score diffing through the hex
  bit patterns (never through re-parsed floats): under an equal
  ``config_digest``, any changed bit is a determinism regression, not
  noise. Perf metrics (wall time, cache hit rates) are *tolerance*
  quantities and diff as relative deltas instead.
* :func:`check_trajectory` -- scan one digest's run sequence and flag
  score drift (always fatal) or perf regressions beyond configurable
  thresholds (warm-run wall time, cache hit rate) -- the ``repro obs
  check`` CI gate.
* :func:`window_trajectory` -- trajectories *inside* a single run: as
  the interval sampler's counter windows accumulate workload rows,
  cumulative prefixes of the suite are scored incrementally through
  the precompute-and-slice machinery
  (:class:`~repro.engine.subset_eval.SubsetEvaluator` -- full-suite
  kernels computed once, every window scored by index slicing), so one
  record shows how the scores converged as the suite filled in.

Surfaced as ``--history-dir`` / ``$REPRO_HISTORY`` on every scoring
subcommand plus ``repro obs history`` (list trajectories),
``repro obs diff`` (bit-exact two-run diff) and ``repro obs check``
(regression gate); the scoring daemon records served runs into the
same store and lists them at ``GET /v1/history``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from repro.obs.export import _atomic_write
from repro.obs.summary import aggregate_by_name

SCHEMA_VERSION = 1

#: Environment variable naming the default history directory.
HISTORY_ENV = "REPRO_HISTORY"

#: Default perf-regression thresholds for :func:`check_trajectory`.
#: Wall time is compared against the best (fastest) earlier run of the
#: same digest -- the "warm-run wall time" gate -- and hit rates
#: against the best earlier rate.
MAX_WALL_REGRESSION_PCT = 25.0
MAX_HIT_RATE_DROP = 0.10

_SCORES = ("cluster", "trend", "coverage", "spread")


# -- recorder -----------------------------------------------------------------


class HistoryRecorder:
    """Collects one run's scoring artifacts until the record is built.

    Handlers publish live objects (scorecards, subset reports, search
    results, window trajectories, rendered report text, a metrics
    snapshot); :func:`build_record` encodes them into the JSON-safe,
    bit-exact record shape. Publishing only ever appends to these
    lists -- it reads nothing back -- so an installed recorder cannot
    change any output bit.
    """

    def __init__(self):
        self.scorecards = []
        self.subset_reports = []
        self.search_results = []
        self.windows = []
        self.rendered = []
        self.metrics_snapshot = None

    def publish(self, kind, obj):
        if kind == "scorecard":
            self.scorecards.append(obj)
        elif kind == "subset_report":
            self.subset_reports.append(obj)
        elif kind == "search_result":
            self.search_results.append(obj)
        elif kind == "windows":
            self.windows.extend(obj)
        elif kind == "rendered":
            self.rendered.append(str(obj))
        elif kind == "metrics":
            self.metrics_snapshot = obj
        else:
            raise ValueError(f"unknown history publish kind {kind!r}")


_RECORDER = None


def install_recorder(recorder=None):
    """Install (and return) the process-wide history recorder."""
    global _RECORDER
    _RECORDER = recorder if recorder is not None else HistoryRecorder()
    return _RECORDER


def uninstall_recorder():
    """Remove the installed recorder (idempotent)."""
    global _RECORDER
    _RECORDER = None


def current_recorder():
    """The installed :class:`HistoryRecorder`, or ``None``."""
    return _RECORDER


def publish(kind, obj):
    """Hand one artifact to the installed recorder; no-op without one.

    Safe to wire permanently into handlers, exactly like
    :func:`repro.obs.trace.span`: one module-global read when recording
    is off.
    """
    if _RECORDER is not None:
        _RECORDER.publish(kind, obj)


# -- record building ----------------------------------------------------------


def _rendered_sha256(texts):
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def build_record(command, manifest, recorder, spans=None, wall_s=None):
    """The JSON-safe history record for one finished run.

    Parameters
    ----------
    command:
        Subcommand name (``"score"``, ``"serve:score"``, ...).
    manifest:
        The run manifest (:func:`repro.obs.manifest.build_manifest`);
        its ``config_digest`` keys the record's trajectory.
    recorder:
        The :class:`HistoryRecorder` the run published into.
    spans:
        Finished :class:`~repro.obs.trace.SpanRecord` list; aggregated
        into per-name wall/self-time totals (empty when untraced).
    wall_s:
        End-to-end run wall time in seconds, measured by the caller.
    """
    # Lazy: repro.service.app pulls repro.obs in at import time, so the
    # obs package must not import repro.service back at module level.
    from repro.service import protocol

    cards = [protocol.encode_scorecard(c) for c in recorder.scorecards]
    rendered = [card["rendered"] for card in cards]
    rendered.extend(str(r) for r in recorder.subset_reports)
    rendered.extend(str(r) for r in recorder.search_results)
    rendered.extend(recorder.rendered)
    snapshot = recorder.metrics_snapshot
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_digest": manifest["config_digest"],
        "manifest": dict(manifest),
        "scorecards": cards,
        "subset_reports": [protocol.encode_subset_report(r)
                           for r in recorder.subset_reports],
        "search_results": [protocol.encode_search_result(r)
                           for r in recorder.search_results],
        "windows": list(recorder.windows),
        "rendered_sha256": _rendered_sha256(rendered),
        "metrics": (None if snapshot is None else
                    {"values": dict(snapshot.values),
                     "kinds": dict(snapshot.kinds)}),
        "self_times": aggregate_by_name(spans or []),
        "wall_time_s": None if wall_s is None else float(wall_s),
        "created_unix": time.time(),
    }
    return record


# -- the store ----------------------------------------------------------------


class HistoryStore:
    """Append-only directory of run records.

    One JSON file per run, named ``run-<seq>-<digest12>.json``: the
    sequence number orders the trajectory, the digest prefix makes
    ``ls`` group related runs visually. Appends reserve the name with
    ``O_EXCL`` (two concurrent writers can never claim the same run
    id) and land the content with an atomic replace, so a crash
    mid-append never leaves a half-written record under a claimed
    name.
    """

    def __init__(self, root):
        self.root = os.fspath(root)

    def _paths(self):
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(
            os.path.join(self.root, n) for n in names
            if n.startswith("run-") and n.endswith(".json")
        )

    def __len__(self):
        return len(self._paths())

    def _next_seq(self):
        best = 0
        for path in self._paths():
            parts = os.path.basename(path).split("-")
            try:
                best = max(best, int(parts[1]))
            except (IndexError, ValueError):
                continue
        return best + 1

    def append(self, record):
        """Assign the next run id, persist the record, return its path
        (``record['run_id']`` is filled in)."""
        os.makedirs(self.root, exist_ok=True)
        digest12 = str(record.get("config_digest", ""))[:12] or "nodigest"
        seq = self._next_seq()
        while True:
            run_id = f"run-{seq:06d}-{digest12}"
            path = os.path.join(self.root, f"{run_id}.json")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                seq += 1
                continue
            os.close(fd)
            break
        record = dict(record, run_id=run_id)
        _atomic_write(path, json.dumps(record, indent=2, sort_keys=True)
                      + "\n")
        return path

    def run_ids(self):
        """All run ids, oldest first."""
        return [os.path.basename(p)[:-5] for p in self._paths()]

    def load(self, run_id):
        """One record by run id (``run-000001-ab12...``), bare sequence
        number (``1``), or unique prefix."""
        wanted = str(run_id)
        ids = self.run_ids()
        if wanted.isdigit():
            seq = int(wanted)
            matches = [r for r in ids
                       if r.split("-")[1] == f"{seq:06d}"]
        else:
            matches = [r for r in ids if r == wanted]
            if not matches:
                matches = [r for r in ids if r.startswith(wanted)]
        if not matches:
            raise KeyError(f"no run {run_id!r} in {self.root}")
        if len(matches) > 1:
            raise KeyError(f"run id {run_id!r} is ambiguous in "
                           f"{self.root}: {matches}")
        path = os.path.join(self.root, f"{matches[0]}.json")
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        version = record.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"{path}: history schema {version!r} != "
                             f"{SCHEMA_VERSION}")
        return record

    def runs(self):
        """All records, oldest first."""
        return [self.load(run_id) for run_id in self.run_ids()]

    def trajectories(self):
        """``{config_digest: [records, oldest first]}`` preserving
        first-seen digest order."""
        out = {}
        for record in self.runs():
            out.setdefault(record.get("config_digest", "?"),
                           []).append(record)
        return out


# -- bit-exact diffing --------------------------------------------------------


def _bits_of(record):
    """Flatten every bit-pattern hex in a record into one ordered
    ``{label: hexbits}`` map -- the comparison surface of the bit-exact
    diff. Labels are stable and human-readable (``scorecards[0].
    score_bits.cluster``)."""
    out = {}

    def _take_map(label, mapping):
        for key in sorted(mapping):
            out[f"{label}.{key}"] = mapping[key]

    for i, card in enumerate(record.get("scorecards", ())):
        label = f"scorecards[{i}]"
        _take_map(f"{label}.score_bits", card.get("score_bits", {}))
        details = card.get("details", {})
        for name, attr in (("cluster", "per_k_bits"),
                           ("trend", "per_event_bits"),
                           ("spread", "per_item_bits")):
            detail = details.get(name)
            if detail is not None:
                _take_map(f"{label}.{name}.{attr}", detail.get(attr, {}))
        coverage = details.get("coverage")
        if coverage is not None:
            for j, bits in enumerate(
                    coverage.get("component_variance_bits", ())):
                out[f"{label}.coverage.component_variance_bits[{j}]"] = \
                    bits
    for i, report in enumerate(record.get("subset_reports", ())):
        label = f"subset_reports[{i}]"
        for name in ("full_score_bits", "subset_score_bits",
                     "deviation_bits"):
            _take_map(f"{label}.{name}", report.get(name, {}))
        out[f"{label}.mean_deviation_pct_bits"] = \
            report.get("mean_deviation_pct_bits")
    for i, result in enumerate(record.get("search_results", ())):
        label = f"search_results[{i}]"
        out[f"{label}.best.selected"] = \
            ",".join(result.get("best", {}).get("selected", ()))
        best = result.get("best", {})
        for name in ("full_score_bits", "subset_score_bits",
                     "deviation_bits"):
            _take_map(f"{label}.best.{name}", best.get(name, {}))
        out[f"{label}.best.mean_deviation_pct_bits"] = \
            best.get("mean_deviation_pct_bits")
    for i, window in enumerate(record.get("windows", ())):
        _take_map(f"windows[{i}].score_bits",
                  window.get("score_bits", {}))
    out["rendered_sha256"] = record.get("rendered_sha256")
    return out


def _hit_rate(record):
    """The warm-tier hit rate of a record's metrics snapshot: lookups
    served by the in-memory *or* the disk tier, over all lookups --
    the same semantics ``repro obs summary`` tabulates. (A disk-warm
    run legitimately trades memory hits for disk hits; only falling
    through to an actual compute is a cold lookup.)"""
    metrics = record.get("metrics") or {}
    values = metrics.get("values") or {}
    hits = values.get("cache_hits")
    misses = values.get("cache_misses")
    if hits is None and misses is None:
        return None
    lookups = (hits or 0) + (misses or 0)
    if not lookups:
        return None
    warm = (hits or 0) + (values.get("disk_hits") or 0)
    return warm / lookups


@dataclass(frozen=True)
class RunDiff:
    """Outcome of a two-record comparison.

    ``drift`` lists every bit-level difference (label + both hex
    patterns); under an equal ``config_digest`` any entry is a
    determinism regression. ``perf`` carries the tolerance-based
    deltas (wall time, hit rates) -- informational here, thresholded
    by :func:`check_trajectory`.
    """

    run_a: str
    run_b: str
    same_digest: bool
    drift: tuple
    perf: dict = field(default_factory=dict)

    @property
    def clean(self):
        return not self.drift


def diff_records(a, b):
    """Bit-exact diff of two history records.

    Scores are compared as hex bit patterns -- the floats are never
    re-parsed, so NaN payloads, signed zeros and formatting can neither
    hide nor fake a change. Perf quantities (wall time, cache hit
    rates) compare as relative deltas in :attr:`RunDiff.perf`.
    """
    bits_a, bits_b = _bits_of(a), _bits_of(b)
    drift = []
    for label in sorted(set(bits_a) | set(bits_b)):
        va, vb = bits_a.get(label), bits_b.get(label)
        if va != vb:
            drift.append(f"{label}: {va or '<absent>'} != "
                         f"{vb or '<absent>'}")
    perf = {}
    wall_a, wall_b = a.get("wall_time_s"), b.get("wall_time_s")
    if wall_a and wall_b:
        perf["wall_time_s"] = (wall_a, wall_b)
        perf["wall_delta_pct"] = 100.0 * (wall_b - wall_a) / wall_a
    rate_a, rate_b = _hit_rate(a), _hit_rate(b)
    if rate_a is not None or rate_b is not None:
        perf["warm_hit_rate"] = (rate_a, rate_b)
    return RunDiff(
        run_a=a.get("run_id", "?"),
        run_b=b.get("run_id", "?"),
        same_digest=(a.get("config_digest") == b.get("config_digest")),
        drift=tuple(drift),
        perf=perf,
    )


def render_diff(diff):
    """Human report for one :class:`RunDiff`."""
    lines = [f"history diff: {diff.run_a} vs {diff.run_b} "
             f"({'equal' if diff.same_digest else 'DIFFERENT'} config "
             f"digest)"]
    if diff.clean:
        lines.append("  scores: bit-identical (zero drift)")
    else:
        head = ("DETERMINISM REGRESSION" if diff.same_digest
                else "score drift (configs differ; expected)")
        lines.append(f"  scores: {head} -- "
                     f"{len(diff.drift)} changed bit pattern(s)")
        lines.extend(f"    {entry}" for entry in diff.drift[:20])
        if len(diff.drift) > 20:
            lines.append(f"    ... and {len(diff.drift) - 20} more")
    if "wall_delta_pct" in diff.perf:
        wall_a, wall_b = diff.perf["wall_time_s"]
        lines.append(f"  wall time: {wall_a:.3f} s -> {wall_b:.3f} s "
                     f"({diff.perf['wall_delta_pct']:+.1f}%)")
    if "warm_hit_rate" in diff.perf:
        rate_a, rate_b = diff.perf["warm_hit_rate"]

        def _fmt(rate):
            return "n/a" if rate is None else f"{rate:.1%}"

        lines.append(f"  warm-tier hit rate: {_fmt(rate_a)} -> "
                     f"{_fmt(rate_b)}")
    return "\n".join(lines)


# -- trajectory checking ------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryFinding:
    """One regression flagged by :func:`check_trajectory`."""

    run_id: str
    kind: str  # "score-drift" | "wall-regression" | "hit-rate-drop"
    message: str

    def __str__(self):
        return f"[{self.kind}] {self.run_id}: {self.message}"


def check_trajectory(records, max_wall_pct=MAX_WALL_REGRESSION_PCT,
                     max_hit_drop=MAX_HIT_RATE_DROP):
    """Scan one digest's run sequence (oldest first) for regressions.

    * **Score drift** -- every run must be bit-identical to the
      trajectory's first run; the records share a config digest, so any
      changed bit is a determinism regression (no threshold).
    * **Wall regression** -- a run slower than the best earlier run by
      more than ``max_wall_pct`` percent. Comparing against the *best*
      makes this the warm-run gate: once a warm run has shown how fast
      the config can be, later runs may not quietly give that back.
    * **Hit-rate drop** -- a warm-tier hit rate (lookups served by the
      in-memory or disk tier, over all lookups) more than
      ``max_hit_drop`` (absolute) below the best earlier rate.

    Pass ``None`` for either threshold to disable that check.
    """
    findings = []
    if len(records) < 2:
        return findings
    baseline = records[0]
    best_wall = baseline.get("wall_time_s")
    best_rate = _hit_rate(baseline)
    for record in records[1:]:
        run_id = record.get("run_id", "?")
        diff = diff_records(baseline, record)
        if diff.drift:
            findings.append(TrajectoryFinding(
                run_id=run_id, kind="score-drift",
                message=(f"{len(diff.drift)} bit pattern(s) changed vs "
                         f"{baseline.get('run_id', '?')} under an equal "
                         f"config digest (first: {diff.drift[0]})"),
            ))
        wall = record.get("wall_time_s")
        if max_wall_pct is not None and wall and best_wall:
            limit = best_wall * (1.0 + max_wall_pct / 100.0)
            if wall > limit:
                findings.append(TrajectoryFinding(
                    run_id=run_id, kind="wall-regression",
                    message=(f"wall time {wall:.3f} s exceeds best "
                             f"earlier {best_wall:.3f} s by more than "
                             f"{max_wall_pct:.0f}%"),
                ))
        if wall:
            best_wall = wall if best_wall is None else min(best_wall,
                                                           wall)
        rate = _hit_rate(record)
        if max_hit_drop is not None and rate is not None \
                and best_rate is not None \
                and rate < best_rate - max_hit_drop:
            findings.append(TrajectoryFinding(
                run_id=run_id, kind="hit-rate-drop",
                message=(f"warm-tier hit rate {rate:.1%} fell more "
                         f"than {max_hit_drop:.0%} below best earlier "
                         f"{best_rate:.1%}"),
            ))
        if rate is not None:
            best_rate = rate if best_rate is None else max(best_rate,
                                                           rate)
    return findings


def check_store(store, digest=None, max_wall_pct=MAX_WALL_REGRESSION_PCT,
                max_hit_drop=MAX_HIT_RATE_DROP):
    """Run :func:`check_trajectory` over every trajectory in a store
    (or just ``digest``'s); returns the combined finding list."""
    findings = []
    for run_digest, records in store.trajectories().items():
        if digest is not None and not run_digest.startswith(digest):
            continue
        findings.extend(check_trajectory(records,
                                         max_wall_pct=max_wall_pct,
                                         max_hit_drop=max_hit_drop))
    return findings


# -- trajectory listing -------------------------------------------------------


def _record_scores(record):
    """``{score: (value, bits)}`` of a record's first scorecard (or the
    first window-less artifact that carries scores); empty otherwise."""
    cards = record.get("scorecards") or ()
    if cards:
        card = cards[0]
        return {
            name: (card.get("scores", {}).get(name),
                   card.get("score_bits", {}).get(name))
            for name in _SCORES
        }
    return {}


def render_history(store, digest=None):
    """The ``repro obs history`` report: every trajectory (grouped by
    config digest), one line per run, plus per-score sparkline-style
    drift strips (``*`` first run, ``=`` bit-equal to the previous run,
    ``!`` drift)."""
    trajectories = store.trajectories()
    if digest is not None:
        trajectories = {d: records
                        for d, records in trajectories.items()
                        if d.startswith(digest)}
    if not trajectories:
        return "history: no recorded runs"
    lines = []
    for run_digest, records in trajectories.items():
        commands = sorted({r.get("command", "?") for r in records})
        lines.append(f"config {run_digest[:12]} "
                     f"({', '.join(commands)}; {len(records)} run(s)):")
        bits_seq = [_bits_of(r) for r in records]
        strips = {}
        for name in _SCORES:
            strip = []
            for i, record in enumerate(records):
                scores = _record_scores(record)
                if name not in scores or scores[name][1] is None:
                    strip.append(" ")
                elif i == 0:
                    strip.append("*")
                else:
                    key = f"scorecards[0].score_bits.{name}"
                    strip.append("=" if bits_seq[i].get(key)
                                 == bits_seq[i - 1].get(key) else "!")
            if strip and set(strip) != {" "}:
                strips[name] = "".join(strip)
        for name, strip in strips.items():
            latest = _record_scores(records[-1]).get(name)
            value = ("" if latest is None or latest[0] is None
                     else f"  latest={latest[0]:.4f}")
            lines.append(f"  {name:<9} {strip}{value}")
        identical = ["*"] + [
            "=" if bits_seq[i] == bits_seq[i - 1] else "!"
            for i in range(1, len(records))
        ]
        lines.append(f"  {'all bits':<9} {''.join(identical)}")
        for record in records:
            wall = record.get("wall_time_s")
            wall_text = "     n/a" if wall is None else f"{wall:8.3f}"
            created = record.get("created_unix")
            when = ("" if created is None else time.strftime(
                "%Y-%m-%d %H:%M:%S", time.gmtime(created)))
            lines.append(f"    {record.get('run_id', '?'):<28} "
                         f"{record.get('command', '?'):<14} "
                         f"wall {wall_text} s  {when}")
        lines.append("")
    return "\n".join(lines).rstrip()


# -- windowed trajectories inside one run -------------------------------------


def window_trajectory(matrix, seed=0, n_windows=4, engine=None):
    """Score cumulative windows of one measured suite incrementally.

    The interval sampler delivers one counter window per measured
    workload; this scores the accumulated matrix after each window of
    arrivals -- the streaming-ingestion view of a run -- without
    recomputing any kernel: a single
    :class:`~repro.engine.subset_eval.SubsetEvaluator` precomputes the
    full-suite kernels once and every cumulative prefix is evaluated
    by index slicing (bit-identical to scoring the prefix directly
    under shared bounds, per the DESIGN.md section 8 contract).

    Returns a list of window dicts, each carrying the prefix size and
    the four scores as plain floats plus IEEE-754 hex bits, ready to
    embed in a history record. The final window covers the whole suite.
    """
    from repro.engine.subset_eval import SubsetEvaluator
    from repro.service.protocol import float_bits

    names = list(matrix.workloads)
    n = len(names)
    if n < 2:
        raise ValueError("window trajectories need at least 2 workloads")
    n_windows = max(1, min(int(n_windows), n - 1))
    sizes = sorted({
        max(2, round(2 + (n - 2) * (i + 1) / n_windows))
        for i in range(n_windows)
    })
    if sizes[-1] != n:
        sizes.append(n)
    evaluator = SubsetEvaluator(matrix, seed=seed, engine=engine)
    windows = []
    for index, size in enumerate(sizes):
        report = evaluator.evaluate(names[:size])
        scores = {name: float(value)
                  for name, value in report.subset_scores.items()}
        windows.append({
            "window": index,
            "workloads": size,
            "scores": scores,
            "score_bits": {name: float_bits(value)
                           for name, value in scores.items()},
        })
    return windows
