"""Wire protocol for the scoring service: bit-exact JSON payloads.

The service's load-bearing invariant is that a scorecard served over
HTTP is **bit-identical** to the one the one-shot CLI prints. JSON's
number grammar cannot carry that promise on its own -- NaN payloads,
signed zeros and round-trip formatting are all at the mercy of the
peer's parser -- so every float that participates in the bit-identity
contract travels twice:

* as a plain JSON number (human-readable, good enough for dashboards),
* as the little-endian IEEE-754 bit pattern in hex (``score_bits`` /
  the ``*_bits`` detail maps), which round-trips exactly.

Every comparison of score results reads these records: :func:`flatten`
turns one into ``{label: value}`` leaves and :func:`record_diff` lists
the labels two records disagree on. The qa harness diffs live results
through :func:`scorecard_record` / :func:`subset_report_record`, its
served rows diff a served payload directly, and ``repro obs diff``
diffs history records, so a field the encoders gain is compared
everywhere at once.

Every response also carries ``rendered``: the exact ``str()`` text the
CLI would have printed, so ``repro client score`` emits byte-for-byte
what ``repro score`` does.

The same codec persists whole scorecards and subset-search candidate
reports in the disk tier (:func:`scorecard_record` /
:func:`decode_stored_scorecard`, :func:`subset_report_record` /
:func:`decode_subset_report`), so the wire, the run history and the
disk share one bit encoding, and one decoder per result kind. The module
imports numpy only to encode arrays: a disk-warm ``repro score``
decodes its scorecard without it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core.report import SCORES, SuiteScorecard

#: Default bind address/port of ``repro serve`` (and of the client).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8641

#: Wire-format version; servers and clients reject mismatches loudly
#: instead of mis-decoding silently.
PROTOCOL_VERSION = 1


def float_bits(value):
    """Little-endian IEEE-754 hex of one float (bit-exact, NaN-stable)."""
    return struct.pack("<d", float(value)).hex()


def bits_float(hexpattern):
    """Inverse of :func:`float_bits`."""
    return struct.unpack("<d", bytes.fromhex(hexpattern))[0]


def _bits_map(mapping):
    """``{str(key): float_bits(value)}`` for a numeric-valued mapping."""
    return {str(key): float_bits(value) for key, value in mapping.items()}


# -- arrays and matrices ------------------------------------------------------


def encode_array(array):
    """JSON-safe dict carrying one ndarray's exact bytes.

    The dtype string, shape and raw buffer travel as hex, so the
    encoding pins an array bit for bit, the same way scores ride on
    :func:`float_bits`.
    """
    import numpy as np

    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise ValueError("object arrays have no wire representation")
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": array.tobytes().hex(),
    }


def encode_counter_matrix(matrix):
    """JSON-safe dict for a :class:`~repro.core.matrix.CounterMatrix`,
    bit-exact (values and every per-event series travel via
    :func:`encode_array`; event order of ``series`` is preserved)."""
    return {
        "suite_name": matrix.suite_name,
        "workloads": [str(w) for w in matrix.workloads],
        "events": [str(e) for e in matrix.events],
        "values": encode_array(matrix.values),
        "series": {
            str(event): [encode_array(s) for s in series_list]
            for event, series_list in matrix.series.items()
        },
    }


# -- scorecards ---------------------------------------------------------------


def scorecard_record(card):
    """The bit-exact core of :func:`encode_scorecard`: scores, per-k /
    per-event / per-item maps and coverage components as IEEE-754 hex,
    without the ``rendered`` text or the ``details["engine"]`` counters
    of the run that computed it. This is the disk tier's scorecard
    entry; :func:`decode_stored_scorecard` reads it back."""
    scores = {name: getattr(card, name) for name in SCORES}
    payload = {
        "suite": card.suite_name,
        "focus": card.focus,
        "scores": {name: float(v) for name, v in scores.items()},
        "score_bits": {name: float_bits(v) for name, v in scores.items()},
        "details": {},
    }
    details = payload["details"]
    cluster = card.details.get("cluster")
    if cluster is not None:
        details["cluster"] = {"per_k_bits": _bits_map(cluster.per_k)}
    trend = card.details.get("trend")
    if trend is not None:
        details["trend"] = {"per_event_bits": _bits_map(trend.per_event)}
    spread = card.details.get("spread")
    if spread is not None:
        details["spread"] = {"per_item_bits": _bits_map(spread.per_item)}
    coverage = card.details.get("coverage")
    if coverage is not None:
        details["coverage"] = {
            "n_components": int(coverage.n_components),
            "component_variance_bits": [
                float_bits(v) for v in coverage.component_variances
            ],
        }
    return payload


def encode_scorecard(card):
    """JSON-safe dict for one :class:`~repro.core.report.SuiteScorecard`:
    :func:`scorecard_record` plus the rendered text and the engine
    counters."""
    payload = scorecard_record(card)
    payload["rendered"] = str(card)
    engine = card.details.get("engine")
    if engine is not None:
        payload["details"]["engine"] = dict(engine)
    return payload


@dataclass(frozen=True)
class ServedDetail:
    """Per-score decomposition of a decoded scorecard: the
    ``per_k``/``per_event``/``per_item`` map :func:`scorecard_record`
    reads off the real result dataclasses."""

    per_k: dict = field(default_factory=dict)
    per_event: dict = field(default_factory=dict)
    per_item: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ServedCoverage:
    """Coverage detail of a decoded scorecard: what
    :func:`scorecard_record` reads."""

    n_components: int
    component_variances: tuple


def decode_stored_scorecard(payload):
    """Rebuild a :class:`~repro.core.report.SuiteScorecard` from
    :func:`scorecard_record` output (or a served or recorded
    :func:`encode_scorecard` payload, whose rendered text and engine
    counters it drops), every float from its bit pattern; it prints
    exactly what the original prints. A missing field raises
    ``KeyError``, and a malformed bit string raises ``ValueError`` or
    ``struct.error``."""
    bits = payload["score_bits"]
    stored = payload["details"]
    details = {}
    cluster = stored.get("cluster")
    if cluster is not None:
        details["cluster"] = ServedDetail(per_k={
            # per_k is keyed by the integer k of the Eq. 6 sweep; JSON
            # stringified it on the way out.
            int(k): bits_float(v) for k, v in cluster["per_k_bits"].items()
        })
    trend = stored.get("trend")
    if trend is not None:
        details["trend"] = ServedDetail(per_event={
            event: bits_float(v)
            for event, v in trend["per_event_bits"].items()
        })
    spread = stored.get("spread")
    if spread is not None:
        details["spread"] = ServedDetail(per_item={
            item: bits_float(v)
            for item, v in spread["per_item_bits"].items()
        })
    coverage = stored.get("coverage")
    if coverage is not None:
        details["coverage"] = ServedCoverage(
            n_components=int(coverage["n_components"]),
            component_variances=tuple(
                bits_float(v) for v in coverage["component_variance_bits"]
            ),
        )
    return SuiteScorecard(
        suite_name=payload["suite"],
        focus=payload["focus"],
        details=details,
        **{name: bits_float(bits[name]) for name in SCORES},
    )


# -- comparing records --------------------------------------------------------


#: Keys :func:`flatten` leaves out: the rendered text (the bits it is
#: printed from are compared), the JSON-number copies of the bits (NaN
#: never equals itself), and, under ``details``, the counters of the
#: engine run that computed a card.
_UNCOMPARED = frozenset({"rendered", "scores", "details.engine"})


def flatten(record):
    """Every compared leaf of a JSON-safe record as one ``{label:
    value}`` map, labelled by its path (``score_bits.cluster``,
    ``details.coverage.component_variance_bits[0]``,
    ``reports[2].trend_paths[0][1]``). Floats are compared through
    their ``*_bits`` hex, so a leaf is a string, an int, ``None`` or an
    empty map or list."""
    flat = {}

    def walk(label, parent, value):
        if isinstance(value, dict) and value:
            for key, item in value.items():
                if key in _UNCOMPARED or f"{parent}.{key}" in _UNCOMPARED:
                    continue
                walk(f"{label}.{key}" if label else str(key), key, item)
        elif isinstance(value, (list, tuple)) and value:
            for i, item in enumerate(value):
                walk(f"{label}[{i}]", parent, item)
        else:
            # An empty map or list stays a leaf, so a detail that one
            # record has and the other lacks still differs.
            flat[label] = value

    walk("", "", record)
    return flat


def record_diff(a, b):
    """``label: A != B`` for every leaf two records' :func:`flatten`
    disagree on (``<absent>`` where one lacks it), in label order; an
    empty list means bit-identical."""
    flat_a, flat_b = flatten(a), flatten(b)
    mismatches = []
    for label in sorted(flat_a.keys() | flat_b.keys()):
        va = flat_a.get(label, "<absent>")
        vb = flat_b.get(label, "<absent>")
        if va != vb:
            mismatches.append(f"{label}: {va} != {vb}")
    return mismatches


# -- comparisons and subsets --------------------------------------------------


def encode_comparison(comparison):
    """JSON-safe dict for a :class:`~repro.core.report.SuiteComparison`
    (the ``rendered`` table is exactly what ``repro compare`` prints)."""
    return {
        "focus": comparison.focus,
        "rendered": comparison.table(),
        "scorecards": [encode_scorecard(c) for c in comparison.scorecards],
    }


def subset_report_record(report):
    """The bit-exact core of :func:`encode_subset_report`: selection,
    scores, deviations and the per-event trend paths, without the
    ``rendered`` text. This is the disk tier's subset-report entry;
    :func:`decode_subset_report` reads it back.

    JSON maps lose their order in a sorted dump, so the order the
    report prints its scores in rides along as ``score_order``, and the
    trend paths travel as ``[event, path]`` pairs in event order."""
    payload = {
        "selected": [str(w) for w in report.selected],
        "score_order": [str(name) for name in report.full_scores],
        "full_score_bits": _bits_map(report.full_scores),
        "subset_score_bits": _bits_map(report.subset_scores),
        "deviation_bits": _bits_map(report.deviations),
        "mean_deviation_pct_bits": float_bits(report.mean_deviation_pct),
    }
    paths = report.details.get("trend_paths")
    if paths is not None:
        payload["trend_paths"] = [[str(event), str(path)]
                                  for event, path in paths.items()]
    return payload


def encode_subset_report(report):
    """JSON-safe dict for a :class:`~repro.core.subset.SubsetReport`:
    :func:`subset_report_record` plus the rendered text."""
    payload = subset_report_record(report)
    payload["rendered"] = str(report)
    return payload


def decode_subset_report(payload):
    """Rebuild a :class:`~repro.core.subset.SubsetReport` from
    :func:`subset_report_record` output, every float from its bit
    pattern and every map in ``score_order``; it prints exactly what the
    original prints. A missing field raises ``KeyError``, a malformed
    bit string ``ValueError`` or ``struct.error``."""
    from repro.core.subset import SubsetReport

    order = payload["score_order"]
    full = payload["full_score_bits"]
    subset = payload["subset_score_bits"]
    deviations = payload["deviation_bits"]
    details = {}
    if "trend_paths" in payload:
        details["trend_paths"] = {
            event: path for event, path in payload["trend_paths"]
        }
    return SubsetReport(
        selected=tuple(payload["selected"]),
        full_scores={name: bits_float(full[name]) for name in order},
        subset_scores={name: bits_float(subset[name]) for name in order},
        deviations={name: bits_float(deviations[name])
                    for name in order if name in deviations},
        mean_deviation_pct=bits_float(payload["mean_deviation_pct_bits"]),
        details=details,
    )


def encode_search_result(result):
    """JSON-safe dict for a
    :class:`~repro.engine.subset_eval.SubsetSearchResult`."""
    return {
        "suite": result.suite,
        "subset_size": result.subset_size,
        "method": result.method,
        "n_candidates": result.n_candidates,
        "rendered": str(result),
        "best": encode_subset_report(result.best),
        "n_evaluated": len(result.reports),
    }


# -- envelopes ----------------------------------------------------------------


def ok_envelope(result):
    """The success wrapper every endpoint returns."""
    return {"protocol": PROTOCOL_VERSION, "ok": True, "result": result}


def error_envelope(message):
    """The failure wrapper (HTTP status carries the class of error)."""
    return {"protocol": PROTOCOL_VERSION, "ok": False, "error": str(message)}
