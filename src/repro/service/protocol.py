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

:func:`decode_scorecard` rebuilds a scorecard *from the bits* into
lightweight shims that satisfy exactly the attribute surface
:func:`repro.qa.determinism.diff_scorecards` walks (scores, ``per_k`` /
``per_event`` / ``per_item`` maps, coverage component variances), so
the service qa variant can diff a served card against a locally
computed one at the bit level with the same comparator the rest of the
repo trusts.

Every response also carries ``rendered``: the exact ``str()`` text the
CLI would have printed, so ``repro client score`` emits byte-for-byte
what ``repro score`` does.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

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


def encode_scorecard(card):
    """JSON-safe dict for one :class:`~repro.core.report.SuiteScorecard`."""
    scores = {name: getattr(card, name)
              for name in ("cluster", "trend", "coverage", "spread")}
    payload = {
        "suite": card.suite_name,
        "focus": card.focus,
        "scores": {name: float(v) for name, v in scores.items()},
        "score_bits": {name: float_bits(v) for name, v in scores.items()},
        "rendered": str(card),
        "violations": [str(v) for v in card.violations],
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
    engine = card.details.get("engine")
    if engine is not None:
        details["engine"] = dict(engine)
    return payload


@dataclass(frozen=True)
class ServedDetail:
    """Per-score decomposition shim (``per_k``/``per_event``/``per_item``
    stand-in for the real result dataclasses)."""

    per_k: dict = field(default_factory=dict)
    per_event: dict = field(default_factory=dict)
    per_item: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ServedCoverage:
    """Coverage-detail shim carrying exactly what the bit-diff reads."""

    n_components: int
    component_variances: np.ndarray


@dataclass(frozen=True)
class ServedScorecard:
    """A scorecard rebuilt from the wire, attribute-compatible with
    :func:`repro.qa.determinism.diff_scorecards` (and with
    :meth:`~repro.core.report.SuiteScorecard.__str__`-style rendering
    via the ``rendered`` field it rode in with)."""

    suite_name: str
    focus: str
    cluster: float
    trend: float
    coverage: float
    spread: float
    details: dict
    rendered: str
    violations: tuple = ()


def decode_scorecard(payload):
    """Rebuild a :class:`ServedScorecard` from :func:`encode_scorecard`
    output, reconstructing every float from its bit pattern."""
    bits = payload["score_bits"]
    details = {}
    wire_details = payload.get("details", {})
    cluster = wire_details.get("cluster")
    if cluster is not None:
        details["cluster"] = ServedDetail(per_k={
            # per_k is keyed by the integer k of the Eq. 6 sweep; JSON
            # stringified it on the way out.
            int(k): bits_float(v)
            for k, v in cluster["per_k_bits"].items()
        })
    trend = wire_details.get("trend")
    if trend is not None:
        details["trend"] = ServedDetail(per_event={
            event: bits_float(v)
            for event, v in trend["per_event_bits"].items()
        })
    spread = wire_details.get("spread")
    if spread is not None:
        details["spread"] = ServedDetail(per_item={
            item: bits_float(v)
            for item, v in spread["per_item_bits"].items()
        })
    coverage = wire_details.get("coverage")
    if coverage is not None:
        details["coverage"] = ServedCoverage(
            n_components=int(coverage["n_components"]),
            component_variances=np.array([
                bits_float(v)
                for v in coverage["component_variance_bits"]
            ]),
        )
    engine = wire_details.get("engine")
    if engine is not None:
        details["engine"] = dict(engine)
    return ServedScorecard(
        suite_name=payload["suite"],
        focus=payload["focus"],
        cluster=bits_float(bits["cluster"]),
        trend=bits_float(bits["trend"]),
        coverage=bits_float(bits["coverage"]),
        spread=bits_float(bits["spread"]),
        details=details,
        rendered=payload["rendered"],
        violations=tuple(payload.get("violations", ())),
    )


# -- comparisons and subsets --------------------------------------------------


def encode_comparison(comparison):
    """JSON-safe dict for a :class:`~repro.core.report.SuiteComparison`
    (the ``rendered`` table is exactly what ``repro compare`` prints)."""
    return {
        "focus": comparison.focus,
        "rendered": comparison.table(),
        "scorecards": [encode_scorecard(c) for c in comparison.scorecards],
    }


def encode_subset_report(report):
    """JSON-safe dict for a :class:`~repro.core.subset.SubsetReport`."""
    return {
        "selected": [str(w) for w in report.selected],
        "rendered": str(report),
        "full_score_bits": _bits_map(report.full_scores),
        "subset_score_bits": _bits_map(report.subset_scores),
        "deviation_bits": _bits_map(report.deviations),
        "mean_deviation_pct_bits": float_bits(report.mean_deviation_pct),
    }


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
