"""CounterMatrix import/export.

Perspector's metrics only need a counter matrix; nothing ties them to
the simulator. This module moves matrices in and out of the two formats
a practitioner would actually use:

* **CSV** -- one row per workload, one column per event (the natural
  shape of a ``perf stat`` post-processing script's output). Time series
  do not fit CSV; only totals travel.
* **JSON** -- the full object including per-event time series, for
  lossless round-trips between tools.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from repro.core.matrix import CounterMatrix


def to_csv(matrix, path_or_buffer=None):
    """Write a CounterMatrix's totals as CSV.

    Parameters
    ----------
    matrix:
        The matrix to export.
    path_or_buffer:
        File path, text buffer, or ``None`` (return the CSV as a string).
    """
    own_buffer = path_or_buffer is None
    if own_buffer:
        buffer = io.StringIO()
    elif isinstance(path_or_buffer, (str, bytes)):
        buffer = open(path_or_buffer, "w", newline="")
    else:
        buffer = path_or_buffer
    try:
        writer = csv.writer(buffer)
        writer.writerow(["workload", *matrix.events])
        for name, row in zip(matrix.workloads, matrix.values):
            writer.writerow([name, *(repr(float(v)) for v in row)])
    finally:
        if isinstance(path_or_buffer, (str, bytes)):
            buffer.close()
    if own_buffer:
        return buffer.getvalue()
    return None


def _cell(text, line_no, event):
    """One CSV counter value as a float, or a ``ValueError`` naming the
    line and the event column."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"CSV line {line_no}, column {event!r}: {text!r} is not a "
            f"number"
        ) from None


def from_csv(path_or_buffer, suite_name=""):
    """Read a CounterMatrix (totals only) from CSV.

    The first column must be the workload name; the header row names
    the events.
    """
    if isinstance(path_or_buffer, (str, bytes)):
        with open(path_or_buffer, newline="") as f:
            rows = list(csv.reader(f))
    else:
        rows = list(csv.reader(path_or_buffer))
    if len(rows) < 2:
        raise ValueError("CSV needs a header row and at least one workload")
    header = rows[0]
    if not header or header[0] != "workload":
        raise ValueError(
            "first CSV column must be named 'workload', got "
            f"{header[:1]!r}"
        )
    events = tuple(header[1:])
    if not events:
        raise ValueError("CSV has no event columns")
    workloads = []
    values = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"CSV line {line_no} has {len(row)} fields, expected "
                f"{len(header)}"
            )
        workloads.append(row[0])
        values.append([_cell(text, line_no, event)
                       for text, event in zip(row[1:], events)])
    if not workloads:
        raise ValueError("CSV has a header but no workload rows")
    return CounterMatrix(
        workloads=tuple(workloads),
        events=events,
        values=np.array(values, dtype=float),
        suite_name=suite_name,
    )


def to_json(matrix, path=None, indent=None):
    """Serialize a CounterMatrix (including series) to JSON."""
    payload = {
        "suite_name": matrix.suite_name,
        "workloads": list(matrix.workloads),
        "events": list(matrix.events),
        "values": matrix.values.tolist(),
        "series": {
            event: [np.asarray(s, dtype=float).tolist() for s in per_wl]
            for event, per_wl in matrix.series.items()
        },
    }
    text = json.dumps(payload, indent=indent)
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
        return None
    return text


def from_json(path_or_text):
    """Deserialize a CounterMatrix from JSON (path or JSON string)."""
    if isinstance(path_or_text, str) and path_or_text.lstrip().startswith(
        "{"
    ):
        payload = json.loads(path_or_text)
    else:
        with open(path_or_text) as f:
            payload = json.load(f)
    required = {"workloads", "events", "values"}
    missing = required - set(payload)
    if missing:
        raise ValueError(f"JSON payload missing keys: {sorted(missing)}")
    series = {
        event: [np.asarray(s, dtype=float) for s in per_wl]
        for event, per_wl in payload.get("series", {}).items()
    }
    return CounterMatrix(
        workloads=tuple(payload["workloads"]),
        events=tuple(payload["events"]),
        values=np.array(payload["values"], dtype=float),
        series=series,
        suite_name=payload.get("suite_name", ""),
    )
