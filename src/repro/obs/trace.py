"""Span tracing for the scoring pipeline.

A *span* is one timed region of work -- nested, attributed, and
timestamped with :func:`time.perf_counter_ns`. The tracer follows three
rules that make it safe to leave permanently wired into the hot paths:

* **Zero-cost when disabled.** :func:`span` reads one module global; if
  no tracer is installed it returns a shared no-op handle whose
  ``__enter__``/``__exit__``/``set`` do nothing. No span object, no
  timestamps, no allocation beyond the (empty) kwargs dict at the call
  site. The end-to-end benchmark reports what tracing costs as the
  ``bench.trace_overhead_pct`` per-layer metric.
* **Observe, never perturb.** Instrumented code must not branch on
  tracing state, draw RNG values for span ids, or read wall-clock time
  in a way that feeds results. Span ids are sequential per tracer;
  timestamps come from the monotonic ``perf_counter_ns`` clock and go
  nowhere near score outputs. ``repro qa`` enforces the consequence:
  scorecards with tracing on are bit-identical to tracing off.
* **Thread-safe collection, process-aware trees.** Finished spans land
  in a list guarded by a lock; the *open*-span stack is thread-local,
  so concurrent threads nest correctly. Each span records its ``pid``
  (and thread id), because worker processes run their own tracer and
  ship finished spans back piggybacked on task results
  (:class:`ShippedSpans`); the owner re-parents them under the
  dispatching ``parallel.map`` span via :meth:`Tracer.adopt`. Clocks
  are per-process, so duration math (summary self-time) only ever
  subtracts same-pid children.

Usage::

    from repro.obs import span, install, uninstall, Tracer

    tracer = Tracer()
    install(tracer)
    with span("kernel.trend", events=4) as sp:
        ...
        sp.set(pending=2)       # attach attributes discovered mid-span
    uninstall()
    tracer.spans()              # finished SpanRecords
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class SpanRecord:
    """One finished (or still-open) span.

    ``sid``/``parent`` are tracer-local integers (``parent is None`` for
    roots); ``start_ns``/``end_ns`` are ``perf_counter_ns`` readings in
    the recording process's clock domain, which ``pid`` identifies.
    """

    sid: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    pid: int = 0
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self):
        return max(0, self.end_ns - self.start_ns)

    @property
    def closed(self):
        return self.end_ns >= self.start_ns > 0

    def as_dict(self):
        return {
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            sid=int(data["sid"]),
            parent=(None if data.get("parent") is None
                    else int(data["parent"])),
            name=str(data["name"]),
            start_ns=int(data["start_ns"]),
            end_ns=int(data["end_ns"]),
            pid=int(data.get("pid", 0)),
            tid=int(data.get("tid", 0)),
            attrs=dict(data.get("attrs", {})),
        )


@dataclass
class ShippedSpans:
    """A worker task's result with its locally-buffered spans attached
    -- the cross-process span transport payload. The parallel executor
    unwraps ``result`` and feeds ``spans`` to :meth:`Tracer.adopt`."""

    result: object
    spans: list


class _SpanHandle:
    """Context manager for one open span of a real tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    @property
    def sid(self):
        return self._span.sid

    def set(self, **attrs):
        """Attach attributes to the open span."""
        self._span.attrs.update(attrs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._tracer._finish(self._span)
        return False


class _NoopSpan:
    """The shared do-nothing handle returned while tracing is off."""

    __slots__ = ()
    sid = None

    def set(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Thread-safe in-process span collector."""

    def __init__(self):
        self._lock = threading.Lock()
        self._finished = []
        self._next_sid = 1
        self._stack = threading.local()
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def _stack_of(self):
        stack = getattr(self._stack, "open", None)
        if stack is None:
            stack = self._stack.open = []
        return stack

    def span(self, name, **attrs):
        """Open a span nested under the current thread's innermost open
        span; returns its context-manager handle."""
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        stack = self._stack_of()
        parent = stack[-1].sid if stack else None
        record = SpanRecord(
            sid=sid,
            parent=parent,
            name=name,
            start_ns=perf_counter_ns(),
            pid=self._pid,
            tid=threading.get_ident(),
            attrs=attrs,
        )
        stack.append(record)
        return _SpanHandle(self, record)

    def _finish(self, record):
        record.end_ns = perf_counter_ns()
        stack = self._stack_of()
        if stack and stack[-1] is record:
            stack.pop()
        else:  # out-of-order exit; drop it without corrupting the stack
            try:
                stack.remove(record)
            except ValueError:
                pass
        with self._lock:
            self._finished.append(record)

    # -- cross-process adoption --------------------------------------------

    def adopt(self, spans, parent_sid=None):
        """Merge worker-recorded spans into this tracer, remapping their
        tracer-local sids into this tracer's id space and re-parenting
        their roots under ``parent_sid`` (the dispatching map-call
        span). Returns the adopted records."""
        spans = list(spans)
        if not spans:
            return []
        with self._lock:
            base = self._next_sid
            self._next_sid += len(spans)
        mapping = {s.sid: base + i for i, s in enumerate(spans)}
        adopted = []
        for span in spans:
            adopted.append(SpanRecord(
                sid=mapping[span.sid],
                parent=(mapping[span.parent]
                        if span.parent in mapping else parent_sid),
                name=span.name,
                start_ns=span.start_ns,
                end_ns=span.end_ns,
                pid=span.pid,
                tid=span.tid,
                attrs=span.attrs,
            ))
        with self._lock:
            self._finished.extend(adopted)
        return adopted

    # -- reading -----------------------------------------------------------

    def spans(self):
        """Snapshot of every finished span, in finish order."""
        with self._lock:
            return list(self._finished)

    def drain(self):
        """Remove and return every finished span (workers ship these
        back to the owner)."""
        with self._lock:
            out = self._finished
            self._finished = []
            return out

    def __len__(self):
        with self._lock:
            return len(self._finished)


# -- the installed tracer -----------------------------------------------------

_TRACER = None


def install(tracer):
    """Make ``tracer`` the process's active tracer. Returns the tracer
    (so ``tracer = install(Tracer())`` reads naturally)."""
    global _TRACER
    _TRACER = tracer
    return tracer


def uninstall():
    """Deactivate tracing; returns the tracer that was active (if any)."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    return tracer


def swap(tracer):
    """Install ``tracer`` (may be None) and return the previous one --
    the save/restore shape worker tasks use."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous


def current_tracer():
    """The active tracer, or None."""
    return _TRACER


def enabled():
    """Whether a tracer is installed."""
    return _TRACER is not None


def span(name, **attrs):
    """Open a span on the active tracer -- or return the shared no-op
    handle when tracing is off (the permanently-wired fast path)."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


# -- well-formedness ----------------------------------------------------------


def validate_spans(spans, owner_pid=None):
    """Structural problems in a span list; empty means well-formed.

    Checks: unique sids; every span closed (``end >= start > 0``);
    parents exist; same-process children lie within their parent's
    interval (cross-process children are exempt -- worker clocks are
    unrelated to the owner's). When ``owner_pid`` is given, any
    parentless span recorded by a *different* process is flagged: a
    worker span that was shipped back but never re-parented under its
    dispatching map-call span.
    """
    problems = []
    by_sid = {}
    for span in spans:
        if span.sid in by_sid:
            problems.append(f"duplicate sid {span.sid}")
        by_sid[span.sid] = span
    for span in spans:
        label = f"span {span.sid} ({span.name!r})"
        if not span.closed:
            problems.append(f"{label}: not closed "
                            f"(start={span.start_ns}, end={span.end_ns})")
        if span.parent is not None:
            parent = by_sid.get(span.parent)
            if parent is None:
                problems.append(f"{label}: parent {span.parent} missing")
            elif parent.pid == span.pid and parent.closed and span.closed:
                if span.start_ns < parent.start_ns \
                        or span.end_ns > parent.end_ns:
                    problems.append(
                        f"{label}: not nested within parent "
                        f"{parent.sid} ({parent.name!r})"
                    )
        elif owner_pid is not None and span.pid != owner_pid:
            problems.append(f"{label}: worker span was never re-parented")
    return problems
