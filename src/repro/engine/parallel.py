"""Deterministic parallel fan-out for the scoring engine.

:class:`ParallelExecutor` maps a top-level function over a list of
argument tuples, either serially (``workers=1``, the default -- no
process overhead) or across a **persistent** worker pool. Three
properties make the fan-out safe for a bit-for-bit-reproducible
pipeline:

* **Input-order reassembly.** Results always come back in submission
  order (``executor.map`` semantics), never completion order, so
  downstream reductions see the same operand order at any worker count.
* **Pure tasks.** Tasks receive all inputs as arguments and return all
  outputs; they touch no shared mutable state. The engine merges
  worker-computed values into its cache afterwards, in input order.
* **Identical kernels.** A task runs the very same numpy kernels the
  serial path runs, so each element's result is bit-identical whether
  it was computed in-process or in a worker.

Two lifecycle decisions (see DESIGN.md section 9):

* **The pool is created lazily, once, and reused** across every ``map``
  call of the executor's lifetime. Trend scoring issues one fan-out per
  pending-event batch, K-means one per sweep, the subset search one per
  candidate batch -- paying pool startup per *call* would multiply
  that cost by the number of calls. Cleanup runs via
  ``close()``/context-manager, and via :func:`weakref.finalize` when
  the executor is dropped or the interpreter exits.
* **The start method is pinned to ``"spawn"``** on every platform. The
  platform-default ``fork`` duplicates the parent mid-flight: BLAS
  thread pools, the ``random``/NumPy global RNG state, and any open
  file descriptors come along, which is both a portability hazard
  (macOS/Windows spawn anyway) and a determinism hazard (a forked BLAS
  lock or inherited RNG draw makes worker behaviour depend on what the
  parent did *before* the fork). Spawned workers import fresh and see
  exactly the task arguments -- nothing else.

Task arguments and results travel through the pool's pickle pipe:
the largest operand the paper's suites produce is spec17's 43 x 14
float64 counter matrix (4,816 bytes), too small for any zero-copy
transport to pay for itself.

The ``repro.qa.determinism`` checker verifies the resulting scorecards
are bit-identical across worker counts.
"""

from __future__ import annotations

import multiprocessing
import weakref

from repro.obs import trace as obs_trace
from repro.obs.trace import ShippedSpans, span

#: Pinned start method -- see the module docstring for why not ``fork``.
START_METHOD = "spawn"


def _invoke(payload):
    """Top-level trampoline so (fn, args) pairs survive pickling.

    When the owner is tracing (``traced``), the worker runs the task
    under its own fresh tracer, wraps it in a ``worker.task`` span, and
    ships the buffered spans back piggybacked on the result
    (:class:`~repro.obs.trace.ShippedSpans`); the owner unwraps and
    re-parents them under the dispatching ``parallel.map`` span."""
    fn, args, traced = payload
    if not traced:
        return fn(*args)
    tracer = obs_trace.Tracer()
    previous = obs_trace.swap(tracer)
    try:
        with tracer.span("worker.task",
                         fn=getattr(fn, "__name__", str(fn))):
            result = fn(*args)
    finally:
        obs_trace.swap(previous)
    return ShippedSpans(result=result, spans=tracer.drain())


def _shutdown_pool(pool):
    """Finalizer target: tear one pool down without keeping the
    executor alive."""
    pool.shutdown(wait=True, cancel_futures=True)


class ParallelExecutor:
    """Map tasks over an optional persistent process pool, preserving
    input order.

    Parameters
    ----------
    workers:
        Process count. ``1`` runs everything inline in the calling
        process (no pool is ever created); higher values fan out.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` for the
        pool-lifecycle counters (``pool_created`` / ``pool_reused`` /
        ``pool_broken``); a private registry is created when omitted.
    """

    def __init__(self, workers=1, metrics=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.workers = workers
        self.metrics = metrics
        self._pool = None
        self._pool_finalizer = None
        self._pool_created = metrics.counter("pool_created")
        self._pool_reused = metrics.counter("pool_reused")
        self._pool_broken = metrics.counter("pool_broken")

    # -- pool lifecycle ----------------------------------------------------

    @property
    def start_method(self):
        return START_METHOD

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(START_METHOD),
            )
            self._pool = pool
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, pool,
            )
            self._pool_created.inc()
        else:
            self._pool_reused.inc()
        return self._pool

    def _dispose_pool(self):
        if self._pool_finalizer is not None:
            self._pool_finalizer()  # detaches; idempotent
            self._pool_finalizer = None
        self._pool = None

    def close(self):
        """Shut the pool down (idempotent; also runs via
        ``weakref.finalize`` at gc/interpreter exit)."""
        self._dispose_pool()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- mapping -----------------------------------------------------------

    def _chunksize(self, n_tasks):
        """Batch pipe round-trips: ~4 chunks per worker balances pickle
        amortization against tail latency, matching stdlib guidance."""
        return max(1, n_tasks // (self.workers * 4))

    def map(self, fn, arg_tuples):
        """Apply ``fn(*args)`` for each args tuple; results in input order.

        ``fn`` must be a module-level function and every argument
        picklable when ``workers > 1``. Single-element batches always
        run inline -- there is nothing to overlap. A task that *raises*
        propagates the exception but leaves the pool healthy for the
        next call; a task that kills its worker process breaks the pool,
        which is disposed so the next call starts a fresh one.
        """
        arg_tuples = list(arg_tuples)
        fn_name = getattr(fn, "__name__", str(fn))
        if self.workers == 1 or len(arg_tuples) < 2:
            with span("parallel.map", fn=fn_name,
                      tasks=len(arg_tuples), inline=True):
                return [fn(*args) for args in arg_tuples]
        from concurrent.futures.process import BrokenProcessPool

        traced = obs_trace.enabled()
        with span("parallel.map", fn=fn_name, tasks=len(arg_tuples),
                  workers=self.workers) as map_span:
            payloads = [(fn, args, traced) for args in arg_tuples]
            chunksize = self._chunksize(len(payloads))
            pool = self._ensure_pool()
            try:
                results = list(pool.map(_invoke, payloads,
                                        chunksize=chunksize))
            except BrokenProcessPool:
                self._pool_broken.inc()
                self._dispose_pool()
                raise
            return self._unship(results, map_span.sid)

    @staticmethod
    def _unship(results, parent_sid):
        """Unwrap :class:`~repro.obs.trace.ShippedSpans` payloads,
        adopting the worker spans into the owner's tracer re-parented
        under the dispatching map-call span."""
        tracer = obs_trace.current_tracer()
        out = []
        for result in results:
            if isinstance(result, ShippedSpans):
                if tracer is not None:
                    tracer.adopt(result.spans, parent_sid=parent_sid)
                out.append(result.result)
            else:
                out.append(result)
        return out
