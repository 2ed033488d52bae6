"""Deterministic parallel fan-out over one process-wide worker pool.

:func:`parallel_map` maps a top-level function over a list of argument
tuples, either inline (``workers=1`` or a single task -- no process
overhead) or across the process's pool of that width. Three properties
make the fan-out safe for a bit-for-bit-reproducible pipeline:

* **Input-order reassembly.** Results always come back in submission
  order (``executor.map`` semantics), never completion order, so
  downstream reductions see the same operand order at any worker count.
* **Pure tasks.** Tasks receive all inputs as arguments and return all
  outputs; they touch no shared mutable state. The caller stores
  worker-computed values in its cache afterwards, in input order.
* **Identical kernels.** A task runs the very same numpy kernels the
  serial path runs, so each element's result is bit-identical whether
  it was computed in-process or in a worker.

Two lifecycle decisions (see DESIGN.md section 9):

* **The pool belongs to the process, not to a caller.** One pool per
  worker count is created lazily, under a lock, on the first fan-out at
  that width and reused by every later one -- K-means sweeps,
  per-suite compare scoring, subset-search batches, and every engine the
  process builds (a compare, a subset search and the scoring daemon's
  requests all share it). Paying pool startup per engine would multiply
  that cost by the number of engines. The pools are shut down when the
  interpreter exits; a pool whose worker died (``BrokenProcessPool``)
  is dropped, so the next call at its width starts a fresh one.
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

import atexit
import threading

from repro.obs import trace as obs_trace
from repro.obs.trace import ShippedSpans, span

#: Pinned start method -- see the module docstring for why not ``fork``.
START_METHOD = "spawn"

#: The pool-lifecycle counters :func:`parallel_map` moves in a caller's
#: registry: a pool this call spawned, one it found running, one that
#: broke under it.
POOL_COUNTERS = ("pool_created", "pool_reused", "pool_broken")

#: The process's pools, keyed by worker count.
_pools = {}
_pools_lock = threading.Lock()


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


def _pool_for(workers):
    """``(pool, created)``: the process's pool of width ``workers``,
    spawned on first use."""
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is not None:
            return pool, False
        # Imported here, not at module level: a serial run never loads
        # multiprocessing or concurrent.futures.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(START_METHOD),
        )
        _pools[workers] = pool
        return pool, True


def _drop_pool(workers, pool):
    """Forget a broken pool, so the next call at its width starts a
    fresh one, and tear it down."""
    with _pools_lock:
        # Another caller that saw the same breakage may already have
        # dropped it and spawned a replacement, which must stay.
        if _pools.get(workers) is pool:
            del _pools[workers]
    pool.shutdown(wait=True, cancel_futures=True)


@atexit.register
def _shutdown_pools():
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def parallel_map(fn, arg_tuples, workers, metrics=None):
    """Apply ``fn(*args)`` for each args tuple; results in input order.

    ``fn`` must be a module-level function and every argument
    picklable when ``workers > 1``. ``workers=1`` batches and
    single-element batches run inline -- there is nothing to overlap.
    A task that *raises* propagates the exception but leaves the pool
    healthy for the next call; a task that kills its worker process
    breaks the pool, which is dropped so the next call starts a fresh
    one. ``metrics``, an optional
    :class:`~repro.obs.metrics.MetricsRegistry`, counts the pool events
    of this call (:data:`POOL_COUNTERS`).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    arg_tuples = list(arg_tuples)
    fn_name = getattr(fn, "__name__", str(fn))
    if workers == 1 or len(arg_tuples) < 2:
        with span("parallel.map", fn=fn_name,
                  tasks=len(arg_tuples), inline=True):
            return [fn(*args) for args in arg_tuples]
    from concurrent.futures.process import BrokenProcessPool

    traced = obs_trace.enabled()
    with span("parallel.map", fn=fn_name, tasks=len(arg_tuples),
              workers=workers) as map_span:
        payloads = [(fn, args, traced) for args in arg_tuples]
        # Batch pipe round-trips: ~4 chunks per worker balances pickle
        # amortization against tail latency, matching stdlib guidance.
        chunksize = max(1, len(payloads) // (workers * 4))
        pool, created = _pool_for(workers)
        if metrics is not None:
            metrics.counter("pool_created" if created
                            else "pool_reused").inc()
        try:
            results = list(pool.map(_invoke, payloads,
                                    chunksize=chunksize))
        except BrokenProcessPool:
            if metrics is not None:
                metrics.counter("pool_broken").inc()
            _drop_pool(workers, pool)
            raise
        return _unship(results, map_span.sid)


def _unship(results, parent_sid):
    """Unwrap :class:`~repro.obs.trace.ShippedSpans` payloads, adopting
    the worker spans into the owner's tracer re-parented under the
    dispatching map-call span."""
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
