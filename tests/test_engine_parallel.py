"""Tests for the warm execution substrate: the process-wide spawn pool's
lifecycle, operand transport through the pickle pipe, and the serial /
fanned / disk-warm bit-identity contract."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.matrix import CounterMatrix
from repro.core.perspector import PerspectorConfig
from repro.engine import Engine, parallel
from repro.engine.parallel import START_METHOD, parallel_map
from repro.obs.metrics import MetricsRegistry
from repro.qa.determinism import diff_scorecards

from tests.test_engine import fixture_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


def _pid_task(_i):
    return os.getpid()


def _operand_arrays(operand):
    if isinstance(operand, CounterMatrix):
        return [operand.values] + [series for event in operand.events
                                   for series in operand.series[event]]
    return [operand]


def _operand_task(operand):
    """The bytes a task received plus one reduction over them."""
    arrays = _operand_arrays(operand)
    total = np.float64(sum(float(np.sum(a)) for a in arrays))
    return [a.tobytes() for a in arrays], total.tobytes()


def _raise_task(flag):
    if flag:
        raise RuntimeError("boom from worker")
    return os.getpid()


def _exit_task(_i):
    os._exit(13)  # hard-kill the worker: simulates an OOM/segfault death


def _pool_pids(workers):
    """Worker pids of the process's pool of width ``workers``."""
    return {p.pid for p in parallel._pools[workers]._processes.values()}


def _fresh_pool(workers):
    """Tear down the process's pool of width ``workers``, if any, so the
    next fan-out at that width spawns one."""
    pool = parallel._pools.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=True)


class TestPoolLifecycle:
    def test_start_method_pinned_to_spawn(self):
        assert START_METHOD == "spawn"
        parallel_map(_pid_task, [(0,), (1,)], 2)
        assert parallel._pools[2]._mp_context.get_start_method() == "spawn"

    def test_consecutive_maps_reuse_worker_pids(self):
        first = set(parallel_map(_pid_task, [(i,) for i in range(8)], 2))
        pool = parallel._pools[2]
        pool_pids = _pool_pids(2)
        second = set(parallel_map(_pid_task, [(i,) for i in range(8)], 2))
        assert parallel._pools[2] is pool  # same pool served both calls
        assert first <= pool_pids  # every task ran in a pool worker...
        assert second <= pool_pids  # ...and no fresh process appeared
        assert os.getpid() not in first | second

    def test_worker_exception_does_not_wedge_pool(self):
        parallel_map(_pid_task, [(i,) for i in range(8)], 2)
        pool = parallel._pools[2]
        pool_pids = _pool_pids(2)
        with pytest.raises(RuntimeError, match="boom from worker"):
            parallel_map(_raise_task, [(True,), (False,), (True,)], 2)
        after = set(parallel_map(_pid_task, [(i,) for i in range(8)], 2))
        assert parallel._pools[2] is pool  # pool survived the exception
        assert after <= pool_pids  # served by the same workers

    def test_worker_death_counts_pool_broken_persistent(self):
        from concurrent.futures.process import BrokenProcessPool

        metrics = MetricsRegistry()
        parallel_map(_pid_task, [(i,) for i in range(8)], 2)
        dead_pids = _pool_pids(2)
        with pytest.raises(BrokenProcessPool):
            parallel_map(_exit_task, [(i,) for i in range(8)], 2, metrics)
        assert metrics.counter("pool_broken").value == 1
        assert 2 not in parallel._pools  # dropped: next call starts fresh
        after = set(parallel_map(_pid_task, [(i,) for i in range(8)], 2,
                                 metrics))
        assert metrics.counter("pool_created").value == 1
        assert after <= _pool_pids(2)
        assert not after & (dead_pids | {os.getpid()})

    def test_pool_is_created_once_per_width(self):
        _fresh_pool(2)
        first, second = MetricsRegistry(), MetricsRegistry()
        parallel_map(_pid_task, [(0,), (1,)], 2, first)
        parallel_map(_pid_task, [(0,), (1,)], 2, first)
        parallel_map(_pid_task, [(0,), (1,)], 2, second)
        assert first.counter("pool_created").value == 1
        assert first.counter("pool_reused").value == 1
        assert second.counter("pool_created").value == 0
        assert second.counter("pool_reused").value == 1
        # Inline batches touch no pool and count nothing.
        inline = MetricsRegistry()
        parallel_map(_pid_task, [(0,)], 2, inline)
        parallel_map(_pid_task, [(0,), (1,)], 1, inline)
        assert inline.snapshot().values == {}

    def test_racing_threads_share_one_pool(self):
        """Eight threads (more than the cores) fanning out at once, with
        a short switch interval, must spawn exactly one pool between
        them and each get its own results in order."""
        _fresh_pool(2)
        registries = [MetricsRegistry() for _ in range(8)]
        results = [None] * len(registries)

        def fan_out(i):
            results[i] = parallel_map(pow, [(i, k) for k in range(6)], 2,
                                      registries[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fan_out, args=(i,))
                       for i in range(len(registries))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[i ** k for k in range(6)]
                           for i in range(len(registries))]
        assert sum(r.counter("pool_created").value for r in registries) == 1

    def test_two_engines_fan_out_on_the_same_workers(self):
        matrix = fixture_matrix(seed=11)
        config = PerspectorConfig(seed=3)
        seen = []
        for _ in range(2):
            engine = Engine(workers=2, cache=False)
            engine.score_matrix(matrix, config, "all")
            seen.append((parallel._pools[2], _pool_pids(2),
                         engine.metrics.snapshot()))
        (first_pool, first_pids, _), (second_pool, second_pids, second) = seen
        assert second_pool is first_pool
        assert first_pids <= second_pids  # no worker was replaced
        assert second["pool_created"] == 0
        assert second["pool_reused"] >= 1

    def test_process_exit_leaves_no_pool_worker(self):
        script = (
            "from repro.core.perspector import PerspectorConfig\n"
            "from repro.engine import Engine, parallel\n"
            "from repro.qa.determinism import synthetic_matrix\n"
            "matrix = synthetic_matrix(seed=0, n_workloads=6, n_events=3,"
            " length=30)\n"
            "Engine(workers=2).score_matrix(matrix, PerspectorConfig(),"
            " 'all')\n"
            "print(*(p.pid for p in parallel._pools[2]._processes.values()))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert pids
        deadline = time.monotonic() + 5.0
        alive = pids
        while alive and time.monotonic() < deadline:
            alive = [pid for pid in pids if _alive(pid)]
            time.sleep(0.05)
        assert alive == []


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestPoolTransport:
    def test_large_operands_match_serial(self):
        """Operands of 64 KiB and up -- plain arrays and a whole
        CounterMatrix -- cross the pool's pickle pipe bit-exact."""
        operands = [np.random.default_rng(i).uniform(size=8192)
                    for i in range(4)]
        operands.append(fixture_matrix(seed=5, n_workloads=43,
                                       n_events=14, length=64))
        assert all(sum(a.nbytes for a in _operand_arrays(op)) >= 64 * 1024
                   for op in operands)
        serial = [_operand_task(op) for op in operands]
        fanned = parallel_map(_operand_task, [(op,) for op in operands], 2)
        assert fanned == serial


class TestSubstrateBitIdentity:
    """Serial, pool-fanned, and disk-warm scoring must all
    produce bit-identical scorecards."""

    def test_serial_vs_fanned_vs_disk_warm(self, tmp_path):
        matrix = fixture_matrix(seed=11)
        config = PerspectorConfig(seed=3)
        serial = Engine(workers=1).score_matrix(matrix, config, "all")

        fanned = Engine(workers=2).score_matrix(matrix, config, "all")
        assert diff_scorecards(serial, fanned) == []

        cold_engine = Engine(cache_dir=str(tmp_path))
        cold = cold_engine.score_matrix(matrix, config, "all")
        assert diff_scorecards(serial, cold) == []
        assert cold_engine.cache.disk.writes > 0

        warm_engine = Engine(cache_dir=str(tmp_path))  # fresh memory tier
        warm = warm_engine.score_matrix(matrix, config, "all")
        assert diff_scorecards(serial, warm) == []
        assert warm_engine.cache.disk.hits > 0
        details = warm.details["engine"]
        assert details["disk_hits"] > 0
