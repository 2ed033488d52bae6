"""Tests for the warm execution substrate: persistent spawn pool
lifecycle, operand transport through the pickle pipe, and the serial /
fanned / disk-warm bit-identity contract."""

import os

import numpy as np
import pytest

from repro.core.matrix import CounterMatrix
from repro.core.perspector import PerspectorConfig
from repro.engine import Engine, ParallelExecutor
from repro.engine.parallel import START_METHOD
from repro.qa.determinism import diff_scorecards

from tests.test_engine import fixture_matrix


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


class TestPoolLifecycle:
    def test_start_method_pinned_to_spawn(self):
        assert START_METHOD == "spawn"
        with ParallelExecutor(workers=2) as ex:
            assert ex.start_method == "spawn"

    def test_consecutive_maps_reuse_worker_pids(self):
        with ParallelExecutor(workers=2) as ex:
            first = set(ex.map(_pid_task, [(i,) for i in range(8)]))
            pool = ex._pool
            pool_pids = {p.pid for p in pool._processes.values()}
            second = set(ex.map(_pid_task, [(i,) for i in range(8)]))
            assert ex._pool is pool  # same pool object served both calls
        assert first <= pool_pids  # every task ran in a pool worker...
        assert second <= pool_pids  # ...and no fresh process appeared
        assert os.getpid() not in first | second

    def test_worker_exception_does_not_wedge_pool(self):
        with ParallelExecutor(workers=2) as ex:
            ex.map(_pid_task, [(i,) for i in range(8)])
            pool = ex._pool
            pool_pids = {p.pid for p in pool._processes.values()}
            with pytest.raises(RuntimeError, match="boom from worker"):
                ex.map(_raise_task, [(True,), (False,), (True,)])
            after = set(ex.map(_pid_task, [(i,) for i in range(8)]))
            assert ex._pool is pool  # pool survived the task exception
        assert after <= pool_pids  # served by the same workers

    def test_worker_death_counts_pool_broken_persistent(self):
        from concurrent.futures.process import BrokenProcessPool

        with ParallelExecutor(workers=2) as ex:
            with pytest.raises(BrokenProcessPool):
                ex.map(_exit_task, [(i,) for i in range(8)])
            assert ex.metrics.counter("pool_broken").value == 1
            assert ex._pool is None  # disposed: next call starts fresh
            assert os.getpid() not in set(
                ex.map(_pid_task, [(i,) for i in range(8)])
            )

    def test_close_is_idempotent_and_context_manager_closes(self):
        ex = ParallelExecutor(workers=2)
        with ex:
            ex.map(_pid_task, [(0,), (1,)])
            assert ex._pool is not None
        assert ex._pool is None
        ex.close()  # second close is a no-op


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
        with ParallelExecutor(workers=2) as ex:
            fanned = ex.map(_operand_task, [(op,) for op in operands])
            assert ex.metrics.counter("pool_created").value == 1
        assert fanned == serial


class TestSubstrateBitIdentity:
    """Serial, persistent-pool-fanned, and disk-warm scoring must all
    produce bit-identical scorecards."""

    def test_serial_vs_fanned_vs_disk_warm(self, tmp_path):
        matrix = fixture_matrix(seed=11)
        config = PerspectorConfig(seed=3)
        serial = Engine(workers=1).score_matrix(matrix, config, "all")

        with Engine(workers=2) as engine:
            fanned = engine.score_matrix(matrix, config, "all")
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
