"""Tests for the warm execution substrate: persistent spawn pool
lifecycle, shared-memory operand transport, and the serial / fanned /
disk-warm bit-identity contract."""

import gc
import os

import numpy as np
import pytest

from repro.core.matrix import CounterMatrix
from repro.core.perspector import PerspectorConfig
from repro.engine import Engine, ParallelExecutor, ShmRef, ShmStore
from repro.engine import shm as shm_mod
from repro.engine.parallel import START_METHOD
from repro.qa.determinism import diff_scorecards

from tests.test_engine import fixture_matrix


def _pid_task(_i):
    return os.getpid()


def _sum_task(array):
    return float(np.sum(array))


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


class TestShmTransport:
    def test_publish_dedupes_by_content(self):
        store = ShmStore()
        try:
            x = np.arange(64, dtype=float)
            ref1 = store.publish(x)
            ref2 = store.publish(x.copy())  # same bytes, new object
            assert ref1 == ref2
            assert store.published == 1
            assert store.published_bytes == x.nbytes
            assert len(store) == 1
        finally:
            store.close()
        assert shm_mod.leaked_segments() == []

    def test_substitute_restore_roundtrip_bit_exact(self):
        matrix = fixture_matrix(seed=5)
        args = (matrix, {"x": np.arange(32, dtype=float)},
                [np.ones(8)], 3, "label")
        store = ShmStore()
        try:
            packed = shm_mod.substitute(args, store, min_bytes=0)
            # every ndarray became a handle, scalars passed through
            assert isinstance(packed[0], shm_mod.PackedMatrix)
            assert isinstance(packed[0].values, ShmRef)
            assert isinstance(packed[1]["x"], ShmRef)
            assert isinstance(packed[2][0], ShmRef)
            assert packed[3] == 3 and packed[4] == "label"
            restored = shm_mod.restore(packed)
            assert isinstance(restored[0], CounterMatrix)
            assert restored[0].values.tobytes() == matrix.values.tobytes()
            for event in matrix.events:
                for a, b in zip(restored[0].series[event],
                                matrix.series[event]):
                    assert a.tobytes() == b.tobytes()
            assert restored[1]["x"].tobytes() == args[1]["x"].tobytes()
            assert not restored[1]["x"].flags.writeable
        finally:
            store.close()
        assert shm_mod.leaked_segments() == []

    def test_small_arrays_bypass_shm(self):
        store = ShmStore()
        try:
            out = shm_mod.substitute(np.ones(4), store, min_bytes=1 << 20)
            assert isinstance(out, np.ndarray)
            assert store.published == 0
        finally:
            store.close()

    def test_map_with_forced_shm_matches_serial(self):
        arrays = [np.random.default_rng(i).uniform(size=256)
                  for i in range(6)]
        serial = [float(np.sum(a)) for a in arrays]
        with ParallelExecutor(workers=2, shm_min_bytes=0) as ex:
            fanned = ex.map(_sum_task, [(a,) for a in arrays])
        assert [np.float64(a).tobytes() for a in serial] == \
               [np.float64(b).tobytes() for b in fanned]
        assert shm_mod.leaked_segments() == []

    def test_failed_fanout_still_sweeps_segments(self):
        with ParallelExecutor(workers=2, shm_min_bytes=0) as ex:
            with pytest.raises(RuntimeError, match="boom"):
                ex.map(_raise_task, [(True,), (False,), (True,)])
            # the generation's segments were swept in the finally
            assert len(ex.store) == 0
        assert shm_mod.leaked_segments() == []

    def test_dropped_store_finalizer_unlinks(self):
        store = ShmStore()
        store.publish(np.arange(128, dtype=float))
        assert shm_mod.leaked_segments() != []
        del store
        gc.collect()
        assert shm_mod.leaked_segments() == []


class TestSubstrateBitIdentity:
    """Serial, persistent-pool-fanned, and disk-warm scoring must all
    produce bit-identical scorecards."""

    def test_serial_vs_fanned_vs_disk_warm(self, tmp_path):
        matrix = fixture_matrix(seed=11)
        config = PerspectorConfig(seed=3)
        serial = Engine(workers=1).score_matrix(matrix, config, "all")

        with Engine(workers=2, shm_min_bytes=0) as engine:
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
        assert shm_mod.leaked_segments() == []
