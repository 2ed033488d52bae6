"""Tests for write-back (dirty line) accounting in the cache model."""

import numpy as np
import pytest

from repro.uarch.cache import SetAssociativeCache
from repro.uarch.config import CacheConfig
from tests.test_uarch_cache import hit


def cache(assoc=2, sets=1):
    return SetAssociativeCache(
        CacheConfig(name="WB", size_bytes=assoc * sets * 64, line_bytes=64,
                    associativity=assoc)
    )


class TestWritebacks:
    def test_clean_eviction_no_writeback(self):
        c = cache(assoc=1)
        hit(c, 0x0)              # load-fill
        hit(c, 0x40)             # evicts the clean line
        assert c.stats.evictions == 1
        assert c.stats.writebacks == 0

    def test_dirty_fill_writes_back(self):
        c = cache(assoc=1)
        hit(c, 0x0, is_write=True)   # store-fill -> dirty
        hit(c, 0x40)                 # evicts dirty line
        assert c.stats.writebacks == 1

    def test_hit_store_dirties_line(self):
        c = cache(assoc=1)
        hit(c, 0x0)                  # load-fill (clean)
        hit(c, 0x0, is_write=True)   # hit store dirties
        hit(c, 0x40)                 # evicts -> write-back
        assert c.stats.writebacks == 1

    def test_reload_after_writeback_is_clean(self):
        c = cache(assoc=1)
        hit(c, 0x0, is_write=True)
        hit(c, 0x40)                 # wb #1
        hit(c, 0x0)                  # reload clean
        hit(c, 0x40)                 # evicts clean reload
        assert c.stats.writebacks == 1

    def test_writebacks_bounded_by_evictions(self):
        c = cache(assoc=2, sets=2)
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 13, size=500)
        writes = rng.uniform(size=500) < 0.5
        c.access_many(addrs, writes)
        assert 0 < c.stats.writebacks <= c.stats.evictions

    def test_read_only_stream_never_writes_back(self):
        c = cache(assoc=2, sets=4)
        c.access_many(np.arange(0, 64 * 200, 64))
        assert c.stats.evictions > 0
        assert c.stats.writebacks == 0

    def test_write_only_stream_all_writebacks(self):
        c = cache(assoc=2, sets=4)
        n = 200
        c.access_many(np.arange(0, 64 * n, 64), np.ones(n, dtype=bool))
        assert c.stats.writebacks == c.stats.evictions

    def test_snapshot_and_reset_carry_writebacks(self):
        c = cache(assoc=1)
        hit(c, 0x0, is_write=True)
        hit(c, 0x40)
        snap = c.stats.snapshot()
        assert snap.writebacks == 1
        assert cache(assoc=1).stats.writebacks == 0

    def test_random_policy_writebacks(self):
        c = SetAssociativeCache(
            CacheConfig(name="R", size_bytes=2 * 64, line_bytes=64,
                        associativity=2, policy="random"),
            seed=1,
        )
        c.access_many(np.arange(20) * 64, np.ones(20, dtype=bool))
        assert c.stats.writebacks == c.stats.evictions == 18
