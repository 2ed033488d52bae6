"""Tests for repro.uarch.cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cache import CHUNK, SetAssociativeCache
from repro.uarch.config import CacheConfig


def tiny_cache(assoc=2, sets=4, line=64, policy="lru"):
    return SetAssociativeCache(
        CacheConfig(
            name="T",
            size_bytes=assoc * sets * line,
            line_bytes=line,
            associativity=assoc,
            policy=policy,
        )
    )


class TestAddressSplitting:
    def test_line_address_drops_offset(self):
        c = tiny_cache()
        assert c.line_address(0) == c.line_address(63)
        assert c.line_address(64) == c.line_address(0) + 1

    def test_set_index_wraps(self):
        c = tiny_cache(sets=4)
        # Lines 0 and 4 share set 0.
        assert c.set_index(0) == c.set_index(4 * 64)
        assert c.set_index(64) == 1

    def test_tag_distinguishes_same_set_lines(self):
        c = tiny_cache(sets=4)
        assert c.tag(0) != c.tag(4 * 64)


class TestBasicHitMiss:
    def test_cold_miss_then_hit(self):
        c = tiny_cache()
        assert c.access(0x1000) is False
        assert c.access(0x1000) is True

    def test_same_line_different_offset_hits(self):
        c = tiny_cache()
        c.access(0x1000)
        assert c.access(0x1001) is True
        assert c.access(0x103F) is True

    def test_next_line_misses(self):
        c = tiny_cache()
        c.access(0x1000)
        assert c.access(0x1040) is False

    def test_write_allocate(self):
        c = tiny_cache()
        assert c.access(0x2000, is_write=True) is False
        assert c.access(0x2000, is_write=False) is True

    def test_stats_split_loads_stores(self):
        c = tiny_cache()
        c.access(0x0, is_write=False)
        c.access(0x0, is_write=True)
        c.access(0x40, is_write=True)
        assert c.stats.loads == 1
        assert c.stats.stores == 2
        assert c.stats.load_misses == 1
        assert c.stats.store_misses == 1


class TestLRUReplacement:
    def test_eviction_order(self):
        c = tiny_cache(assoc=2, sets=1, line=64)
        a, b, d = 0x0, 0x40, 0x80  # all map to the single set
        c.access(a)
        c.access(b)
        c.access(a)        # a is now MRU
        c.access(d)        # evicts b (LRU)
        assert c.access(a) is True
        assert c.access(b) is False

    def test_working_set_within_capacity_all_hit(self):
        c = tiny_cache(assoc=4, sets=8)
        lines = [i * 64 for i in range(32)]  # exactly capacity
        for addr in lines:
            c.access(addr)
        for addr in lines:
            assert c.access(addr) is True

    def test_working_set_exceeding_capacity_thrashes(self):
        c = tiny_cache(assoc=2, sets=2)  # 4 lines
        # 8 lines in round-robin: every access evicts the one needed next.
        lines = [i * 64 for i in range(8)]
        for _ in range(3):
            for addr in lines:
                c.access(addr)
        assert c.stats.misses == 24  # no reuse survives

    def test_eviction_count(self):
        c = tiny_cache(assoc=2, sets=1)
        for i in range(5):
            c.access(i * 64)
        assert c.stats.evictions == 3


class TestFIFOReplacement:
    def test_fifo_ignores_reuse(self):
        c = tiny_cache(assoc=2, sets=1, policy="fifo")
        a, b, d = 0x0, 0x40, 0x80
        c.access(a)
        c.access(b)
        c.access(a)        # reuse does NOT refresh a under FIFO
        c.access(d)        # evicts a (oldest fill)
        assert c.access(b) is True
        assert c.access(a) is False


class TestRandomReplacement:
    def test_evicts_something(self):
        c = SetAssociativeCache(
            CacheConfig(name="R", size_bytes=2 * 64, line_bytes=64,
                        associativity=2, policy="random"),
            rng=0,
        )
        for i in range(10):
            c.access(i * 64 * 1)  # sets=1, so all conflict
        assert c.resident_lines() == 2
        assert c.stats.evictions == 8


def cache_state(c):
    """Everything a fill or hit can change: stats, each set's tags in
    order with their dirty bits, and the replacement generator."""
    return (c.stats.snapshot(), [list(ways.items()) for ways in c._sets],
            c._rng.bit_generator.state)


class TestBatchAccess:
    @settings(max_examples=80, deadline=None)
    @given(assoc=st.sampled_from([1, 2, 4, 16]),
           sets=st.sampled_from([1, 3, 4, 5, 12]),
           policy=st.sampled_from(["lru", "fifo", "random"]),
           accesses=st.lists(st.tuples(st.integers(0, 255), st.booleans()),
                             max_size=400),
           split=st.integers(0, 400))
    def test_matches_scalar_path(self, assoc, sets, policy, accesses, split):
        # Lines 0..255 over at most 192 frames: every geometry conflicts.
        addrs = np.array([line * 64 + line % 64 for line, _ in accesses],
                         dtype=np.int64)
        writes = np.array([w for _, w in accesses], dtype=bool)
        c1 = tiny_cache(assoc=assoc, sets=sets, policy=policy)
        c2 = tiny_cache(assoc=assoc, sets=sets, policy=policy)
        # Two batches: state must carry across batch boundaries.
        hits_batch = np.concatenate([
            c1.access_many(addrs[:split], writes[:split]),
            c1.access_many(addrs[split:], writes[split:]),
        ])
        hits_scalar = np.array(
            [c2.access(int(a), bool(w)) for a, w in zip(addrs, writes)],
            dtype=bool,
        )
        np.testing.assert_array_equal(hits_batch, hits_scalar)
        assert cache_state(c1) == cache_state(c2)

    def test_matches_scalar_path_across_chunks(self):
        rng = np.random.default_rng(0)
        n = 2 * CHUNK + 37
        addrs = rng.integers(0, 1 << 14, size=n)
        writes = rng.uniform(size=n) < 0.4
        for policy in ("lru", "fifo", "random"):
            c1, c2 = tiny_cache(policy=policy), tiny_cache(policy=policy)
            hits_batch = c1.access_many(addrs, writes)
            hits_scalar = np.array(
                [c2.access(int(a), bool(w)) for a, w in zip(addrs, writes)]
            )
            np.testing.assert_array_equal(hits_batch, hits_scalar)
            assert cache_state(c1) == cache_state(c2)

    def test_default_all_loads(self):
        c = tiny_cache()
        c.access_many(np.array([0, 0, 64]))
        assert c.stats.stores == 0
        assert c.stats.loads == 3

    def test_length_mismatch_raises(self):
        c = tiny_cache()
        with pytest.raises(ValueError, match="writes length"):
            c.access_many(np.array([0, 64]), np.array([True]))

    def test_stats_accesses_property(self):
        c = tiny_cache()
        c.access_many(np.arange(0, 64 * 10, 64))
        assert c.stats.accesses == 10
        assert c.stats.miss_rate == 1.0


class TestMaintenance:
    def test_flush_invalidates_but_keeps_stats(self):
        c = tiny_cache()
        c.access(0x0)
        c.flush()
        assert c.stats.loads == 1
        assert c.access(0x0) is False

    def test_reset_clears_everything(self):
        c = tiny_cache()
        c.access(0x0)
        c.reset()
        assert c.stats.accesses == 0
        assert c.resident_lines() == 0

    def test_contains(self):
        c = tiny_cache()
        c.access(0x1000)
        assert c.contains(0x1000)
        assert c.contains(0x1010)  # same line
        assert not c.contains(0x2000)

    def test_resident_never_exceeds_capacity(self):
        c = tiny_cache(assoc=2, sets=4)
        rng = np.random.default_rng(1)
        c.access_many(rng.integers(0, 1 << 16, size=1000))
        assert c.resident_lines() <= c.config.n_lines


class TestConfigValidation:
    def test_bad_line_size(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig(name="X", size_bytes=1024, line_bytes=48)

    def test_bad_size_multiple(self):
        with pytest.raises(ValueError, match="not divisible"):
            CacheConfig(name="X", size_bytes=1000, line_bytes=64,
                        associativity=2)

    def test_bad_policy(self):
        with pytest.raises(ValueError, match="policy"):
            CacheConfig(name="X", size_bytes=1024, line_bytes=64,
                        associativity=2, policy="plru")

    def test_n_sets(self):
        cfg = CacheConfig(name="X", size_bytes=32 * 1024, line_bytes=64,
                          associativity=8)
        assert cfg.n_sets == 64
        assert cfg.n_lines == 512


class TestCacheProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_immediate_reaccess_always_hits(self, seed):
        c = tiny_cache(assoc=2, sets=8)
        rng = np.random.default_rng(seed)
        for addr in rng.integers(0, 1 << 16, size=200).tolist():
            c.access(addr)
            assert c.access(addr) is True

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), assoc=st.sampled_from([1, 2, 4]))
    def test_misses_bounded_by_accesses(self, seed, assoc):
        c = tiny_cache(assoc=assoc, sets=4)
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 13, size=300)
        c.access_many(addrs)
        assert 0 <= c.stats.misses <= c.stats.accesses

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_larger_cache_never_more_misses_on_lru(self, seed):
        # LRU is a stack algorithm: inclusion property holds per set count
        # when associativity grows with fixed sets.
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 13, size=400)
        small = tiny_cache(assoc=2, sets=8)
        large = tiny_cache(assoc=4, sets=8)
        small.access_many(addrs)
        large.access_many(addrs)
        assert large.stats.misses <= small.stats.misses
