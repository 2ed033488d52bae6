"""Tests for repro.uarch.cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cache import CHUNK, SetAssociativeCache, victim_positions
from repro.uarch.config import CacheConfig
from tests.uarch_reference import (
    access,
    cache_lines,
    contains,
    line_address,
    resident_lines,
    line_tag,
    set_index,
)


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


def hit(c, addr, is_write=False):
    """One access through the batch kernel: whether it hit."""
    return bool(c.access_many([addr], [is_write])[0])


class TestAddressSplitting:
    def test_line_address_drops_offset(self):
        c = tiny_cache()
        assert line_address(c, 0) == line_address(c, 63)
        assert line_address(c, 64) == line_address(c, 0) + 1

    def test_set_index_wraps(self):
        c = tiny_cache(sets=4)
        # Lines 0 and 4 share set 0.
        assert set_index(c, 0) == set_index(c, 4 * 64)
        assert set_index(c, 64) == 1

    def test_tag_distinguishes_same_set_lines(self):
        c = tiny_cache(sets=4)
        assert line_tag(c, 0) != line_tag(c, 4 * 64)


class TestBasicHitMiss:
    def test_cold_miss_then_hit(self):
        c = tiny_cache()
        assert hit(c, 0x1000) is False
        assert hit(c, 0x1000) is True

    def test_same_line_different_offset_hits(self):
        c = tiny_cache()
        hit(c, 0x1000)
        assert hit(c, 0x1001) is True
        assert hit(c, 0x103F) is True

    def test_next_line_misses(self):
        c = tiny_cache()
        hit(c, 0x1000)
        assert hit(c, 0x1040) is False

    def test_write_allocate(self):
        c = tiny_cache()
        assert hit(c, 0x2000, is_write=True) is False
        assert hit(c, 0x2000, is_write=False) is True

    def test_stats_split_loads_stores(self):
        c = tiny_cache()
        hit(c, 0x0, is_write=False)
        hit(c, 0x0, is_write=True)
        hit(c, 0x40, is_write=True)
        assert c.stats.loads == 1
        assert c.stats.stores == 2
        assert c.stats.load_misses == 1
        assert c.stats.store_misses == 1


class TestLRUReplacement:
    def test_eviction_order(self):
        c = tiny_cache(assoc=2, sets=1, line=64)
        a, b, d = 0x0, 0x40, 0x80  # all map to the single set
        hit(c, a)
        hit(c, b)
        hit(c, a)        # a is now MRU
        hit(c, d)        # evicts b (LRU)
        assert hit(c, a) is True
        assert hit(c, b) is False

    def test_working_set_within_capacity_all_hit(self):
        c = tiny_cache(assoc=4, sets=8)
        lines = [i * 64 for i in range(32)]  # exactly capacity
        for addr in lines:
            hit(c, addr)
        for addr in lines:
            assert hit(c, addr) is True

    def test_working_set_exceeding_capacity_thrashes(self):
        c = tiny_cache(assoc=2, sets=2)  # 4 lines
        # 8 lines in round-robin: every access evicts the one needed next.
        lines = [i * 64 for i in range(8)]
        for _ in range(3):
            for addr in lines:
                hit(c, addr)
        assert c.stats.misses == 24  # no reuse survives

    def test_eviction_count(self):
        c = tiny_cache(assoc=2, sets=1)
        for i in range(5):
            hit(c, i * 64)
        assert c.stats.evictions == 3


class TestFIFOReplacement:
    def test_fifo_ignores_reuse(self):
        c = tiny_cache(assoc=2, sets=1, policy="fifo")
        a, b, d = 0x0, 0x40, 0x80
        hit(c, a)
        hit(c, b)
        hit(c, a)        # reuse does NOT refresh a under FIFO
        hit(c, d)        # evicts a (oldest fill)
        assert hit(c, b) is True
        assert hit(c, a) is False


class TestRandomReplacement:
    def test_evicts_something(self):
        c = tiny_cache(assoc=2, sets=1, policy="random")
        for i in range(10):
            hit(c, i * 64 * 1)  # sets=1, so all conflict
        assert resident_lines(c) == 2
        assert c.stats.evictions == 8
        assert c._draws.tolist() == [8]

    def test_draws_cover_every_way_evenly(self):
        # 64 sets x 256 draws each, 16 ways: ~1024 per position.
        sets = np.repeat(np.arange(64), 256)
        draws = np.tile(np.arange(256), 64)
        counts = np.bincount(victim_positions(5, sets, draws, 16),
                             minlength=16)
        assert counts.min() > 900 and counts.max() < 1150
        assert not np.array_equal(victim_positions(6, sets, draws, 16),
                                  victim_positions(5, sets, draws, 16))


def cache_state(c):
    """Everything a fill or hit can change: stats, each set's tags in
    order with their dirty bits, and each set's victim draw count."""
    return c.stats.snapshot(), cache_lines(c), c._draws.tolist()


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
            [access(c2, int(a), bool(w)) for a, w in zip(addrs, writes)],
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
                [access(c2, int(a), bool(w)) for a, w in zip(addrs, writes)]
            )
            np.testing.assert_array_equal(hits_batch, hits_scalar)
            assert cache_state(c1) == cache_state(c2)

    def test_default_all_loads(self):
        c = tiny_cache()
        c.access_many(np.array([0, 0, 64]))
        assert c.stats.stores == 0
        assert c.stats.loads == 3

    @pytest.mark.parametrize("addrs", [
        np.array([0, 64, -64]),
        np.array([0, 2**63], dtype=np.uint64),
    ])
    def test_out_of_range_addresses_raise(self, addrs):
        c = tiny_cache()
        with pytest.raises(ValueError, match=r"addrs must be byte addresses"):
            c.access_many(addrs)
        assert cache_state(c) == cache_state(tiny_cache())

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
    def test_contains(self):
        c = tiny_cache()
        hit(c, 0x1000)
        assert contains(c, 0x1000)
        assert contains(c, 0x1010)  # same line
        assert not contains(c, 0x2000)

    def test_resident_never_exceeds_capacity(self):
        c = tiny_cache(assoc=2, sets=4)
        rng = np.random.default_rng(1)
        c.access_many(rng.integers(0, 1 << 16, size=1000))
        assert resident_lines(c) <= c.config.n_lines


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
            hit(c, addr)
            assert hit(c, addr) is True

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
