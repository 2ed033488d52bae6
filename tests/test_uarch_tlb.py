"""Tests for repro.uarch.tlb."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.config import TLBConfig
from repro.uarch.tlb import TLB, TwoLevelTLB
from tests.uarch_reference import page_number, tlb_contains, tlb_lookup

PAGE = 4096


def tiny_tlb(entries=8, assoc=2):
    return TLB(TLBConfig(name="T", entries=entries, associativity=assoc))


def two_level(dtlb_entries=4, stlb_entries=16, walk_cycles=100):
    return TwoLevelTLB(
        TLBConfig(name="dTLB", entries=dtlb_entries, associativity=2),
        TLBConfig(name="STLB", entries=stlb_entries, associativity=4),
        walk_cycles=walk_cycles,
    )


class TestSingleLevelTLB:
    def test_cold_miss_then_hit(self):
        t = tiny_tlb()
        assert tlb_lookup(t, 0x1000) is False
        assert tlb_lookup(t, 0x1000) is True

    def test_same_page_different_offset_hits(self):
        t = tiny_tlb()
        tlb_lookup(t, 0)
        assert tlb_lookup(t, PAGE - 1) is True
        assert tlb_lookup(t, PAGE) is False

    def test_page_number(self):
        t = tiny_tlb()
        assert page_number(t, 0) == 0
        assert page_number(t, PAGE) == 1
        assert page_number(t, PAGE * 5 + 123) == 5

    def test_lru_within_set(self):
        # assoc=2, 1 set: pages 0, 1, re-touch 0, then 2 evicts 1.
        t = tiny_tlb(entries=2, assoc=2)
        tlb_lookup(t, 0 * PAGE)
        tlb_lookup(t, 1 * PAGE)
        tlb_lookup(t, 0 * PAGE)
        tlb_lookup(t, 2 * PAGE)
        assert tlb_contains(t, 0 * PAGE) and not tlb_contains(t, 1 * PAGE)
        assert tlb_lookup(t, 0 * PAGE) is True
        assert tlb_lookup(t, 1 * PAGE) is False

    def test_capacity_working_set_hits(self):
        t = tiny_tlb(entries=8, assoc=2)
        pages = [i * PAGE for i in range(8)]
        for p in pages:
            tlb_lookup(t, p)
        for p in pages:
            assert tlb_lookup(t, p) is True

    def test_hit_miss_counters(self):
        t = tiny_tlb()
        tlb_lookup(t, 0)
        tlb_lookup(t, 0)
        tlb_lookup(t, PAGE)
        assert t.misses == 2
        assert t.hits == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            TLBConfig(name="X", entries=10, associativity=4)
        with pytest.raises(ValueError, match="power of two"):
            TLBConfig(name="X", entries=8, associativity=4, page_bytes=3000)


class TestTwoLevelTLB:
    def test_stlb_catches_dtlb_miss(self):
        t = two_level(dtlb_entries=2, stlb_entries=16)
        # Fill pages 0..3: dTLB (2 entries) loses 0, 1; STLB keeps all.
        addrs = np.array([i * PAGE for i in range(4)])
        t.access_many(addrs)
        out = t.access_many(np.array([0]))
        assert out.misses == 1       # dTLB lost page 0
        assert out.stlb_hits == 1    # but the STLB still holds it
        assert out.walks == 0

    def test_double_miss_walks(self):
        t = two_level(walk_cycles=77)
        out = t.access_many(np.array([0x10000]))
        assert out.walks == 1
        assert out.walk_cycles == 77

    def test_load_store_split(self):
        t = two_level()
        addrs = np.array([0, PAGE, 2 * PAGE])
        writes = np.array([False, True, True])
        out = t.access_many(addrs, writes)
        assert out.loads == 1
        assert out.stores == 2
        assert out.load_misses == 1
        assert out.store_misses == 2

    def test_hit_after_fill_no_events(self):
        t = two_level()
        t.access_many(np.array([0]))
        out = t.access_many(np.array([0, 1, 2]))  # same page
        assert out.accesses == 3
        assert out.misses == 0
        assert out.walk_cycles == 0

    def test_length_mismatch_raises(self):
        t = two_level()
        with pytest.raises(ValueError, match="writes length"):
            t.access_many(np.array([0]), np.array([True, False]))

    def test_negative_walk_cycles_raises(self):
        with pytest.raises(ValueError, match="walk_cycles"):
            two_level(walk_cycles=-1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_walks_bounded_by_misses(self, seed):
        t = two_level()
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 1 << 26, size=300)
        out = t.access_many(addrs)
        assert out.walks + out.stlb_hits == out.misses
        assert out.walk_cycles == out.walks * t.walk_cycles

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_counter_conservation(self, seed):
        t = two_level()
        rng = np.random.default_rng(seed)
        n = 200
        addrs = rng.integers(0, 1 << 24, size=n)
        writes = rng.uniform(size=n) < 0.5
        out = t.access_many(addrs, writes)
        assert out.loads + out.stores == n
        assert out.load_misses <= out.loads
        assert out.store_misses <= out.stores
