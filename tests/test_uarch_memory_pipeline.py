"""Tests for repro.uarch.memory, prefetch, pipeline, and hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.cache import SetAssociativeCache
from repro.uarch.config import (
    CacheConfig,
    MachineConfig,
    MemoryConfig,
    small_test_machine,
    xeon_e2186g,
)
from repro.uarch.hierarchy import CacheHierarchy
from repro.uarch.memory import DemandPager
from repro.uarch.pipeline import TimingModel
from repro.uarch.prefetch import NextLinePrefetcher
from repro.uarch.tlb import TLBCounters

PAGE = 4096


class TestDemandPager:
    def test_first_touch_faults(self):
        p = DemandPager()
        assert p.touch(0x1000) is True
        assert p.touch(0x1000) is False

    def test_same_page_no_refault(self):
        p = DemandPager()
        p.touch(0)
        assert p.touch(PAGE - 1) is False
        assert p.touch(PAGE) is True

    def test_touch_many_counts_unique_pages(self):
        p = DemandPager()
        addrs = np.array([0, 10, PAGE, PAGE + 5, 3 * PAGE])
        assert p.touch_many(addrs) == 3
        assert p.resident_count == 3

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), resident_pages=st.integers(1, 12),
           over=st.sampled_from([0, 1]))
    def test_touch_many_matches_scalar(self, data, resident_pages, over):
        # The batch's resident + unique page count sits exactly on the
        # no-eviction test (over=0) or one past it (over=1).
        pages = st.integers(0, 3 * resident_pages)
        warm = data.draw(st.lists(pages, max_size=2 * resident_pages))
        p1 = DemandPager(resident_pages=resident_pages)
        p2 = DemandPager(resident_pages=resident_pages)
        for page in warm:
            p1.touch(page * PAGE)
            p2.touch(page * PAGE)
        unique = resident_pages - p1.resident_count + over
        if unique < 1:
            return
        distinct = data.draw(st.lists(pages, min_size=unique,
                                      max_size=unique, unique=True))
        extra = data.draw(st.lists(st.sampled_from(distinct), max_size=20))
        order = data.draw(st.permutations(distinct + extra))
        offsets = data.draw(st.lists(st.integers(0, PAGE - 1),
                                     min_size=len(order),
                                     max_size=len(order)))
        addrs = np.array(order, dtype=np.int64) * PAGE + offsets
        batch = p1.touch_many(addrs)
        scalar = sum(p2.touch(int(a)) for a in addrs)
        assert batch == scalar
        assert (p1.faults, p1.evictions) == (p2.faults, p2.evictions)
        assert list(p1._resident) == list(p2._resident)

    def test_fifo_eviction_and_refault(self):
        p = DemandPager(resident_pages=2)
        p.touch(0 * PAGE)
        p.touch(1 * PAGE)
        p.touch(2 * PAGE)  # evicts page 0
        assert p.evictions == 1
        assert p.touch(0 * PAGE) is True  # refault

    def test_touch_many_exact_under_thrash(self):
        # Batch that overflows the resident set must match scalar replay.
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 16 * PAGE, size=300)
        p1 = DemandPager(resident_pages=4)
        p2 = DemandPager(resident_pages=4)
        batch = p1.touch_many(addrs)
        scalar = sum(p2.touch(int(a)) for a in addrs)
        assert batch == scalar

    def test_empty_batch(self):
        assert DemandPager().touch_many(np.array([], dtype=int)) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            DemandPager(page_bytes=1000)
        with pytest.raises(ValueError, match="resident_pages"):
            DemandPager(resident_pages=0)

    def test_reset(self):
        p = DemandPager()
        p.touch(0)
        p.reset()
        assert p.faults == 0
        assert p.touch(0) is True

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), cap=st.integers(1, 64))
    def test_property_resident_bounded(self, seed, cap):
        p = DemandPager(resident_pages=cap)
        rng = np.random.default_rng(seed)
        p.touch_many(rng.integers(0, 1 << 22, size=200))
        assert p.resident_count <= cap


class TestNextLinePrefetcher:
    def test_targets_are_next_line(self):
        pf = NextLinePrefetcher(64)
        targets = pf.prefetch_targets(np.array([0, 128]))
        assert targets == [64, 192]
        assert pf.issued == 2

    def test_install_fills_without_demand_stats(self):
        cache = SetAssociativeCache(
            CacheConfig(name="X", size_bytes=1024, line_bytes=64,
                        associativity=2)
        )
        pf = NextLinePrefetcher(64)
        assert pf.install(cache, 0x40) is True
        assert cache.stats.accesses == 0
        assert cache.contains(0x40)
        assert pf.install(cache, 0x40) is False  # already resident
        assert pf.installed == 1

    def test_prefetcher_reduces_misses_on_streams(self):
        plain = small_test_machine()
        with_pf = MachineConfig(
            l1=plain.l1, l2=plain.l2, llc=plain.llc, dtlb=plain.dtlb,
            stlb=plain.stlb, branch=plain.branch, memory=plain.memory,
            base_cpi=plain.base_cpi, enable_prefetcher=True,
        )
        stream = np.arange(0, 64 * 2000, 64)
        h_plain = CacheHierarchy(plain)
        h_pf = CacheHierarchy(with_pf)
        c_plain = h_plain.access_many(stream)
        c_pf = h_pf.access_many(stream)
        assert c_pf.llc_misses < c_plain.llc_misses


class TestHierarchy:
    def test_llc_loads_are_l2_misses(self):
        h = CacheHierarchy(small_test_machine())
        rng = np.random.default_rng(2)
        addrs = rng.integers(0, 1 << 20, size=2000)
        c = h.access_many(addrs)
        assert c.llc_loads + c.llc_stores == c.l2_misses

    def test_miss_counts_monotone_down_the_hierarchy(self):
        h = CacheHierarchy(small_test_machine())
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 18, size=1500)
        writes = rng.uniform(size=1500) < 0.3
        c = h.access_many(addrs, writes)
        l1_misses = c.l1_load_misses + c.l1_store_misses
        assert c.l2_accesses == l1_misses
        assert c.l2_misses <= c.l2_accesses
        assert c.llc_misses <= c.llc_accesses

    def test_small_working_set_stays_in_l1(self):
        h = CacheHierarchy(small_test_machine())
        addrs = np.tile(np.arange(0, 512, 64), 50)  # 8 lines, 2 sets used
        h.access_many(addrs)  # warm
        c = h.access_many(addrs)
        assert c.l1_load_misses == 0
        assert c.llc_loads == 0

    def test_load_store_attribution(self):
        h = CacheHierarchy(small_test_machine())
        rng = np.random.default_rng(4)
        addrs = rng.integers(0, 1 << 22, size=1000)
        c = h.access_many(addrs, np.ones(1000, dtype=bool))
        assert c.l1_loads == 0
        assert c.llc_loads == 0
        assert c.l1_stores == 1000

    def test_reset(self):
        h = CacheHierarchy(small_test_machine())
        addrs = np.arange(0, 64 * 100, 64)
        h.access_many(addrs)
        h.reset()
        c = h.access_many(addrs)
        assert c.l1_load_misses == 100  # cold again

    def test_writes_length_mismatch_raises(self):
        h = CacheHierarchy(small_test_machine())
        with pytest.raises(ValueError, match="writes length"):
            h.access_many(np.array([0]), np.array([True, False]))


class TestTimingModel:
    def _counters(self, **kw):
        from repro.uarch.hierarchy import HierarchyCounters

        defaults = dict(
            l1_loads=100, l1_stores=0, l1_load_misses=10, l1_store_misses=0,
            l2_accesses=10, l2_misses=4, llc_loads=4, llc_stores=0,
            llc_load_misses=2, llc_store_misses=0,
        )
        defaults.update(kw)
        return HierarchyCounters(**defaults)

    def test_cycle_composition(self):
        machine = xeon_e2186g()
        tm = TimingModel(machine)
        tlb = TLBCounters(walk_cycles=500)
        bd = tm.cycles(
            instructions=1000, mispredicts=5,
            hierarchy=self._counters(), tlb=tlb, page_faults=2,
        )
        assert bd.base_cycles == pytest.approx(machine.base_cpi * 1000)
        assert bd.branch_penalty_cycles == pytest.approx(
            5 * machine.branch.mispredict_penalty
        )
        # 10 L1 misses, 4 L2 misses -> 6 served by L2, 2 by LLC, 2 by DRAM.
        assert bd.l2_service_cycles == pytest.approx(
            6 * machine.l2.latency_cycles
        )
        assert bd.llc_service_cycles == pytest.approx(
            2 * machine.llc.latency_cycles
        )
        assert bd.dram_cycles == pytest.approx(
            2 * machine.memory.dram_latency_cycles / machine.memory.mlp
        )
        assert bd.walk_cycles == 500
        assert bd.fault_cycles == pytest.approx(
            2 * machine.memory.page_fault_cycles
        )
        assert bd.total_cycles == pytest.approx(
            bd.base_cycles + bd.branch_penalty_cycles
            + bd.memory_stall_cycles + bd.fault_cycles
        )

    def test_stalls_include_walks(self):
        tm = TimingModel(xeon_e2186g())
        bd = tm.cycles(100, 0, self._counters(), TLBCounters(walk_cycles=999),
                       0)
        assert bd.memory_stall_cycles >= 999

    def test_negative_instructions_raise(self):
        tm = TimingModel(xeon_e2186g())
        with pytest.raises(ValueError, match="instructions"):
            tm.cycles(-1, 0, self._counters(), TLBCounters(), 0)

    def test_mlp_scales_dram(self):
        base = xeon_e2186g()
        high_mlp = MachineConfig(
            l1=base.l1, l2=base.l2, llc=base.llc, dtlb=base.dtlb,
            stlb=base.stlb, branch=base.branch,
            memory=MemoryConfig(mlp=8.0), base_cpi=base.base_cpi,
        )
        c = self._counters(llc_load_misses=100)
        slow = TimingModel(base).cycles(10, 0, c, TLBCounters(), 0)
        fast = TimingModel(high_mlp).cycles(10, 0, c, TLBCounters(), 0)
        assert fast.dram_cycles < slow.dram_cycles


class TestMachineConfigs:
    def test_xeon_matches_table2_geometry(self):
        m = xeon_e2186g()
        # Table II: L2 total 1536 KB over 6 cores -> 256 KB/core.
        assert m.l2.size_bytes == 256 * 1024
        assert m.llc.size_bytes == 12 * 1024 * 1024
        assert m.frequency_ghz == 3.8
        # THP off (Table II) -> 4 KB pages.
        assert m.dtlb.page_bytes == 4096

    def test_line_size_mismatch_rejected(self):
        m = xeon_e2186g()
        bad_l2 = CacheConfig(name="L2", size_bytes=256 * 1024,
                             line_bytes=128, associativity=4)
        with pytest.raises(ValueError, match="line size"):
            MachineConfig(l1=m.l1, l2=bad_l2, llc=m.llc, dtlb=m.dtlb,
                          stlb=m.stlb)

    def test_with_policy(self):
        m = xeon_e2186g().with_policy("fifo")
        assert m.l1.policy == "fifo"
        assert m.llc.policy == "fifo"

    def test_base_cpi_validation(self):
        m = xeon_e2186g()
        with pytest.raises(ValueError, match="base_cpi"):
            MachineConfig(l1=m.l1, l2=m.l2, llc=m.llc, dtlb=m.dtlb,
                          stlb=m.stlb, base_cpi=0.0)
