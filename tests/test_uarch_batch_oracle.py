"""Batch paths against the per-access reference models, bit for bit.

The simulator runs fused batch loops (``CacheHierarchy.access_many``,
``TwoLevelTLB.access_many``, ``run_trace``); the per-access methods
(``SetAssociativeCache.access``, ``NextLinePrefetcher.install`` /
``prefetch_targets``, ``TLB.lookup``, ``predict_and_update``) are the
oracle. Every counter and every piece of state must agree.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.branch import (
    BimodalPredictor,
    GSharePredictor,
    StaticTakenPredictor,
    TournamentPredictor,
    _PredictorBase,
)
from repro.uarch.cache import CHUNK, CacheStats
from repro.uarch.config import TLBConfig, small_test_machine
from repro.uarch.hierarchy import CacheHierarchy, HierarchyCounters
from repro.uarch.tlb import TLBCounters, TwoLevelTLB

accesses = st.lists(st.tuples(st.integers(0, 2047), st.booleans()),
                    max_size=300)


def _arrays(pairs, stride):
    addrs = np.array([u * stride + u % 61 for u, _ in pairs], dtype=np.int64)
    writes = np.array([w for _, w in pairs], dtype=bool)
    return addrs, writes


# -- cache hierarchy ----------------------------------------------------------


def reference_hierarchy(h, addrs, writes):
    """The per-access composition the batch path replaces: L1 first, then
    the lower levels on the L1 misses (a batch per level without the
    prefetcher, interleaved per miss with it)."""
    misses = [(a, w) for a, w in zip(addrs.tolist(), writes.tolist())
              if not h.l1.access(a, w)]
    if h.prefetcher is None:
        llc_stream = [(a, w) for a, w in misses if not h.l2.access(a, w)]
        for a, w in llc_stream:
            h.llc.access(a, w)
        return
    for a, w in misses:
        if not h.l2.access(a, w):
            h.llc.access(a, w)
        (target,) = h.prefetcher.prefetch_targets(np.array([a]))
        h.prefetcher.install(h.l2, target)
        h.prefetcher.install(h.llc, target)


def hierarchy_state(h):
    levels = [(c.stats.snapshot(), [list(w.items()) for w in c._sets])
              for c in (h.l1, h.l2, h.llc)]
    pf = h.prefetcher
    return (levels, h.l1._rng.bit_generator.state,
            None if pf is None else (pf.issued, pf.installed))


def _hierarchy(prefetch, policy):
    machine = dataclasses.replace(small_test_machine().with_policy(policy),
                                  enable_prefetcher=prefetch)
    return CacheHierarchy(machine, rng=3)


def _check_hierarchy(prefetch, policy, batches):
    fast, slow = _hierarchy(prefetch, policy), _hierarchy(prefetch, policy)
    for addrs, writes in batches:
        levels = (slow.l1, slow.l2, slow.llc)
        before = [c.stats.snapshot() for c in levels]
        counters = fast.access_many(addrs, writes)
        reference_hierarchy(slow, addrs, writes)
        l1, l2, llc = (_delta(b, c.stats) for b, c in zip(before, levels))
        assert counters == HierarchyCounters(
            l1_loads=l1.loads, l1_stores=l1.stores,
            l1_load_misses=l1.load_misses, l1_store_misses=l1.store_misses,
            l2_accesses=l2.accesses, l2_misses=l2.misses,
            llc_loads=llc.loads, llc_stores=llc.stores,
            llc_load_misses=llc.load_misses,
            llc_store_misses=llc.store_misses,
        )
        assert hierarchy_state(fast) == hierarchy_state(slow)


def _delta(before, after):
    return CacheStats(**{f.name: getattr(after, f.name) - getattr(before,
                                                                  f.name)
                         for f in dataclasses.fields(CacheStats)})


class TestHierarchyOracle:
    @settings(max_examples=60, deadline=None)
    @given(prefetch=st.booleans(),
           policy=st.sampled_from(["lru", "fifo", "random"]),
           pairs=accesses, split=st.integers(0, 300))
    def test_matches_reference(self, prefetch, policy, pairs, split):
        # 2048 lines, 8x the small machine's LLC: misses at every level.
        addrs, writes = _arrays(pairs, 64)
        _check_hierarchy(prefetch, policy, [
            (addrs[:split], writes[:split]), (addrs[split:], writes[split:]),
        ])

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_matches_reference_across_chunks(self, policy):
        rng = np.random.default_rng(1)
        n = 3 * CHUNK + 11  # > 2 chunks of L1 misses
        stream = np.arange(n) * 64
        addrs = np.where(rng.uniform(size=n) < 0.5, stream,
                         rng.integers(0, 1 << 17, size=n))
        writes = rng.uniform(size=n) < 0.3
        for prefetch in (True, False):
            _check_hierarchy(prefetch, policy, [(addrs, writes)] * 2)


# -- two-level TLB ------------------------------------------------------------


def reference_tlb(tlb, addrs, writes):
    out = TLBCounters()
    for addr, write in zip(addrs.tolist(), writes.tolist()):
        if write:
            out.stores += 1
        else:
            out.loads += 1
        if tlb.dtlb.lookup(addr):
            continue
        if write:
            out.store_misses += 1
        else:
            out.load_misses += 1
        if tlb.stlb.lookup(addr):
            out.stlb_hits += 1
        else:
            out.walks += 1
            out.walk_cycles += tlb.walk_cycles
    return out


def tlb_state(tlb):
    return [([list(w.items()) for w in level._sets], level.hits,
             level.misses) for level in (tlb.dtlb, tlb.stlb)]


def _two_level(d_assoc, s_assoc):
    return TwoLevelTLB(
        TLBConfig(name="dTLB", entries=4, associativity=d_assoc),
        TLBConfig(name="STLB", entries=12, associativity=s_assoc),
        walk_cycles=30,
    )


class TestTLBOracle:
    @settings(max_examples=60, deadline=None)
    @given(d_assoc=st.sampled_from([1, 2, 4]),
           s_assoc=st.sampled_from([1, 3, 4, 12]),
           pairs=st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                          max_size=300),
           split=st.integers(0, 300))
    def test_matches_lookup(self, d_assoc, s_assoc, pairs, split):
        # Few pages, so runs of one page (the batch path's shortcut) and
        # STLB hits and walks all occur.
        addrs, writes = _arrays(pairs, 4096)
        fast, slow = _two_level(d_assoc, s_assoc), _two_level(d_assoc,
                                                              s_assoc)
        for part in (slice(None, split), slice(split, None)):
            assert (fast.access_many(addrs[part], writes[part])
                    == reference_tlb(slow, addrs[part], writes[part]))
        assert tlb_state(fast) == tlb_state(slow)

    def test_matches_lookup_across_chunks(self):
        rng = np.random.default_rng(2)
        n = 2 * CHUNK + 501
        addrs = rng.integers(0, 64 * 4096, size=n)
        writes = rng.uniform(size=n) < 0.3
        fast, slow = _two_level(2, 4), _two_level(2, 4)
        assert (fast.access_many(addrs, writes)
                == reference_tlb(slow, addrs, writes))
        assert tlb_state(fast) == tlb_state(slow)


# -- branch predictors --------------------------------------------------------


PREDICTORS = {
    "static": StaticTakenPredictor,
    "bimodal": lambda: BimodalPredictor(table_bits=4),
    "gshare": lambda: GSharePredictor(table_bits=5, history_bits=3),
    "tournament": lambda: TournamentPredictor(table_bits=4, history_bits=4),
}


def predictor_state(p):
    return {key: vars(value) if isinstance(value, _PredictorBase) else value
            for key, value in vars(p).items()}


def _check_predictor(kind, sites, taken, split):
    fast, slow = PREDICTORS[kind](), PREDICTORS[kind]()
    for part in (slice(None, split), slice(split, None)):
        before = slow.mispredicts
        for site, t in zip(sites[part].tolist(), taken[part].tolist()):
            slow.predict_and_update(site, t)
        assert (fast.run_trace(sites[part], taken[part])
                == slow.mispredicts - before)
    assert predictor_state(fast) == predictor_state(slow)


class TestPredictorOracle:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(PREDICTORS)),
           pairs=st.lists(st.tuples(st.integers(0, 1 << 20), st.booleans()),
                          max_size=300),
           split=st.integers(0, 300))
    def test_matches_predict_and_update(self, kind, pairs, split):
        sites = np.array([s for s, _ in pairs], dtype=np.int64)
        taken = np.array([t for _, t in pairs], dtype=bool)
        _check_predictor(kind, sites, taken, split)

    @pytest.mark.parametrize("kind", sorted(PREDICTORS))
    def test_matches_predict_and_update_across_chunks(self, kind):
        rng = np.random.default_rng(3)
        n = 2 * CHUNK + 77
        sites = rng.integers(0, 100, size=n)
        taken = rng.uniform(size=n) < (sites % 5) / 5.0
        _check_predictor(kind, sites, taken, CHUNK + 3)
