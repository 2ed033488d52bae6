"""Batch paths against the per-access reference models, bit for bit.

The simulator runs batch paths (``SetAssociativeCache.run_ops`` under
``CacheHierarchy.access_many``, the fused loops of
``TwoLevelTLB.access_many`` and ``run_trace``); the per-access models
are the oracle: ``access`` and ``install`` in ``tests/uarch_reference.py``
for the caches under every replacement policy, ``tlb_lookup`` and
``predict_and_update`` there too. Every counter and every piece of state must
agree, each set's ``random`` draw count included, across calls and
across the kernel's chunks.
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
from repro.uarch import cache as cache_module
from repro.uarch.cache import CHUNK, CacheStats, SetAssociativeCache
from repro.uarch.config import CacheConfig, TLBConfig, small_test_machine
from repro.uarch.hierarchy import CacheHierarchy, HierarchyCounters
from repro.uarch.tlb import TLBCounters, TwoLevelTLB
from tests.uarch_reference import (
    access,
    install,
    predict_and_update,
    tlb_lookup,
)

accesses = st.lists(st.tuples(st.integers(0, 2047), st.booleans()),
                    max_size=300)


def _arrays(pairs, stride):
    addrs = np.array([u * stride + u % 61 for u, _ in pairs], dtype=np.int64)
    writes = np.array([w for _, w in pairs], dtype=bool)
    return addrs, writes


# -- one cache level: the op kernel -----------------------------------------


def _cache(policy, assoc, sets):
    return SetAssociativeCache(CacheConfig(
        name="K", size_bytes=assoc * sets * 64, line_bytes=64,
        associativity=assoc, policy=policy), seed=7)


def cache_state(c):
    return c.stats.snapshot(), c.lines(), c._draws.tolist()


def reference_ops(cache, lines, writes, prefetch):
    """Per op: ``access`` for a demand op, ``install`` for a prefetch;
    whether the line was resident before it."""
    return [not install(cache, line * 64) if is_pf
            else access(cache, line * 64, write)
            for line, write, is_pf in zip(lines.tolist(), writes.tolist(),
                                          prefetch.tolist())]


def _check_ops(policy, assoc, sets, calls):
    fast, slow = _cache(policy, assoc, sets), _cache(policy, assoc, sets)
    for lines, writes, prefetch in calls:
        want = reference_ops(slow, lines, writes, prefetch)
        got = fast.run_ops(lines, writes, prefetch)
        assert got.tolist() == want
        assert cache_state(fast) == cache_state(slow)


#: One op: ``(line, prefetch, write)``; a line of -1 repeats the line of
#: the op before, so runs on one line (the kernel's merge) occur.
ops = st.lists(st.tuples(st.one_of(st.just(-1), st.integers(0, 63)),
                         st.booleans(), st.booleans()), max_size=250)


def _op_arrays(triples, line_of):
    lines, prev = [], 0
    for i, (u, _, _) in enumerate(triples):
        prev = prev if u < 0 else line_of(i, u)
        lines.append(prev)
    prefetch = np.array([p for _, p, _ in triples], dtype=bool)
    writes = np.array([w for _, _, w in triples], dtype=bool) & ~prefetch
    return np.array(lines, dtype=np.int64), writes, prefetch


def _split(arrays, cuts):
    bounds = [0, *sorted(c % (arrays[0].shape[0] + 1) for c in cuts),
              arrays[0].shape[0]]
    return [tuple(a[lo:hi] for a in arrays)
            for lo, hi in zip(bounds[:-1], bounds[1:])]


class TestOpKernelOracle:
    @settings(max_examples=150, deadline=None)
    @given(policy=st.sampled_from(["lru", "fifo", "random"]),
           assoc=st.integers(1, 16),
           sets=st.sampled_from([1, 3, 4, 5, 7, 12]),
           layout=st.sampled_from(["mixed", "one-set", "own-set"]),
           triples=ops, cuts=st.lists(st.integers(0, 250), max_size=3))
    def test_matches_access_and_install(self, policy, assoc, sets, layout,
                                        triples, cuts):
        # "own-set" gives each op of a call its own set (rounds = 1),
        # "one-set" puts every op in set 0 (rounds = ops).
        if layout == "own-set":
            sets = 257
        line_of = {"mixed": lambda i, u: u,
                   "one-set": lambda i, u: u * sets,
                   "own-set": lambda i, u: i + sets * u}[layout]
        arrays = _op_arrays(triples, line_of)
        _check_ops(policy, assoc, sets, _split(arrays, cuts))

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_prefetch_of_resident_line_keeps_its_stamp(self, policy):
        # Set of 2 ways: fill A then B, prefetch A (resident), then C.
        # The prefetch must not refresh A, so C evicts A either way.
        lines = np.array([0, 1, 0, 2])
        prefetch = np.array([False, False, True, False])
        writes = np.zeros(4, dtype=bool)
        c = _cache(policy, assoc=2, sets=1)
        assert c.run_ops(lines, writes, prefetch).tolist() == [
            False, False, True, False]
        assert c.lines() == [[(1, False), (2, False)]]
        _check_ops(policy, 2, 1, [(lines, writes, prefetch)])

    @pytest.mark.parametrize("between", [[], [6]])
    def test_write_after_prefetch_fill_dirties_the_line(self, between):
        # A clean prefetch fill of line 5, a store to it (straight after,
        # or after an op on the other set), then line 7 evicts it from
        # its one-way set: one writeback.
        lines = np.array([5, *between, 5, 7])
        prefetch = np.zeros(lines.shape[0], dtype=bool)
        prefetch[0] = True
        writes = np.zeros(lines.shape[0], dtype=bool)
        writes[-2] = True
        _check_ops("lru", 1, 2, [(lines, writes, prefetch)])
        c = _cache("lru", 1, 2)
        c.run_ops(lines, writes, prefetch)
        assert c.stats.writebacks == 1

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_stamp_renumbering_keeps_order(self, policy, monkeypatch):
        # The reference runs without renumbering; a limit of 40 then
        # renumbers the batch path's stamps every few calls, which
        # eviction order must not notice.
        rng = np.random.default_rng(6)
        addrs = rng.integers(0, 30, size=400) * 64
        writes = rng.uniform(size=400) < 0.3
        slow = _cache(policy, 4, 3)
        want = [access(slow, a, w) for a, w in zip(addrs.tolist(),
                                                   writes.tolist())]
        monkeypatch.setattr(cache_module, "STAMP_LIMIT", 40)
        fast = _cache(policy, 4, 3)
        got = [hit for lo in range(0, 400, 9)
               for hit in fast.access_many(addrs[lo:lo + 9],
                                           writes[lo:lo + 9]).tolist()]
        assert got == want
        assert fast._clock <= 40
        assert cache_state(fast) == cache_state(slow)

    @pytest.mark.parametrize("chunk", [None, 16])
    def test_state_carries_across_calls(self, chunk, monkeypatch):
        # chunk=16 also carries state across the kernel's own chunks.
        if chunk is not None:
            monkeypatch.setattr(cache_module, "ROUNDS_CHUNK", chunk)
        rng = np.random.default_rng(4)
        lines = rng.integers(0, 40, size=600)
        prefetch = rng.uniform(size=600) < 0.4
        writes = (rng.uniform(size=600) < 0.3) & ~prefetch
        calls = _split((lines, writes, prefetch), [50, 51, 300, 420])
        for policy in ("lru", "fifo", "random"):
            _check_ops(policy, 4, 3, calls)


# -- cache hierarchy ----------------------------------------------------------


def reference_hierarchy(h, addrs, writes):
    """The per-access composition the batch path replaces: L1 first, then
    the lower levels on the L1 misses (a batch per level without the
    prefetcher, interleaved per miss with it)."""
    misses = [(a, w) for a, w in zip(addrs.tolist(), writes.tolist())
              if not access(h.l1, a, w)]
    pf = h.prefetcher
    if pf is None:
        llc_stream = [(a, w) for a, w in misses if not access(h.l2, a, w)]
        for a, w in llc_stream:
            access(h.llc, a, w)
        return
    for a, w in misses:
        if not access(h.l2, a, w):
            access(h.llc, a, w)
        target = a + pf.line_bytes
        pf.issued += 1
        pf.installed += install(h.l2, target) + install(h.llc, target)


def hierarchy_state(h):
    levels = [cache_state(c) for c in (h.l1, h.l2, h.llc)]
    pf = h.prefetcher
    return levels, None if pf is None else (pf.issued, pf.installed)


def _hierarchy(prefetch, policy):
    machine = dataclasses.replace(small_test_machine().with_policy(policy),
                                  enable_prefetcher=prefetch)
    return CacheHierarchy(machine, seed=3)


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
        if tlb_lookup(tlb.dtlb, addr):
            continue
        if write:
            out.store_misses += 1
        else:
            out.load_misses += 1
        if tlb_lookup(tlb.stlb, addr):
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
            predict_and_update(slow, site, t)
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
