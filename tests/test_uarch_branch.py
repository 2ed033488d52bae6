"""Tests for repro.uarch.branch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.branch import (
    BimodalPredictor,
    GSharePredictor,
    StaticTakenPredictor,
    TournamentPredictor,
    make_predictor,
)
from repro.uarch.config import BranchConfig

ALL_PREDICTORS = [
    StaticTakenPredictor,
    lambda: BimodalPredictor(8),
    lambda: GSharePredictor(8, 6),
    lambda: TournamentPredictor(8, 6),
]


class TestStaticTaken:
    def test_always_predicts_taken(self):
        p = StaticTakenPredictor()
        assert p.predict_and_update(1, True) is True
        assert p.predict_and_update(1, False) is True

    def test_mispredict_rate_on_never_taken(self):
        p = StaticTakenPredictor()
        p.run_trace(np.zeros(100, dtype=int), np.zeros(100, dtype=bool))
        assert p.mispredict_rate == 1.0


class TestBimodal:
    def test_learns_always_taken_branch(self):
        p = BimodalPredictor(8)
        misses = p.run_trace(np.zeros(100, dtype=int),
                             np.ones(100, dtype=bool))
        assert misses == 0  # counters start weakly taken

    def test_learns_never_taken_after_warmup(self):
        p = BimodalPredictor(8)
        outcomes = np.zeros(100, dtype=bool)
        p.run_trace(np.zeros(100, dtype=int), outcomes)
        # Counters start weakly taken (2): only the very first access
        # mispredicts before the counter drops below the threshold.
        assert p.mispredicts == 1

    def test_alternating_pattern_is_hard(self):
        p = BimodalPredictor(8)
        outcomes = np.tile([True, False], 200).astype(bool)
        p.run_trace(np.zeros(400, dtype=int), outcomes)
        assert p.mispredict_rate >= 0.4  # bimodal can't learn T/N/T/N

    def test_sites_do_not_interfere_when_separate(self):
        p = BimodalPredictor(8)
        # Site 0 always taken, site 1 never taken -> both learned.
        sites = np.tile([0, 1], 100)
        outcomes = np.tile([True, False], 100).astype(bool)
        p.run_trace(sites, outcomes)
        assert p.mispredicts <= 2

    def test_aliasing_when_table_tiny(self):
        p = BimodalPredictor(1)  # 2 entries: sites 0 and 2 alias
        sites = np.tile([0, 2], 100)
        outcomes = np.tile([True, False], 100).astype(bool)
        p.run_trace(sites, outcomes)
        assert p.mispredict_rate > 0.4

    def test_table_bits_validation(self):
        with pytest.raises(ValueError):
            BimodalPredictor(0)
        with pytest.raises(ValueError):
            BimodalPredictor(30)


class TestGShare:
    def test_learns_alternating_pattern(self):
        # Global history disambiguates T/N/T/N, unlike bimodal.
        p = GSharePredictor(10, 8)
        outcomes = np.tile([True, False], 300).astype(bool)
        p.run_trace(np.zeros(600, dtype=int), outcomes)
        assert p.mispredict_rate < 0.1

    def test_learns_loop_pattern(self):
        # Loop branch: taken 7 times, not-taken once, repeated.
        p = GSharePredictor(12, 10)
        pattern = [True] * 7 + [False]
        outcomes = np.tile(pattern, 100).astype(bool)
        p.run_trace(np.zeros(800, dtype=int), outcomes)
        assert p.mispredict_rate < 0.12

    def test_history_bits_validation(self):
        with pytest.raises(ValueError, match="history_bits"):
            GSharePredictor(8, 9)

    def test_zero_history_behaves_like_bimodal(self):
        rng = np.random.default_rng(0)
        sites = rng.integers(0, 100, size=500)
        outcomes = rng.uniform(size=500) < 0.7
        g = GSharePredictor(10, 0)
        b = BimodalPredictor(10)
        g.run_trace(sites, outcomes)
        b.run_trace(sites, outcomes)
        assert g.mispredicts == b.mispredicts


class TestTournament:
    def test_beats_or_matches_components_on_mixed_workload(self):
        rng = np.random.default_rng(1)
        # Mix: some strongly biased sites (bimodal-friendly) and one
        # alternating site (gshare-friendly).
        sites, outcomes = [], []
        for i in range(2000):
            if i % 3 == 0:
                sites.append(7)
                outcomes.append(i % 6 == 0)  # pattern on site 7
            else:
                s = int(rng.integers(0, 50))
                sites.append(s)
                outcomes.append(bool(rng.uniform() < 0.95))
        sites = np.array(sites)
        outcomes = np.array(outcomes)
        t = TournamentPredictor(12, 10)
        b = BimodalPredictor(12)
        t.run_trace(sites, outcomes)
        b.run_trace(sites, outcomes)
        assert t.mispredicts <= b.mispredicts * 1.1


class TestFactoryAndShared:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("static", StaticTakenPredictor),
            ("bimodal", BimodalPredictor),
            ("gshare", GSharePredictor),
            ("tournament", TournamentPredictor),
        ],
    )
    def test_make_predictor(self, kind, cls):
        p = make_predictor(BranchConfig(kind=kind, table_bits=8,
                                        history_bits=6))
        assert isinstance(p, cls)

    def test_trace_length_mismatch_raises(self):
        p = BimodalPredictor(8)
        with pytest.raises(ValueError, match="length"):
            p.run_trace(np.zeros(3, dtype=int), np.zeros(2, dtype=bool))

    def test_empty_trace_ok(self):
        p = BimodalPredictor(8)
        assert p.run_trace(np.array([], dtype=int),
                           np.array([], dtype=bool)) == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000),
           idx=st.integers(0, len(ALL_PREDICTORS) - 1))
    def test_property_mispredicts_bounded(self, seed, idx):
        p = ALL_PREDICTORS[idx]()
        rng = np.random.default_rng(seed)
        n = 200
        sites = rng.integers(0, 1 << 10, size=n)
        outcomes = rng.uniform(size=n) < 0.5
        misses = p.run_trace(sites, outcomes)
        assert 0 <= misses <= n
        assert p.branches == n

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_biased_branches_well_predicted(self, seed):
        # 95%-taken branches: any learning predictor lands well under 25%.
        rng = np.random.default_rng(seed)
        sites = rng.integers(0, 32, size=1000)
        outcomes = rng.uniform(size=1000) < 0.95
        for factory in ALL_PREDICTORS[1:]:
            p = factory()
            p.run_trace(sites, outcomes)
            assert p.mispredict_rate < 0.25
