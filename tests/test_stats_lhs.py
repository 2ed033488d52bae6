"""Tests for repro.stats.lhs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import float_bits
from repro.stats.distance import pairwise_distances
from repro.stats.lhs import (
    _designs,
    _min_distances,
    is_latin_hypercube,
    latin_hypercube,
    lhs_strata,
    maximin_latin_hypercube,
)


class TestLatinHypercube:
    def test_shape(self):
        design = latin_hypercube(10, 4, rng=0)
        assert design.shape == (10, 4)

    def test_unit_cube(self):
        design = latin_hypercube(16, 3, rng=1)
        assert design.min() >= 0.0 and design.max() <= 1.0

    def test_stratification_invariant(self):
        design = latin_hypercube(12, 5, rng=2)
        assert is_latin_hypercube(design)

    def test_centered_points_at_stratum_midpoints(self):
        n = 8
        design = latin_hypercube(n, 2, rng=3, centered=True)
        expected = (np.arange(n) + 0.5) / n
        for d in range(2):
            np.testing.assert_allclose(np.sort(design[:, d]), expected)

    def test_deterministic_under_seed(self):
        a = latin_hypercube(6, 3, rng=42)
        b = latin_hypercube(6, 3, rng=42)
        np.testing.assert_array_equal(a, b)

    def test_single_sample(self):
        design = latin_hypercube(1, 4, rng=0)
        assert design.shape == (1, 4)
        assert is_latin_hypercube(design)

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, 3)
        with pytest.raises(ValueError):
            latin_hypercube(3, 0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30), d=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_property_always_latin(self, n, d, seed):
        design = latin_hypercube(n, d, rng=seed)
        assert is_latin_hypercube(design)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 1000))
    def test_property_marginal_uniformity(self, n, seed):
        # Every column's sorted values fall in successive strata.
        design = latin_hypercube(n, 3, rng=seed)
        for c in range(3):
            sorted_col = np.sort(design[:, c])
            lows = np.arange(n) / n
            highs = (np.arange(n) + 1) / n
            assert np.all(sorted_col >= lows) and np.all(sorted_col <= highs)


class TestMaximin:
    def test_still_latin(self):
        design = maximin_latin_hypercube(10, 3, rng=0, n_candidates=8)
        assert is_latin_hypercube(design)

    def test_not_worse_than_single_draw(self):
        # Maximin over candidates that include the single draw can't lose.
        rng_seed = 7

        def min_dist(design):
            d = pairwise_distances(design)
            np.fill_diagonal(d, np.inf)
            return d.min()

        single = latin_hypercube(8, 3, rng=rng_seed)
        multi = maximin_latin_hypercube(8, 3, rng=rng_seed, n_candidates=16)
        assert min_dist(multi) >= min_dist(single) - 1e-12

    def test_single_sample_shortcut(self):
        design = maximin_latin_hypercube(1, 2, rng=0)
        assert design.shape == (1, 2)

    def test_invalid_candidates_raise(self):
        with pytest.raises(ValueError, match="n_candidates"):
            maximin_latin_hypercube(4, 2, n_candidates=0)


class TestHelpers:
    def test_strata_boundaries(self):
        np.testing.assert_allclose(lhs_strata(4), [0, 0.25, 0.5, 0.75, 1.0])

    def test_is_latin_rejects_clumped(self):
        clumped = np.full((4, 2), 0.5)
        assert not is_latin_hypercube(clumped)

    def test_is_latin_rejects_out_of_cube(self):
        design = latin_hypercube(4, 2, rng=0)
        design[0, 0] = 1.5
        assert not is_latin_hypercube(design)

    def test_is_latin_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            is_latin_hypercube(np.zeros(4))


# The per-dimension draw loop and the per-design maximin loop that
# _designs and the stacked maximin_latin_hypercube replaced, verbatim:
# the oracle for every design bit and every design's score.

def reference_latin_hypercube(n_samples, n_dims, rng=0, centered=False):
    """One design, one ``permutation`` and one ``uniform`` call per
    dimension."""
    rng = np.random.default_rng(rng)
    out = np.empty((n_samples, n_dims))
    base = np.arange(n_samples, dtype=float)
    for d in range(n_dims):
        perm = rng.permutation(n_samples)
        if centered:
            offsets = 0.5
        else:
            offsets = rng.uniform(size=n_samples)
        out[:, d] = (base[perm] + offsets) / n_samples
    return out


def reference_maximin(n_samples, n_dims, rng=0, n_candidates=32,
                      centered=False):
    """(chosen design, every design's minimum pairwise distance)."""
    rng = np.random.default_rng(rng)
    best = None
    best_score = -np.inf
    scores = []
    for _ in range(n_candidates):
        design = reference_latin_hypercube(n_samples, n_dims, rng=rng,
                                           centered=centered)
        d = pairwise_distances(design)
        np.fill_diagonal(d, np.inf)
        score = float(d.min())
        scores.append(score)
        if score > best_score:
            best_score = score
            best = design
    return best, scores


class TestStackedMaximinOracle:
    """The stacked maximin pass equals the per-design loop bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 12), d=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1), candidates=st.integers(1, 40),
           centered=st.booleans())
    def test_matches_per_design_loop(self, n, d, seed, candidates, centered):
        want, scores = reference_maximin(n, d, rng=seed,
                                         n_candidates=candidates,
                                         centered=centered)
        got = maximin_latin_hypercube(n, d, rng=seed,
                                      n_candidates=candidates,
                                      centered=centered)
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        designs = _designs(n, d, np.random.default_rng(seed), candidates,
                           centered)
        assert [float_bits(s) for s in _min_distances(designs)] == [
            float_bits(s) for s in scores]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 31 - 1])
    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("n, d", [(2, 1), (5, 3), (8, 14), (12, 16)])
    def test_designs_match_latin_hypercube_draws(self, seed, centered, n,
                                                 d):
        rng = np.random.default_rng(seed)
        want = [reference_latin_hypercube(n, d, rng=rng, centered=centered)
                for _ in range(12)]
        got = _designs(n, d, np.random.default_rng(seed), 12, centered)
        assert got.flags.c_contiguous
        assert got.tobytes() == np.stack(want).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 20), d=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 8),
           centered=st.booleans())
    def test_designs_match_permutation_uniform_loop(self, n, d, seed, count,
                                                    centered):
        # The same bits, and the generator left at the same stream
        # position, as the permutation / uniform loop.
        rng, oracle = (np.random.default_rng(seed) for _ in range(2))
        want = [reference_latin_hypercube(n, d, rng=oracle,
                                          centered=centered)
                for _ in range(count)]
        got = _designs(n, d, rng, count, centered)
        assert got.tobytes() == np.stack(want).tobytes()
        assert rng.random() == oracle.random()
        one = latin_hypercube(n, d, rng=seed, centered=centered)
        assert one.shape == (n, d)
        assert one.tobytes() == reference_latin_hypercube(
            n, d, rng=seed, centered=centered).tobytes()

    def test_tie_keeps_the_first_design(self):
        # Centered two-point designs in one dimension are {0.25, 0.75}
        # in one order or the other: every design ties on distance, and
        # the first one drawn must win.
        seed = 3
        rng = np.random.default_rng(seed)
        drawn = [reference_latin_hypercube(2, 1, rng=rng, centered=True)
                 for _ in range(8)]
        assert len({design.tobytes() for design in drawn}) == 2
        want, scores = reference_maximin(2, 1, rng=seed, n_candidates=8,
                                         centered=True)
        assert len(set(scores)) == 1
        got = maximin_latin_hypercube(2, 1, rng=seed, n_candidates=8,
                                      centered=True)
        assert got.tobytes() == want.tobytes() == drawn[0].tobytes()
