"""Tests for repro.stats.dtw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import dtw
from repro.stats.dtw import (
    _accumulate,
    _local_cost_matrix,
    dtw_distance,
    dtw_matrix,
    dtw_path,
    pair_distances,
    validate_series_list,
)
from tests.dtw_reference import accumulate_banded


def _pair_wavefront(x, idx_i, idx_j):
    """One materialized anti-diagonal wavefront over a pair batch of
    equal-length series."""
    length = x.shape[1]
    cost = np.abs(x[idx_i][:, :, None] - x[idx_j][:, None, :])
    acc = np.empty_like(cost)
    acc[:, 0, :] = np.cumsum(cost[:, 0, :], axis=1)
    acc[:, :, 0] = np.cumsum(cost[:, :, 0], axis=1)
    for d in range(2, 2 * length - 1):
        i_lo = max(1, d - (length - 1))
        i_hi = min(length - 1, d - 1)
        if i_lo > i_hi:
            continue
        i = np.arange(i_lo, i_hi + 1)
        j = d - i
        up = acc[:, i - 1, j]
        left = acc[:, i, j - 1]
        diag = acc[:, i - 1, j - 1]
        acc[:, i, j] = cost[:, i, j] + np.minimum(
            np.minimum(up, left), diag
        )
    return acc[:, -1, -1]


def batched(x, idx_i, idx_j, chunk=None):
    """:func:`pair_distances` over the rows of ``x``, ``chunk`` pairs
    per wavefront batch (default: the module's ``PAIR_CHUNK``)."""
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(dtw, "PAIR_CHUNK", chunk)
        return pair_distances(list(x), idx_i, idx_j)


def series(min_len=2, max_len=20):
    return st.lists(
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        min_size=min_len,
        max_size=max_len,
    )


class TestDTWDistance:
    def test_identical_series_zero(self):
        s = [1.0, 3.0, 2.0, 5.0]
        assert dtw_distance(s, s) == 0.0

    def test_warped_copy_zero(self):
        # Repeating samples is pure warping: distance stays 0.
        a = [1.0, 2.0, 3.0, 4.0]
        b = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
        assert dtw_distance(a, b) == 0.0

    def test_known_small_case(self):
        # Hand-computed: cost matrix for [0, 1] vs [0, 2].
        # acc = [[0, 2], [1, 1+min(0,2,1)=1]] -> 1.
        assert dtw_distance([0.0, 1.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_constant_offset(self):
        a = np.zeros(5)
        b = np.ones(5)
        assert dtw_distance(a, b) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=10)
        b = rng.normal(size=14)
        assert dtw_distance(a, b) == dtw_distance(b, a)

    def test_multivariate(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        assert dtw_distance(a, b) == pytest.approx(0.0)

    def test_multivariate_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimensionality"):
            dtw_distance(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            dtw_distance([], [1.0])

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            dtw_distance([np.nan], [1.0])

    def test_band_at_least_euclidean_band_zero(self):
        # Band 0 on equal-length series degenerates to the pointwise L1 sum.
        a = np.array([0.0, 1.0, 2.0, 3.0])
        b = np.array([1.0, 1.0, 2.0, 5.0])
        banded = dtw_distance(a, b, band=0)
        assert banded == pytest.approx(np.abs(a - b).sum())

    def test_band_never_below_unconstrained(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        free = dtw_distance(a, b)
        for band in (0, 1, 3, 6):
            assert dtw_distance(a, b, band=band) >= free - 1e-9

    def test_wide_band_equals_unconstrained(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=10)
        b = rng.normal(size=13)
        assert dtw_distance(a, b, band=50) == dtw_distance(a, b)

    def test_normalized_divides_by_path_length(self):
        a = np.zeros(5)
        b = np.ones(5)
        raw = dtw_distance(a, b)
        norm = dtw_distance(a, b, normalize=True)
        assert norm == pytest.approx(raw / 5)  # diagonal path, length 5

    def test_normalized_agrees_with_traceback_length(self):
        # _path_length must replicate _traceback's tie-breaking exactly,
        # so normalize=True divides by len(the materialized path).
        from repro.stats.dtw import dtw_path

        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            m = int(rng.integers(2, 25))
            band = [None, 0, 2, 6][int(rng.integers(0, 4))]
            a = rng.uniform(0.0, 10.0, size=n)
            b = rng.uniform(0.0, 10.0, size=m)
            raw, path = dtw_path(a, b, band=band)
            norm = dtw_distance(a, b, band=band, normalize=True)
            assert norm == raw / len(path)

    def test_normalize_does_not_materialize_the_path(self, monkeypatch):
        # Counting the optimal path's length needs no (i, j) list;
        # building one is O(n+m) allocation per pair on the hot path.
        import repro.stats.dtw as dtw_mod

        def boom(acc):
            raise AssertionError("normalize=True called _traceback")

        monkeypatch.setattr(dtw_mod, "_traceback", boom)
        a = np.array([0.0, 1.0, 4.0, 2.0])
        b = np.array([1.0, 0.0, 2.0])
        assert dtw_mod.dtw_distance(a, b, normalize=True) > 0

    @settings(max_examples=40, deadline=None)
    @given(series(), series())
    def test_property_nonnegative_and_symmetric(self, a, b):
        d = dtw_distance(a, b)
        assert d >= 0
        assert d == dtw_distance(b, a)

    @settings(max_examples=30, deadline=None)
    @given(series())
    def test_property_self_distance_zero(self, a):
        assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(series(min_len=3), st.floats(0.1, 10))
    def test_property_scaling(self, a, c):
        # DTW with |.| cost is positively homogeneous in the values.
        a = np.asarray(a)
        b = a[::-1].copy()
        assert dtw_distance(c * a, c * b) == pytest.approx(
            c * dtw_distance(a, b), rel=1e-6, abs=1e-6
        )


class TestDTWPath:
    def test_path_endpoints(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=6)
        b = rng.normal(size=9)
        _, path = dtw_path(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (5, 8)

    def test_path_monotone_steps(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=7)
        b = rng.normal(size=5)
        _, path = dtw_path(a, b)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(0, 1), (1, 0), (1, 1)}

    def test_path_cost_equals_distance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=8)
        b = rng.normal(size=6)
        dist, path = dtw_path(a, b)
        manual = sum(abs(a[i] - b[j]) for i, j in path)
        assert dist == pytest.approx(manual)


class TestDTWMatrix:
    def test_shape_and_diagonal(self):
        rng = np.random.default_rng(6)
        series_list = [rng.normal(size=rng.integers(5, 12)) for _ in range(4)]
        m = dtw_matrix(series_list)
        assert m.shape == (4, 4)
        np.testing.assert_array_equal(np.diag(m), 0.0)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        series_list = [rng.normal(size=10) for _ in range(5)]
        m = dtw_matrix(series_list)
        np.testing.assert_array_equal(m, m.T)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError, match="empty"):
            dtw_matrix([])

    def test_entries_match_pairwise_calls(self):
        rng = np.random.default_rng(8)
        series_list = [rng.normal(size=6) for _ in range(3)]
        m = dtw_matrix(series_list)
        assert m[0, 1] == dtw_distance(series_list[0], series_list[1])
        assert m[1, 2] == dtw_distance(series_list[1], series_list[2])

    def test_nan_series_raises_with_index(self):
        rng = np.random.default_rng(9)
        series_list = [rng.normal(size=6) for _ in range(3)]
        series_list[2] = np.array([1.0, np.nan, 3.0])
        with pytest.raises(ValueError, match=r"series\[2\]"):
            dtw_matrix(series_list)

    def test_empty_series_raises_with_index(self):
        with pytest.raises(ValueError, match=r"series\[1\] is empty"):
            dtw_matrix([np.ones(3), np.array([])])


class TestValidateSeriesList:
    def test_returns_float_arrays_preserving_dims(self):
        out = validate_series_list([[1, 2, 3], np.ones((4, 2))])
        assert out[0].dtype == float and out[0].ndim == 1
        assert out[1].shape == (4, 2)

    def test_names_offending_index(self):
        with pytest.raises(ValueError, match=r"series\[1\].*non-finite"):
            validate_series_list([np.ones(3), np.array([np.inf, 1.0])])


class TestKernelCrossChecks:
    """Property cross-checks between the batched wavefront, the
    full-matrix fill and the per-cell reference fill."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(3, 6),
           st.integers(4, 12))
    def test_pairwise_aligned_matches_per_pair_distance(self, seed, k,
                                                        length):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(k, length))
        idx_i, idx_j = np.triu_indices(k, k=1)
        got = batched(x, idx_i, idx_j)
        want = [dtw_distance(x[i], x[j]) for i, j in zip(idx_i, idx_j)]
        assert got.tobytes() == np.array(want).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12),
           st.integers(2, 12))
    def test_full_width_band_matches_unbanded(self, seed, n, m):
        rng = np.random.default_rng(seed)
        cost = np.abs(rng.normal(size=(n, m)))
        banded = accumulate_banded(cost, band=n + m)
        free = _accumulate(cost)
        assert banded.tobytes() == free.tobytes()

    def test_banded_distance_consistent_with_matrix(self):
        rng = np.random.default_rng(10)
        series_list = [rng.normal(size=8) for _ in range(3)]
        m = dtw_matrix(series_list, band=3)
        assert m[0, 2] == dtw_distance(series_list[0], series_list[2],
                                       band=3)

    def test_batched_results_independent_of_batch_composition(self):
        # The engine's pair cache mixes cached and fresh pairs, which is
        # only sound if a pair's distance is bit-identical no matter
        # which other pairs share the batch.
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 9))
        idx_i, idx_j = np.triu_indices(5, k=1)
        full = batched(x, idx_i, idx_j)
        for p in range(len(idx_i)):
            alone = batched(x, idx_i[p : p + 1], idx_j[p : p + 1])
            assert alone[0].tobytes() == full[p].tobytes()

    def test_batched_matches_accumulate_wavefront(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=7), rng.normal(size=7)
        got = batched(np.vstack([a, b]), np.array([0]), np.array([1]))
        cost = _local_cost_matrix(a[:, None], b[:, None])
        acc = _accumulate(cost)
        assert got[0] == acc[-1, -1]


class TestPairChunking:
    """The pair-axis chunking of pair_distances (``PAIR_CHUNK``) is pure
    memory management: every chunk size must reproduce the unchunked
    wavefront bit for bit (the recurrence is elementwise along the pair
    axis)."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(4, 8),
           st.integers(1, 6))
    def test_any_chunk_size_bitwise_equal(self, seed, k, pair_chunk):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(k, 9))
        idx_i, idx_j = np.triu_indices(k, k=1)
        unchunked = batched(x, idx_i, idx_j, chunk=10 ** 9)
        chunked = batched(x, idx_i, idx_j, chunk=pair_chunk)
        assert chunked.tobytes() == unchunked.tobytes()

    def test_default_chunk_bitwise_equal(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 11))
        idx_i, idx_j = np.triu_indices(6, k=1)
        default = batched(x, idx_i, idx_j)
        unchunked = batched(x, idx_i, idx_j, chunk=10 ** 9)
        assert default.tobytes() == unchunked.tobytes()

    def test_chunk_larger_than_pairs(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 8))
        idx_i, idx_j = np.triu_indices(4, k=1)
        big = batched(x, idx_i, idx_j, chunk=10 ** 6)
        unchunked = batched(x, idx_i, idx_j, chunk=10 ** 9)
        assert big.tobytes() == unchunked.tobytes()


@st.composite
def pair_batches(draw):
    """A ``(k, L)`` series matrix and a pair selection over it.

    Values span 1e-3 to 1e6 in magnitude, optionally rounded to
    integers so cost ties are common; pairs may repeat and may pair a
    series with itself."""
    length = draw(st.integers(1, 40))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6]))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(k, length)) * scale
    if draw(st.booleans()):
        x = np.round(x)
    n_pairs = draw(st.integers(0, 24))
    idx_i = rng.integers(0, k, size=n_pairs)
    idx_j = rng.integers(0, k, size=n_pairs)
    return x, idx_i, idx_j


class TestWavefrontOracle:
    """The diagonal-major wavefront behind pair_distances must
    reproduce, bit for bit, both the materialized ``(pairs, L, L)``
    wavefront it replaced (``_pair_wavefront`` above) and the per-pair
    fills ``dtw_distance(a, b, band=L)`` and ``dtw_distance(a, b)``."""

    @settings(max_examples=150, deadline=None)
    @given(pair_batches())
    def test_matches_materialized_wavefront(self, batch):
        x, idx_i, idx_j = batch
        got = batched(x, idx_i, idx_j)
        assert got.shape == idx_i.shape
        assert got.tobytes() == _pair_wavefront(x, idx_i, idx_j).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(pair_batches())
    def test_matches_per_pair_full_band(self, batch):
        x, idx_i, idx_j = batch
        got = batched(x, idx_i, idx_j)
        length = x.shape[1]
        want = np.array([dtw_distance(x[i], x[j], band=length)
                         for i, j in zip(idx_i, idx_j)])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(pair_batches(), st.data())
    def test_every_pair_chunk(self, batch, data):
        x, idx_i, idx_j = batch
        chunk = data.draw(st.integers(1, len(idx_i) + 3))
        got = batched(x, idx_i, idx_j, chunk=chunk)
        assert got.tobytes() == _pair_wavefront(x, idx_i, idx_j).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(pair_batches())
    def test_self_pairs_are_zero(self, batch):
        x, _, _ = batch
        idx = np.arange(x.shape[0])
        got = batched(x, idx, idx)
        assert got.tobytes() == np.zeros(len(idx)).tobytes()

    @pytest.mark.parametrize("length", [1, 2])
    def test_shortest_series(self, length):
        x = np.array([[0.5, -2.0], [3.0, 1.25], [7.0, 7.0]])[:, :length]
        idx_i, idx_j = np.array([0, 0, 1, 2]), np.array([1, 2, 2, 2])
        got = batched(x, idx_i, idx_j)
        assert got.tobytes() == _pair_wavefront(x, idx_i, idx_j).tobytes()
        want = np.array([dtw_distance(x[i], x[j], band=length)
                         for i, j in zip(idx_i, idx_j)])
        assert got.tobytes() == want.tobytes()

    def test_empty_pair_selection(self):
        x = np.ones((3, 5))
        empty = np.array([], dtype=int)
        assert batched(x, empty, empty).shape == (0,)

    def test_borders_are_plain_prefix_sums(self):
        # Enough pairs that some optimal paths run along the first row,
        # where the border association is bit-visible: every fill sums
        # both borders as plain prefix sums, so the batch, band=L and
        # unbanded dtw_distance agree on every pair.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(48, 16))
        idx_i, idx_j = np.triu_indices(48, k=1)
        got = batched(x, idx_i, idx_j)
        assert got.tobytes() == _pair_wavefront(x, idx_i, idx_j).tobytes()
        banded = np.array([dtw_distance(x[i], x[j], band=16)
                           for i, j in zip(idx_i, idx_j)])
        assert got.tobytes() == banded.tobytes()
        unbanded = np.array([dtw_distance(x[i], x[j])
                             for i, j in zip(idx_i, idx_j)])
        assert got.tobytes() == unbanded.tobytes()
