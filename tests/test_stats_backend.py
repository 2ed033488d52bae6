"""Tests for repro.stats.backend and the batched compute kernels.

The dispatch's whole contract is that batching is a speed choice and
never a numerical one, so almost every test here is a bit-identity
assertion: batched wavefront vs the sequential fill, bucketed
mixed-length sweeps vs the per-pair loop, column-batched KS vs the
scalar statistic, and whole engines run on the dispatch and on the
per-pair / per-column oracles below.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import backend
from repro.stats.backend import ComputeBackend, kernels
from repro.stats.dtw import (
    _accumulate,
    _accumulate_banded,
    _batched_accumulate,
    _local_cost_matrix,
    bucketed_pair_distances,
    dtw_distance,
)
from repro.stats.kstest import (
    _kolmogorov_sf,
    kolmogorov_sf_batch,
    ks_statistic_uniform,
    ks_statistic_uniform_columns,
)


def reference_pair_distances(arrays, idx_i, idx_j, band=None):
    """Oracle DTW pair distances: one ``dtw_distance`` per pair.

    Equal-length unbanded 1-D pairs use ``band=L``, the exact per-pair
    twin of the batch kernel; unbanded ``dtw_distance`` associates the
    first-row border differently and can differ in the last bit (see
    :mod:`repro.stats.dtw`).
    """
    if (band is None and arrays and all(a.ndim == 1 for a in arrays)
            and len({a.shape[0] for a in arrays}) == 1):
        band = arrays[0].shape[0]
    return np.array(
        [dtw_distance(arrays[i], arrays[j], band=band)
         for i, j in zip(idx_i, idx_j)]
    )


def reference_ks_columns(x):
    """Oracle per-column KS D-values: one scalar call per column."""
    x = np.asarray(x, dtype=float)
    return np.array(
        [ks_statistic_uniform(x[:, j]) for j in range(x.shape[1])]
    )


#: The DTW oracle as a record, for ``Engine(backend=ORACLE)``.
ORACLE = ComputeBackend(pair_distances=reference_pair_distances)


def bits(values):
    """The exact byte content of a float array -- equality through this
    is bit-identity, not approximate closeness."""
    return np.asarray(values, dtype=float).tobytes()


class TestBatchedAccumulate:
    def test_unbanded_matches_reference_fill(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 30))
            cost = rng.uniform(0.0, 10.0, size=(3, n, m))
            batched = _batched_accumulate(cost)
            for p in range(cost.shape[0]):
                assert bits(batched[p]) == bits(_accumulate(cost[p]))

    def test_banded_matches_reference_fill(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 30))
            band = int(rng.integers(0, 12))
            cost = rng.uniform(0.0, 10.0, size=(2, n, m))
            batched = _batched_accumulate(cost, band=band)
            for p in range(cost.shape[0]):
                assert bits(batched[p]) == bits(
                    _accumulate_banded(cost[p], band))

    def test_degenerate_shapes(self):
        # L=1 on either axis and band=0 must all agree exactly.
        rng = np.random.default_rng(2)
        for n, m, band in [(1, 1, None), (1, 7, None), (7, 1, None),
                           (1, 1, 0), (1, 7, 0), (7, 1, 0), (5, 5, 0)]:
            cost = rng.uniform(0.0, 10.0, size=(2, n, m))
            if band is None:
                expected = [_accumulate(c) for c in cost]
            else:
                expected = [_accumulate_banded(c, band) for c in cost]
            batched = _batched_accumulate(cost, band=band)
            for p, exp in enumerate(expected):
                assert bits(batched[p]) == bits(exp)

    def test_band_narrower_than_length_gap(self):
        # The clamp b = max(band, |n-m|) must match the scalar kernel.
        rng = np.random.default_rng(3)
        cost = rng.uniform(0.0, 10.0, size=(1, 20, 9))
        batched = _batched_accumulate(cost, band=2)
        assert bits(batched[0]) == bits(_accumulate_banded(cost[0], 2))


class TestBandedPairDistances:
    """Equal-length banded pairs run as one bucket of
    :func:`bucketed_pair_distances`."""

    def test_all_pairs_matches_per_pair_loop(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 10.0, size=(11, 25))
        idx_i, idx_j = np.triu_indices(11, k=1)
        for band in (0, 1, 3, 10, 40):
            got = bucketed_pair_distances(list(x), idx_i, idx_j, band=band)
            expected = [dtw_distance(x[i], x[j], band=band)
                        for i, j in zip(idx_i, idx_j)]
            assert bits(got) == bits(expected)

    def test_chunking_is_invisible(self):
        rng = np.random.default_rng(5)
        x = list(rng.uniform(0.0, 10.0, size=(9, 17)))
        idx_i, idx_j = np.triu_indices(9, k=1)
        whole = bucketed_pair_distances(x, idx_i, idx_j, band=4,
                                        pair_chunk=None)
        for chunk in (1, 2, 7, 1000):
            assert bits(bucketed_pair_distances(
                x, idx_i, idx_j, band=4, pair_chunk=chunk)) == bits(whole)


class TestBucketedPairDistances:
    LENGTHS = [1, 5, 5, 17, 17, 17, 23, 9, 9, 1]

    def _arrays(self, seed=6):
        rng = np.random.default_rng(seed)
        return [rng.uniform(0.0, 10.0, size=n) for n in self.LENGTHS]

    @pytest.mark.parametrize("band", [None, 0, 2, 8])
    def test_mixed_lengths_match_per_pair_loop(self, band):
        arrays = self._arrays()
        idx_i, idx_j = np.triu_indices(len(arrays), k=1)
        got = bucketed_pair_distances(arrays, idx_i, idx_j, band=band)
        expected = [dtw_distance(arrays[i], arrays[j], band=band)
                    for i, j in zip(idx_i, idx_j)]
        assert bits(got) == bits(expected)

    def test_chunking_is_invisible(self):
        arrays = self._arrays(seed=7)
        idx_i, idx_j = np.triu_indices(len(arrays), k=1)
        whole = bucketed_pair_distances(arrays, idx_i, idx_j,
                                        pair_chunk=None)
        for chunk in (1, 3, 1000):
            assert bits(bucketed_pair_distances(
                arrays, idx_i, idx_j, pair_chunk=chunk)) == bits(whole)

    def test_order_is_the_request_order(self):
        # Bucketing reorders work internally; results must come back in
        # the caller's pair order regardless.
        arrays = self._arrays(seed=8)
        idx_i = np.array([9, 0, 5, 3])
        idx_j = np.array([2, 1, 0, 8])
        got = bucketed_pair_distances(arrays, idx_i, idx_j)
        expected = [dtw_distance(arrays[i], arrays[j])
                    for i, j in zip(idx_i, idx_j)]
        assert bits(got) == bits(expected)


class TestColumnKS:
    def test_matches_per_column_statistic(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 200))
            cols = int(rng.integers(1, 12))
            x = rng.uniform(-0.2, 1.2, size=(n, cols))
            got = ks_statistic_uniform_columns(x)
            expected = [ks_statistic_uniform(x[:, c])
                        for c in range(cols)]
            assert bits(got) == bits(expected)

    def test_constant_columns(self):
        x = np.full((50, 3), 0.5)
        got = ks_statistic_uniform_columns(x)
        expected = [ks_statistic_uniform(x[:, c]) for c in range(3)]
        assert bits(got) == bits(expected)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ks_statistic_uniform_columns(np.zeros(5))
        with pytest.raises(ValueError):
            ks_statistic_uniform_columns(np.zeros((0, 3)))

    def test_sf_batch_matches_scalar(self):
        rng = np.random.default_rng(10)
        x = np.concatenate([
            rng.uniform(0.0, 3.0, size=64), [0.0, -1.0, 1e-12, 5.0]])
        got = kolmogorov_sf_batch(x)
        expected = [_kolmogorov_sf(float(v)) for v in x]
        assert bits(got) == bits(expected)


@st.composite
def series_sets(draw):
    """A DTW pair request: 2-7 univariate series of one shared length
    or of two lengths (so shape buckets hold several pairs), a band
    (``None`` or narrow to wide), and every distinct pair in a drawn
    order."""
    n = draw(st.integers(2, 7))
    lengths = [draw(st.integers(1, 20)), draw(st.integers(1, 20))]
    if draw(st.booleans()):
        lengths = lengths[:1]
    band = draw(st.one_of(st.none(), st.integers(0, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arrays = [rng.uniform(0.0, 10.0, size=draw(st.sampled_from(lengths)))
              for _ in range(n)]
    pairs = draw(st.permutations(
        [(i, j) for i in range(n) for j in range(i + 1, n)]))
    idx_i = np.array([i for i, _ in pairs])
    idx_j = np.array([j for _, j in pairs])
    return arrays, idx_i, idx_j, band


class TestRegistry:
    def test_one_record_registered(self):
        assert list(backend._BACKENDS) == ["batched"]
        record = kernels()
        assert record is backend._BACKENDS["batched"]
        assert record.pair_distances is backend.pair_distances

    @settings(max_examples=150, deadline=None)
    @given(request=series_sets())
    def test_backends_dispatch_identically(self, request):
        arrays, idx_i, idx_j, band = request
        assert bits(kernels().pair_distances(arrays, idx_i, idx_j, band)) \
            == bits(reference_pair_distances(arrays, idx_i, idx_j, band))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 80), cols=st.integers(1, 9),
           decimals=st.one_of(st.none(), st.integers(0, 2)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_ks_columns_match_oracle(self, n, cols, decimals, seed):
        # Rounding makes ties and repeated values, the edge the sorted
        # column kernel must handle like the scalar one.
        x = np.random.default_rng(seed).uniform(-0.2, 1.2, size=(n, cols))
        if decimals is not None:
            x = np.round(x, decimals)
        assert bits(backend.ks_columns(x)) == bits(reference_ks_columns(x))

    def test_multivariate_series_take_the_per_pair_loop(self):
        rng = np.random.default_rng(11)
        arrays = [rng.uniform(0.0, 10.0, size=(n, 2)) for n in (6, 6, 9)]
        idx_i, idx_j = np.triu_indices(3, k=1)
        for band in (None, 2):
            assert bits(kernels().pair_distances(arrays, idx_i, idx_j,
                                                 band)) == bits(
                reference_pair_distances(arrays, idx_i, idx_j, band))


class TestEngineCrossBackend:
    """Engines on the dispatch and on the oracle record agree bit for
    bit, and share cache entries."""

    def _series(self, equal=True, seed=12):
        rng = np.random.default_rng(seed)
        lengths = [20] * 6 if equal else [14, 20, 20, 17, 14, 20]
        return [rng.uniform(0.0, 10.0, size=n) for n in lengths]

    @pytest.mark.parametrize("equal,band", [
        (True, None), (True, 0), (True, 3), (False, None), (False, 2)])
    def test_dtw_matrix_bit_identical(self, equal, band):
        from repro.engine import Engine

        series = self._series(equal=equal)
        ref = Engine(backend=ORACLE).dtw_matrix(series, band=band)
        vec = Engine().dtw_matrix(series, band=band)
        assert ref.tobytes() == vec.tobytes()

    def test_dtw_pair_bit_identical(self):
        from repro.engine import Engine

        a, b = self._series(equal=False)[:2]
        ref = Engine(backend=ORACLE).dtw_matrix([a, b], band=2)[0, 1]
        vec = Engine().dtw_matrix([a, b], band=2)[0, 1]
        assert bits([ref]) == bits([vec])

    def test_cache_keys_are_backend_free(self, tmp_path):
        # A disk tier written through one record must serve the other:
        # the dispatch engine's first lookup lands as a disk hit on the
        # oracle engine's entry, and the bits agree.
        from repro.engine import Engine

        series = self._series()
        cache_dir = str(tmp_path / "kernels")
        ref = Engine(backend=ORACLE, cache_dir=cache_dir).dtw_matrix(
            series, band=3)
        engine = Engine(cache_dir=cache_dir)
        vec = engine.dtw_matrix(series, band=3)
        assert engine.metrics.counter("disk_hits").value > 0
        assert ref.tobytes() == vec.tobytes()

    def test_engine_and_inline_tasks_read_the_registry(self, monkeypatch):
        # A wrapped record swapped into the registry must see both the
        # engine's own pair batches and the trend-event tasks that
        # parallel_map runs inline at one worker.
        from repro.engine import Engine

        counted = []
        record = kernels()

        def pair_distances(arrays, idx_i, idx_j, band=None):
            counted.append(len(idx_i))
            return record.pair_distances(arrays, idx_i, idx_j, band)

        monkeypatch.setitem(
            backend._BACKENDS, "batched",
            dataclasses.replace(record, pair_distances=pair_distances))
        series = self._series()
        engine = Engine()
        engine.dtw_matrix(series)
        assert counted == [15]
        engine.trend_score({"e0": series[:4], "e1": series[2:]})
        assert counted == [15, 6, 6]

    def test_spread_score_matches_column_oracle(self):
        from repro.core.matrix import CounterMatrix
        from repro.core.normalization import normalize_matrix
        from repro.core.spread_score import spread_score

        rng = np.random.default_rng(13)
        matrix = CounterMatrix(
            workloads=tuple(f"w{i}" for i in range(12)),
            events=("e0", "e1", "e2"),
            values=rng.uniform(1.0, 100.0, size=(12, 3)),
            suite_name="backend-test",
        )
        for axis in ("workloads", "events"):
            result = spread_score(matrix, axis=axis)
            norm = normalize_matrix(matrix.values)
            columns = norm.T if axis == "workloads" else norm
            assert bits(list(result.per_item.values())) == bits(
                reference_ks_columns(columns))
