"""Tests for repro.stats.backend and the batched compute kernels.

The dispatch's whole contract is that batching is a speed choice and
never a numerical one, so almost every test here is a bit-identity
assertion: the batched wavefront and the full-matrix fill vs the
per-cell row loop, mixed-length sweeps vs the per-pair loop, a pair
alone vs the same pair in any call, column-batched KS vs the scalar
statistic, and whole engines run on the dispatch and on the per-pair /
per-column oracles below.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stats import backend, dtw
from repro.stats.backend import ComputeBackend, kernels
from repro.stats.dtw import _accumulate, dtw_distance, pair_distances
from repro.stats.kstest import (
    _kolmogorov_sf,
    kolmogorov_sf_batch,
    ks_statistic_uniform,
    ks_statistic_uniform_columns,
)
from tests.dtw_reference import accumulate_banded


def reference_pair_distances(arrays, idx_i, idx_j, band=None):
    """Oracle DTW pair distances: one ``dtw_distance`` per pair."""
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


def check_against_row_loop(a_list, b_list, band):
    """Each pair's full-matrix fill equals the per-cell row loop cell for
    cell, and the batch kernel's distance equals the fill's corner."""
    arrays = list(a_list) + list(b_list)
    k = len(a_list)
    got = pair_distances(arrays, np.arange(k), np.arange(k, 2 * k), band)
    for p, (a, b) in enumerate(zip(a_list, b_list)):
        cost = np.abs(a[:, None] - b[None, :])
        wide = a.shape[0] + b.shape[0] if band is None else band
        expected = accumulate_banded(cost, wide)
        assert bits(_accumulate(cost, band)) == bits(expected)
        assert bits([got[p]]) == bits([expected[-1, -1]])


def draw_pairs(rng, k, n, m):
    return ([rng.uniform(0.0, 10.0, size=n) for _ in range(k)],
            [rng.uniform(0.0, 10.0, size=m) for _ in range(k)])


class TestBatchedAccumulate:
    """The one full-matrix fill and the one batch kernel against the
    per-cell row loop (``tests/dtw_reference.py``)."""

    def test_unbanded_matches_reference_fill(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 30))
            check_against_row_loop(*draw_pairs(rng, 3, n, m), None)

    def test_banded_matches_reference_fill(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(1, 30))
            band = int(rng.integers(0, 12))
            check_against_row_loop(*draw_pairs(rng, 2, n, m), band)

    def test_degenerate_shapes(self):
        # L=1 on either axis and band=0 must all agree exactly.
        rng = np.random.default_rng(2)
        for n, m, band in [(1, 1, None), (1, 7, None), (7, 1, None),
                           (1, 1, 0), (1, 7, 0), (7, 1, 0), (5, 5, 0)]:
            check_against_row_loop(*draw_pairs(rng, 2, n, m), band)

    def test_band_narrower_than_length_gap(self):
        # The clamp b = max(band, |n-m|) must match the row loop's.
        rng = np.random.default_rng(3)
        check_against_row_loop(*draw_pairs(rng, 1, 20, 9), 2)


#: A chunk size no test call reaches: the pair axis in one chunk.
WHOLE = 10 ** 9


def chunked(chunk, *args):
    """``pair_distances(*args)`` with ``chunk`` pairs per wavefront
    batch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dtw, "PAIR_CHUNK", chunk)
        return pair_distances(*args)


class TestBandedPairDistances:
    """Equal-length banded pairs run as one group of
    :func:`pair_distances`."""

    def test_all_pairs_matches_per_pair_loop(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 10.0, size=(11, 25))
        idx_i, idx_j = np.triu_indices(11, k=1)
        for band in (0, 1, 3, 10, 40):
            got = pair_distances(list(x), idx_i, idx_j, band)
            expected = [dtw_distance(x[i], x[j], band=band)
                        for i, j in zip(idx_i, idx_j)]
            assert bits(got) == bits(expected)

    def test_chunking_is_invisible(self):
        rng = np.random.default_rng(5)
        x = list(rng.uniform(0.0, 10.0, size=(9, 17)))
        idx_i, idx_j = np.triu_indices(9, k=1)
        whole = chunked(WHOLE, x, idx_i, idx_j, 4)
        for chunk in (1, 2, 7, 1000):
            assert bits(chunked(chunk, x, idx_i, idx_j, 4)) == bits(whole)


class TestBucketedPairDistances:
    LENGTHS = [1, 5, 5, 17, 17, 17, 23, 9, 9, 1]

    def _arrays(self, seed=6):
        rng = np.random.default_rng(seed)
        return [rng.uniform(0.0, 10.0, size=n) for n in self.LENGTHS]

    @pytest.mark.parametrize("band", [None, 0, 2, 8])
    def test_mixed_lengths_match_per_pair_loop(self, band):
        arrays = self._arrays()
        idx_i, idx_j = np.triu_indices(len(arrays), k=1)
        got = pair_distances(arrays, idx_i, idx_j, band)
        expected = [dtw_distance(arrays[i], arrays[j], band=band)
                    for i, j in zip(idx_i, idx_j)]
        assert bits(got) == bits(expected)

    def test_chunking_is_invisible(self):
        arrays = self._arrays(seed=7)
        idx_i, idx_j = np.triu_indices(len(arrays), k=1)
        whole = chunked(WHOLE, arrays, idx_i, idx_j)
        for chunk in (1, 3, 1000):
            assert bits(chunked(chunk, arrays, idx_i, idx_j)) == bits(whole)

    def test_order_is_the_request_order(self):
        # Grouping by length reorders work internally; results must
        # come back in the caller's pair order regardless.
        arrays = self._arrays(seed=8)
        idx_i = np.array([9, 0, 5, 3])
        idx_j = np.array([2, 1, 0, 8])
        got = pair_distances(arrays, idx_i, idx_j)
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
    or of two lengths (so length groups hold several pairs), a band
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


def probe_series():
    """Two length-12 series whose unbanded distance runs along the
    first row, and a length-7 series, all in ``[0, 100)``. Summing that
    border with ``cost[0, 0]`` folded in after the prefix sum moves the
    distance's last bit, so the pair reads one way alone and another
    beside a series of another length under any second border rule."""
    rng = np.random.default_rng(0)
    for _ in range(34):
        a, b = rng.uniform(0.0, 100.0, 12), rng.uniform(0.0, 100.0, 12)
    return a, b, rng.uniform(0.0, 100.0, 7)


class TestPairBitsDependOnlyOnThePair:
    """A DTW distance is a function of ``(a, b, band)`` alone: the
    engine's pair store keys it that way, sorted so both orientations
    share one entry."""

    def test_trend_score_is_free_of_batch_and_order(self):
        # e2's pair is also in e1's mixed-length matrix: the engine
        # computes it there once and reuses it, cache-off engines and
        # the serial core path compute it alone. Every way and either
        # event order must read the same bits.
        from repro.core.trend_score import trend_score
        from repro.engine import Engine

        a, b, c = probe_series()
        series = {"e1": [a, b, c], "e2": [a, b]}
        seen = set()
        for order in (("e1", "e2"), ("e2", "e1")):
            by_event = {event: series[event] for event in order}
            for result in (
                    Engine().trend_score(by_event, normalize=False),
                    Engine(cache=False).trend_score(by_event,
                                                    normalize=False),
                    trend_score(by_event, normalize=False)):
                seen.add(bits([result.per_event["e1"],
                               result.per_event["e2"]]))
        assert len(seen) == 1

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 20), m=st.integers(1, 20),
           band=st.one_of(st.none(), st.integers(0, 24)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_distances_are_bitwise_symmetric(self, n, m, band, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 100.0, m)
        forward = kernels().pair_distances([a, b], [0], [1], band)
        backward = kernels().pair_distances([a, b], [1], [0], band)
        assert bits(forward) == bits(backward)
        assert bits([dtw_distance(a, b, band=band)]) == bits(
            [dtw_distance(b, a, band=band)]) == bits(forward)

    def test_symmetric_where_the_first_row_decides(self):
        # 5,000 pairs of lengths 12 and 9: a few dozen have an optimal
        # path along a border, where a second border rule shows.
        rng = np.random.default_rng(5)
        arrays = []
        for _ in range(5000):
            arrays += [rng.uniform(0.0, 100.0, 12),
                       rng.uniform(0.0, 100.0, 9)]
        first = np.arange(0, len(arrays), 2)
        second = first + 1
        forward = kernels().pair_distances(arrays, first, second, None)
        assert bits(forward) == bits(
            kernels().pair_distances(arrays, second, first, None))
        assert bits(forward) == bits(
            [dtw_distance(arrays[i], arrays[j]) for i, j in zip(first,
                                                                 second)])
        assert bits(forward) == bits(
            [dtw_distance(arrays[j], arrays[i]) for i, j in zip(first,
                                                                 second)])

    @settings(max_examples=150, deadline=None)
    @given(request=series_sets(),
           pad_lengths=st.lists(st.integers(21, 30), min_size=1,
                                max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(request=(list(probe_series()[:2]), np.array([0]),
                      np.array([1]), None),
             pad_lengths=[7], seed=0)
    def test_pair_bits_are_free_of_the_call(self, request, pad_lengths,
                                            seed):
        # Alone, in the whole call, and in a call padded with series of
        # other lengths (and pairs of them) -- the same bits.
        arrays, idx_i, idx_j, band = request
        whole = kernels().pair_distances(arrays, idx_i, idx_j, band)
        alone = [kernels().pair_distances(arrays, idx_i[p : p + 1],
                                          idx_j[p : p + 1], band)[0]
                 for p in range(len(idx_i))]
        assert bits(whole) == bits(alone)
        rng = np.random.default_rng(seed)
        pads = [rng.uniform(0.0, 10.0, size=n) for n in pad_lengths]
        shift = len(pads)
        extra_i = np.arange(shift)
        extra_j = np.full(shift, shift)
        padded = kernels().pair_distances(
            pads + list(arrays),
            np.concatenate([extra_i, idx_i + shift]),
            np.concatenate([extra_j, idx_j + shift]), band)
        assert bits(padded[shift:]) == bits(whole)


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
        # A wrapped record swapped into the registry must see every DTW
        # pair an engine computes at one worker: its own matrix fills
        # and every trend event's, one batch per pass that the pair
        # store cannot serve in full (a trend score is one pass).
        from repro.engine import Engine
        from repro.engine.cache import array_digest, pair_key

        counted = []
        record = kernels()

        def pair_distances(arrays, idx_i, idx_j, band=None):
            counted.append(len(idx_i))
            return record.pair_distances(arrays, idx_i, idx_j, band)

        monkeypatch.setitem(
            backend._BACKENDS, "batched",
            dataclasses.replace(record, pair_distances=pair_distances))
        # Each batch holds the distinct pairs of one pass's matrices
        # that no earlier pass stored.
        stored, expected = set(), []

        def expect(*sets):
            keys = set()
            for arrays in sets:
                digests = [array_digest(a) for a in arrays]
                keys.update(pair_key(a, b, None)
                            for i, a in enumerate(digests)
                            for b in digests[i + 1:])
            if keys - stored:
                expected.append(len(keys - stored))
            stored.update(keys)

        series = self._series()
        engine = Engine()
        engine.dtw_matrix(series)
        expect(series)
        assert counted == expected == [15]
        by_event = {"e0": series[:4], "e1": series[2:]}
        expect(*(Engine().normalized_set(event_series)
                 for event_series in by_event.values()))
        engine.trend_score(by_event)
        assert counted == expected == [15, 11]

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
