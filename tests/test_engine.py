"""Tests for repro.engine: content-addressed cache, parallel fan-out,
and the Engine's bit-identity contract against the plain core kernels."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.cluster_score import cluster_score
from repro.core.coverage_score import coverage_score
from repro.core.matrix import CounterMatrix
from repro.core.perspector import Perspector, PerspectorConfig
from repro.core.spread_score import spread_score
from repro.core.trend_score import trend_score
from repro.engine import (
    MISS,
    Engine,
    KernelCache,
    content_key,
)
from repro.engine.parallel import parallel_map
from repro.qa.determinism import diff_scorecards
from repro.stats.dtw import dtw_matrix


def _unmemoized_feed(h, part):
    """The cache key feed with ``str(dtype)`` built for every array, as
    before the dtype tag was memoized: the reference key bytes."""
    if isinstance(part, np.ndarray):
        a = np.ascontiguousarray(part)
        h.update(b"<nd>")
        h.update(str(a.dtype).encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    elif isinstance(part, str):
        h.update(b"<s>")
        h.update(part.encode())
    elif isinstance(part, (bool, int, float)):
        h.update(f"<{type(part).__name__}>{part!r}".encode())
    elif isinstance(part, (tuple, list)):
        h.update(f"<seq:{len(part)}>".encode())
        for item in part:
            _unmemoized_feed(h, item)
    else:
        h.update(f"<map:{len(part)}>".encode())
        for key in sorted(part, key=repr):
            _unmemoized_feed(h, key)
            _unmemoized_feed(h, part[key])


def fixture_matrix(seed=0, n_workloads=6, n_events=3, length=30):
    rng = np.random.default_rng(seed)
    events = tuple(f"ev{i}" for i in range(n_events))
    workloads = tuple(f"wl{i}" for i in range(n_workloads))
    series = {
        e: [rng.uniform(0.0, 10.0, size=length) for _ in workloads]
        for e in events
    }
    return CounterMatrix(
        workloads=workloads,
        events=events,
        values=rng.uniform(1.0, 100.0, size=(n_workloads, n_events)),
        series=series,
        suite_name="engine-fixture",
    )


def assert_bits_equal(a, b, label=""):
    assert np.float64(a).tobytes() == np.float64(b).tobytes(), (label, a, b)


class TestContentKey:
    def test_identical_inputs_identical_key(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        assert content_key("k", x, 1, "a") == content_key("k", x.copy(), 1, "a")

    def test_any_value_change_changes_key(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        y = x.copy()
        y[1, 2] += 1e-16  # no-op: 5 + 1e-16 rounds back to 5
        assert content_key("k", x) == content_key("k", y)
        y[1, 2] = np.nextafter(y[1, 2], np.inf)  # one ulp
        assert content_key("k", x) != content_key("k", y)

    def test_config_change_changes_key(self):
        x = np.ones(4)
        assert content_key("k", x, 1) != content_key("k", x, 2)
        assert content_key("k", x, None) != content_key("k", x, 0)

    def test_type_tags_prevent_collisions(self):
        assert content_key("k", 1) != content_key("k", "1")
        assert content_key("k", True) != content_key("k", 1)
        assert content_key("k", 1.0) != content_key("k", 1)
        assert content_key("k", [1, 2]) != content_key("k", [[1], 2])

    def test_dtype_and_shape_in_key(self):
        a = np.zeros(4, dtype=np.float64)
        assert content_key("k", a) != content_key("k", a.astype(np.float32))
        assert content_key("k", a) != content_key("k", a.reshape(2, 2))

    def test_kind_namespaces(self):
        x = np.ones(3)
        assert content_key("dtw-pair", x) != content_key("norm-set", x)

    def test_dict_order_independent(self):
        assert content_key("k", {"a": 1, "b": 2}) == \
            content_key("k", {"b": 2, "a": 1})

    def test_unhashable_part_raises(self):
        with pytest.raises(TypeError, match="unhashable"):
            content_key("k", object())

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(["float64", "float32", "int64", "bool"]),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
        layout=st.sampled_from(["c", "fortran", "strided"]),
        data=st.data(),
    )
    def test_memoized_dtype_tag_keeps_key_bytes(self, dtype, shape,
                                                layout, data):
        # The per-dtype memo of the encoded dtype string changes no key:
        # every array part hashes as the unmemoized feed below does.
        a = data.draw(hnp.arrays(dtype, shape))
        if layout == "fortran":
            a = np.asfortranarray(a)
        elif layout == "strided":
            a = a[::2]
        parts = (a, [a, 3, "s"], {"x": a})
        want = hashlib.sha256()
        for part in ("kind",) + parts:
            _unmemoized_feed(want, part)
        assert content_key("kind", *parts) == want.hexdigest()


class TestKernelCache:
    def test_hit_on_identical_input(self):
        cache = KernelCache()
        key = content_key("k", np.arange(3.0))
        assert cache.lookup(key) is MISS
        cache.put(key, "value")
        assert cache.lookup(content_key("k", np.arange(3.0))) == "value"
        counts = cache.metrics.snapshot()
        assert (counts["cache_hits"], counts["cache_misses"],
                len(cache)) == (1, 1, 1)

    def test_miss_after_value_change(self):
        cache = KernelCache()
        x = np.arange(3.0)
        cache.put(content_key("k", x), "old")
        y = x.copy()
        y[0] = np.nextafter(y[0], 1.0)
        assert cache.lookup(content_key("k", y)) is MISS

    def test_disabled_cache_never_stores(self):
        cache = KernelCache(enabled=False)
        cache.put("key", "value")
        assert cache.lookup("key") is MISS
        assert len(cache) == 0
        # the lookup counts as a miss
        assert cache.metrics.snapshot()["cache_misses"] == 1

    def test_put_does_not_count(self):
        cache = KernelCache()
        cache.put("key", 1)
        counts = cache.metrics.snapshot()
        assert (counts["cache_hits"], counts["cache_misses"]) == (0, 0)

    def test_get_or_compute(self):
        cache = KernelCache()
        calls = []
        out = [cache.get_or_compute("k", lambda: calls.append(1) or 7)
               for _ in range(3)]
        assert out == [7, 7, 7]
        assert len(calls) == 1

    def test_stats_delta_and_hit_rate(self):
        cache = KernelCache()
        cache.lookup("missing")
        before = cache.metrics.snapshot()
        cache.put("k", 1)
        cache.lookup("k")
        cache.lookup("missing")
        delta = cache.metrics.snapshot().delta(before)
        assert (delta["cache_hits"], delta["cache_misses"]) == (1, 1)


class TestParallelMap:
    def test_serial_is_plain_map(self):
        assert parallel_map(pow, [(2, 3), (3, 2)], 1) == [8, 9]

    def test_parallel_preserves_input_order(self):
        args = [(2, i) for i in range(8)]
        assert parallel_map(pow, args, 2) == [2 ** i for i in range(8)]

    def test_invalid_workers_raises(self):
        with pytest.raises(ValueError, match="workers"):
            parallel_map(pow, [(2, 3)], 0)
        with pytest.raises(ValueError, match="workers"):
            Engine(workers=0)


class TestEngineBitIdentity:
    """The engine's one contract: never move a bit vs the plain kernels."""

    def test_kernels_match_core(self):
        matrix = fixture_matrix()
        engine = Engine()
        assert_bits_equal(engine.cluster_score(matrix, seed=3).value,
                          cluster_score(matrix, seed=3).value, "cluster")
        assert_bits_equal(engine.trend_score(matrix).value,
                          trend_score(matrix).value, "trend")
        assert_bits_equal(engine.coverage_score(matrix).value,
                          coverage_score(matrix).value, "coverage")
        assert_bits_equal(engine.spread_score(matrix).value,
                          spread_score(matrix).value, "spread")

    def test_warm_cache_is_bit_identical_and_hits(self):
        matrix = fixture_matrix()
        engine = Engine()
        config = PerspectorConfig()
        cold = engine.score_matrix(matrix, config, "all")
        warm = engine.score_matrix(matrix, config, "all")
        assert diff_scorecards(cold, warm) == []
        assert cold.details["engine"]["cache_misses"] > 0
        assert cold.details["engine"]["cache_hits"] == 0
        assert warm.details["engine"]["cache_hits"] > 0
        assert warm.details["engine"]["cache_misses"] == 0

    def test_cache_off_matches_cache_on(self):
        matrix = fixture_matrix()
        config = PerspectorConfig()
        on = Engine(cache=True).score_matrix(matrix, config, "all")
        off = Engine(cache=False).score_matrix(matrix, config, "all")
        assert diff_scorecards(on, off) == []
        assert off.details["engine"]["cache_enabled"] is False

    def test_dtw_pair_reuse_across_subsets(self):
        # Pairs computed for a superset must serve a later subset
        # bit-for-bit (the matrix key misses, the pair keys hit).
        rng = np.random.default_rng(5)
        series = [rng.normal(size=12) for _ in range(4)]
        engine = Engine()
        engine.dtw_matrix(series)
        before = engine.metrics.snapshot()
        sub = engine.dtw_matrix(series[:3])
        delta = engine.metrics.snapshot().delta(before)
        assert delta["cache_hits"] >= 3  # the three subset pairs
        np.testing.assert_array_equal(sub, dtw_matrix(series[:3]))

    def test_dtw_pair_matches_matrix_entry(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=10), rng.normal(size=10)
        assert_bits_equal(Engine().dtw_matrix([a, b])[0, 1],
                          dtw_matrix([a, b])[0, 1], "dtw pair")

    def test_dtw_unequal_lengths_slow_path(self):
        rng = np.random.default_rng(7)
        series = [rng.normal(size=n) for n in (8, 11, 9)]
        engine = Engine()
        np.testing.assert_array_equal(engine.dtw_matrix(series),
                                      dtw_matrix(series))

    def test_workers_match_serial(self):
        matrices = [fixture_matrix(seed=s, n_workloads=5) for s in (0, 1)]
        config = PerspectorConfig()
        serial = Engine(workers=1).score_matrices(matrices, config, "all")
        fanned = Engine(workers=2).score_matrices(matrices, config, "all")
        for a, b in zip(serial, fanned):
            assert diff_scorecards(a, b) == []

    def test_perspector_compare_workers_match_serial(self):
        a, b = fixture_matrix(seed=0), fixture_matrix(seed=1, n_workloads=5)
        serial = Perspector().compare(a, b)
        fanned = Perspector(config=PerspectorConfig(workers=2)).compare(a, b)
        for ca, cb in zip(serial.scorecards, fanned.scorecards):
            assert diff_scorecards(ca, cb) == []

    def test_from_config(self):
        engine = Engine.from_config(PerspectorConfig(workers=3, cache=False))
        assert engine.workers == 3
        assert engine.cache.enabled is False

    def test_pairwise_distances_hook_matches_plain(self):
        from repro.stats.distance import pairwise_distances

        rng = np.random.default_rng(8)
        x = rng.uniform(size=(7, 4))
        engine = Engine()
        hooked = engine.pairwise_distances(x)
        plain = pairwise_distances(x)
        assert hooked.tobytes() == plain.tobytes()

    def test_pairwise_distances_hook_caches(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(6, 3))
        engine = Engine()
        first = engine.pairwise_distances(x)
        before = engine.metrics.snapshot()
        again = engine.pairwise_distances(x.copy())
        delta = engine.metrics.snapshot().delta(before)
        assert (delta["cache_hits"], delta["cache_misses"]) == (1, 0)
        assert again.tobytes() == first.tobytes()

    def test_cluster_score_routes_distances_through_engine(self):
        # cluster_score's silhouette distance matrix goes through the
        # kernels hook: a cold engine misses on the pairwise-distances
        # key, and a pre-warmed one hits it.
        matrix = fixture_matrix(seed=10)
        engine = Engine()
        cold = engine.cluster_score(matrix, seed=3)
        from repro.stats.preprocessing import minmax_normalize

        x = minmax_normalize(matrix.values)
        before = engine.metrics.snapshot()
        engine.pairwise_distances(x)
        delta = engine.metrics.snapshot().delta(before)
        assert delta["cache_hits"] == 1  # already there from the score above
        assert_bits_equal(cold.value, cluster_score(matrix, seed=3).value,
                          "cluster via hook")


class TestSatelliteRegressions:
    def test_perspector_does_not_mutate_caller_config(self):
        # Regression: Perspector(config=..., seed=...) used to write the
        # seed override into the caller's config object.
        config = PerspectorConfig(seed=0)
        perspector = Perspector(config=config, seed=42)
        assert config.seed == 0
        assert perspector.config.seed == 42

    def test_trend_docstring_matches_default(self):
        from repro.core.trend_score import event_trend_score

        assert '``"quantized"`` (default)' in event_trend_score.__doc__
        assert '"pooled"`` (default)' not in event_trend_score.__doc__
        assert '"pooled"`` (default)' not in trend_score.__doc__

    def test_subset_scores_with_engine_match_plain(self):
        from repro.core.subset import _scores

        matrix = fixture_matrix()
        plain = _scores(matrix, seed=2)
        engined = _scores(matrix, seed=2, engine=Engine())
        assert set(plain) == set(engined)
        for name in plain:
            assert_bits_equal(plain[name], engined[name], name)
