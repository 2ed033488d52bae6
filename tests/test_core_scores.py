"""Tests for the four Perspector scores (Eq. 1-14)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster_score import cluster_score
from repro.core.coverage_score import (
    coverage_score,
    coverage_scores_jointly,
)
from repro.core.matrix import CounterMatrix
from repro.core.spread_score import spread_score
from repro.core.trend_score import event_trend_score, trend_score


def named(values, with_series=None):
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    return CounterMatrix(
        workloads=tuple(f"w{i}" for i in range(n)),
        events=tuple(f"e{j}" for j in range(m)),
        values=values,
        series=with_series or {},
        suite_name="t",
    )


def blobs(n_blobs, per_blob, spread=0.01, seed=0, dims=4):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.1, 0.9, size=(n_blobs, dims))
    rows = np.vstack([
        c + rng.normal(scale=spread, size=(per_blob, dims))
        for c in centres
    ])
    return rows


class TestClusterScore:
    def test_clustered_suite_scores_high(self):
        clustered = cluster_score(blobs(2, 5, spread=0.005), seed=0)
        uniform = cluster_score(
            np.random.default_rng(1).uniform(size=(10, 4)), seed=0
        )
        # The Eq. 6 sweep averages the strong k=2 silhouette with diluted
        # higher-k splits, so the gap is moderate but must be clear.
        assert clustered.value > uniform.value + 0.1
        assert clustered.per_k[2] > 0.9

    def test_value_bounded(self):
        r = cluster_score(np.random.default_rng(2).uniform(size=(8, 3)))
        assert -1.0 <= r.value <= 1.0

    def test_per_k_sweep_range(self):
        r = cluster_score(np.random.default_rng(3).uniform(size=(7, 3)))
        assert set(r.per_k) == {2, 3, 4, 5, 6}

    def test_eq6_average(self):
        r = cluster_score(np.random.default_rng(4).uniform(size=(6, 3)))
        assert r.value == pytest.approx(np.mean(list(r.per_k.values())))

    def test_best_k_finds_blob_count(self):
        r = cluster_score(blobs(3, 4, spread=0.003, seed=5), seed=0)
        assert r.best_k == 3
        assert r.labels_at_best_k.shape == (12,)

    def test_deterministic(self):
        x = np.random.default_rng(6).uniform(size=(9, 4))
        a = cluster_score(x, seed=42)
        b = cluster_score(x, seed=42)
        assert a.value == b.value

    def test_counter_matrix_input(self):
        m = named(np.random.default_rng(7).uniform(size=(6, 3)))
        assert isinstance(cluster_score(m).value, float)

    def test_too_few_workloads_raises(self):
        with pytest.raises(ValueError, match="at least 4"):
            cluster_score(np.zeros((3, 2)))

    def test_scale_invariance_via_normalization(self):
        x = np.random.default_rng(8).uniform(size=(8, 3))
        a = cluster_score(x, seed=1)
        b = cluster_score(x * 1e9, seed=1)
        assert a.value == pytest.approx(b.value)


class TestTrendScore:
    def test_flat_suite_lower_than_phased(self):
        rng = np.random.default_rng(0)
        L = 24
        flat = [np.full(L, 500.0) + rng.normal(scale=5, size=L)
                for _ in range(6)]
        phased = []
        for i in range(6):
            bp = 4 + 3 * i
            s = np.concatenate(
                [np.full(bp, 100.0), np.full(L - bp, 3000.0)]
            ) + rng.normal(scale=5, size=L)
            phased.append(s)
        assert event_trend_score(phased) > event_trend_score(flat) + 500

    def test_identical_series_zero(self):
        s = np.sin(np.linspace(0, 6, 30)) * 1000 + 2000
        assert event_trend_score([s, s.copy(), s.copy()]) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_single_series_zero(self):
        assert event_trend_score([np.arange(10.0)]) == 0.0

    def test_eq8_average_over_events(self):
        rng = np.random.default_rng(1)
        series = {
            "a": [rng.uniform(0, 1000, 15) for _ in range(4)],
            "b": [rng.uniform(0, 1000, 15) for _ in range(4)],
        }
        r = trend_score(series)
        assert r.value == pytest.approx(
            np.mean([r.per_event["a"], r.per_event["b"]])
        )

    def test_matrix_without_series_raises(self):
        m = named(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="no"):
            trend_score(m)

    def test_non_finite_raw_series_raises(self):
        series = {"a": [np.arange(5.0), [1.0, np.nan, 3.0], np.ones(4)]}
        with pytest.raises(ValueError,
                           match=r"event 'a', workload #1: .*non-finite"):
            trend_score(series)

    def test_event_restriction(self):
        rng = np.random.default_rng(2)
        series = {
            "a": [rng.uniform(0, 10, 12) for _ in range(3)],
            "b": [rng.uniform(0, 10, 12) for _ in range(3)],
        }
        r = trend_score(series, events=["a"])
        assert set(r.per_event) == {"a"}
        with pytest.raises(KeyError, match="no series"):
            trend_score(series, events=["c"])

    def test_different_length_series_ok(self):
        rng = np.random.default_rng(3)
        group = [rng.uniform(0, 100, rng.integers(8, 40)) for _ in range(4)]
        assert event_trend_score(group) >= 0.0

    def test_bounded_by_grid(self):
        # Pointwise costs are in [0, 100]; path length <= 2 * n_points.
        rng = np.random.default_rng(4)
        group = [rng.uniform(0, 1e9, 20) for _ in range(4)]
        v = event_trend_score(group, n_points=100)
        assert 0 <= v <= 100 * 200


class TestCoverageScore:
    def test_wide_spread_beats_tight(self):
        rng = np.random.default_rng(0)
        wide = rng.uniform(0, 1, size=(12, 5))
        tight = 0.5 + 0.01 * rng.standard_normal((12, 5))
        a = coverage_score(wide, normalize=False)
        b = coverage_score(tight, normalize=False)
        assert a.value > b.value * 10

    def test_retains_98pct_variance(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(20, 8))
        r = coverage_score(x)
        assert 1 <= r.n_components <= 8
        assert r.transformed.shape == (20, r.n_components)

    def test_eq13_mean_component_variance(self):
        rng = np.random.default_rng(2)
        r = coverage_score(rng.uniform(size=(15, 6)))
        assert r.value == pytest.approx(r.component_variances.mean())

    def test_joint_scoring_order(self):
        rng = np.random.default_rng(3)
        small = named(rng.uniform(0, 10, size=(8, 4)))
        large = named(rng.uniform(0, 1000, size=(8, 4)))
        r_small, r_large = coverage_scores_jointly(small, large)
        # Joint normalization: the wide-range suite dominates coverage.
        assert r_large.value > r_small.value

    def test_isolated_normalization_hides_range(self):
        rng = np.random.default_rng(4)
        shape = rng.uniform(size=(8, 4))
        small = shape * 10
        large = shape * 1000
        a = coverage_score(small)
        b = coverage_score(large)
        assert a.value == pytest.approx(b.value)  # scale lost in isolation

    def test_needs_two_workloads(self):
        with pytest.raises(ValueError, match="at least 2"):
            coverage_score(np.zeros((1, 3)))


class TestSpreadScore:
    def test_uniform_rows_score_low(self):
        rng = np.random.default_rng(0)
        # Each workload's event vector evenly tiles [0, 1].
        x = np.vstack([
            rng.permutation((np.arange(20) + 0.5) / 20) for _ in range(6)
        ])
        r = spread_score(x, normalize=False)
        assert r.value < 0.2
        assert r.weakly_uniform

    def test_clumped_rows_score_high(self):
        x = np.full((5, 20), 0.9)
        x[:, 0] = 0.0  # keep normalization from collapsing
        r = spread_score(x, normalize=False)
        assert r.value > 0.5

    def test_axis_events(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(12, 4))
        r = spread_score(x, axis="events")
        assert set(r.per_item) == {0, 1, 2, 3}
        assert r.axis == "events"

    def test_axis_workloads_default_names(self):
        m = named(np.random.default_rng(2).uniform(size=(5, 6)))
        r = spread_score(m)
        assert set(r.per_item) == set(m.workloads)

    def test_sampled_variant_close_to_exact(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(10, 30))
        exact = spread_score(x, normalize=False)
        sampled = spread_score(x, normalize=False, sampled=True, rng=0)
        assert abs(exact.value - sampled.value) < 0.25

    def test_bad_axis_raises(self):
        with pytest.raises(ValueError, match="axis"):
            spread_score(np.zeros((4, 2)), axis="columns")

    def test_needs_two_workloads(self):
        with pytest.raises(ValueError, match="at least 2"):
            spread_score(np.zeros((1, 3)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_property_value_bounded(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1e6, size=(6, 5))
        r = spread_score(x)
        assert 0.0 <= r.value <= 1.0
