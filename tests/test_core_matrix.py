"""Tests for repro.core.matrix and repro.core.normalization."""

import numpy as np
import pytest

from repro.core.matrix import CounterMatrix
from repro.core.normalization import (
    normalize_matrices_jointly,
    normalize_matrix,
    normalize_series,
    normalize_series_set,
)


def small_matrix(n=4, m=3, seed=0, with_series=False):
    rng = np.random.default_rng(seed)
    workloads = tuple(f"w{i}" for i in range(n))
    events = tuple(f"e{j}" for j in range(m))
    values = rng.uniform(0, 1000, size=(n, m))
    series = {}
    if with_series:
        series = {
            e: [rng.uniform(0, 100, size=10) for _ in range(n)]
            for e in events
        }
    return CounterMatrix(workloads=workloads, events=events, values=values,
                         series=series, suite_name="test")


class TestCounterMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="values shape"):
            CounterMatrix(workloads=("a",), events=("x", "y"),
                          values=np.zeros((2, 2)))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate workload"):
            CounterMatrix(workloads=("a", "a"), events=("x",),
                          values=np.zeros((2, 1)))
        with pytest.raises(ValueError, match="duplicate event"):
            CounterMatrix(workloads=("a", "b"), events=("x", "x"),
                          values=np.zeros((2, 2)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError,
                           match=r"non-finite.*event column\(s\): x"):
            CounterMatrix(workloads=("a",), events=("x",),
                          values=np.array([[np.nan]]))

    def test_series_validation(self):
        with pytest.raises(ValueError, match="unknown event"):
            CounterMatrix(workloads=("a",), events=("x",),
                          values=np.zeros((1, 1)),
                          series={"y": [np.zeros(3)]})
        with pytest.raises(ValueError, match="entries"):
            CounterMatrix(workloads=("a",), events=("x",),
                          values=np.zeros((1, 1)),
                          series={"x": [np.zeros(3), np.zeros(3)]})
        # An empty or non-finite series is one error naming every
        # offending event and workload, never a score.
        with pytest.raises(ValueError,
                           match=r"event 'x', workload 'b': .*non-finite.*"
                                 r"event 'y', workload 'a': .*empty"):
            CounterMatrix(workloads=("a", "b"), events=("x", "y"),
                          values=np.ones((2, 2)),
                          series={"x": [np.ones(3), [1.0, np.inf, 2.0]],
                                  "y": [[], np.ones(3)]})

    def test_row_column_access(self):
        m = small_matrix()
        np.testing.assert_array_equal(m.column("e1"), m.values[:, 1])
        np.testing.assert_array_equal(m.row("w2"), m.values[2])
        with pytest.raises(KeyError, match="unknown event"):
            m.column("nope")
        with pytest.raises(KeyError, match="unknown workload"):
            m.row("nope")

    def test_select_events_preserves_series(self):
        m = small_matrix(with_series=True)
        sub = m.select_events(("e2", "e0"))
        assert sub.events == ("e2", "e0")
        np.testing.assert_array_equal(sub.values[:, 0], m.values[:, 2])
        assert set(sub.series) == {"e2", "e0"}

    def test_select_workloads_reorders(self):
        m = small_matrix(with_series=True)
        sub = m.select_workloads(("w3", "w0"))
        assert sub.workloads == ("w3", "w0")
        np.testing.assert_array_equal(sub.values[0], m.values[3])
        np.testing.assert_array_equal(
            sub.series["e0"][0], m.series["e0"][3]
        )

    def test_from_measurement(self):
        from repro.perf.session import PerfSession
        from repro.workloads import load_suite
        from repro.uarch.config import small_test_machine

        sess = PerfSession(machine=small_test_machine(), n_intervals=4,
                           ops_per_interval=150, warmup_intervals=0, seed=0)
        meas = sess.run_suite(load_suite("nbench"))
        m = CounterMatrix.from_measurement(meas)
        assert m.n_workloads == 10
        assert m.suite_name == "nbench"
        assert m.has_series

    def test_event_series(self):
        m = small_matrix(with_series=True)
        assert len(m.event_series("e0")) == 4
        plain = small_matrix()
        with pytest.raises(KeyError, match="no time series"):
            plain.event_series("e0")


class TestMatrixNormalization:
    def test_normalize_matrix_unit_range(self):
        m = small_matrix()
        norm = normalize_matrix(m)
        assert isinstance(norm, CounterMatrix)
        assert norm.values.min() >= 0 and norm.values.max() <= 1
        for j in range(norm.n_events):
            assert norm.values[:, j].max() == pytest.approx(1.0)

    def test_normalize_plain_array(self):
        x = np.array([[0.0, 10.0], [5.0, 20.0]])
        out = normalize_matrix(x)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [[0, 0], [1, 1]])

    def test_joint_normalization_preserves_ranges(self):
        a = small_matrix(seed=1)
        b = CounterMatrix(
            workloads=a.workloads, events=a.events, values=a.values * 10,
            suite_name="big",
        )
        na, nb = normalize_matrices_jointly(a, b)
        assert nb.values.max() == pytest.approx(1.0)
        assert na.values.max() < 0.2

    def test_joint_event_mismatch_rejected(self):
        a = small_matrix()
        b = CounterMatrix(workloads=a.workloads,
                          events=("z0", "z1", "z2"), values=a.values)
        with pytest.raises(ValueError, match="identical event sets"):
            normalize_matrices_jointly(a, b)


class TestSeriesNormalization:
    def test_single_series_bounds(self):
        out = normalize_series(np.arange(50), n_points=80)
        assert out.shape == (80,)
        assert out.min() >= 0 and out.max() <= 100

    def test_quantized_flat_set_is_constant(self):
        rng = np.random.default_rng(0)
        # Same level, tiny noise: whole set should normalize flat.
        group = [1000 + rng.normal(scale=5, size=20) for _ in range(4)]
        out = normalize_series_set(group, n_points=30)
        for s in out:
            assert np.ptp(s) == pytest.approx(0.0)

    def test_quantized_keeps_phase_steps(self):
        group = [
            np.concatenate([np.full(10, 100.0), np.full(10, 5000.0)]),
            np.full(20, 100.0),
        ]
        out = normalize_series_set(group, n_points=20)
        assert np.ptp(out[0]) > 30  # step survives
        assert np.ptp(out[1]) == pytest.approx(0.0)

    def test_per_series_full_range(self):
        group = [np.arange(20.0), np.arange(20.0) * 5]
        out = normalize_series_set(group, cdf="per_series")
        for s in out:
            assert s.max() == pytest.approx(100.0)

    def test_pooled_keeps_levels(self):
        group = [np.full(10, 1.0), np.full(10, 100.0)]
        lo, hi = normalize_series_set(group, cdf="pooled")
        assert lo.mean() < hi.mean()

    def test_all_zero_set(self):
        group = [np.zeros(10), np.zeros(10)]
        out = normalize_series_set(group)
        for s in out:
            assert np.ptp(s) == 0.0

    def test_unknown_cdf_raises(self):
        with pytest.raises(ValueError, match="cdf"):
            normalize_series_set([np.zeros(5)], cdf="magic")

    def test_empty_set(self):
        assert normalize_series_set([]) == []

    def test_different_lengths_aligned(self):
        group = [np.arange(10.0), np.arange(100.0)]
        out = normalize_series_set(group, n_points=40)
        assert all(s.shape == (40,) for s in out)
