"""Tests for repro.stats.kmeans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import float_bits
from repro.stats.distance import cdist
from repro.stats.kmeans import (
    KMeans,
    KMeansResult,
    _d2_pick,
    fit_stack,
    kmeans,
)


def three_blobs(n_per=20, seed=0, sep=10.0):
    rng = np.random.default_rng(seed)
    centres = np.array([[0.0, 0.0], [sep, 0.0], [0.0, sep]])
    pts = np.vstack(
        [c + rng.normal(scale=0.5, size=(n_per, 2)) for c in centres]
    )
    truth = np.repeat(np.arange(3), n_per)
    return pts, truth


class TestKMeansBasics:
    def test_recovers_separated_blobs(self):
        x, truth = three_blobs()
        result = kmeans(x, 3, seed=1)
        # Same-partition check, invariant to label permutation.
        for cluster in range(3):
            members = result.labels[truth == cluster]
            assert np.unique(members).size == 1

    def test_labels_shape_and_range(self):
        x, _ = three_blobs()
        result = kmeans(x, 3, seed=1)
        assert result.labels.shape == (x.shape[0],)
        assert set(np.unique(result.labels)) <= {0, 1, 2}

    def test_k1_returns_mean_centroid(self):
        x, _ = three_blobs()
        result = kmeans(x, 1)
        np.testing.assert_allclose(result.centroids[0], x.mean(axis=0))
        assert np.all(result.labels == 0)
        assert result.converged

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 2))
        result = kmeans(x, 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    def test_inertia_monotone_in_k(self):
        x, _ = three_blobs()
        inertias = [kmeans(x, k, seed=5, n_restarts=10).inertia for k in (1, 2, 3, 5)]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_deterministic_under_seed(self):
        x, _ = three_blobs(seed=7)
        r1 = kmeans(x, 3, seed=42)
        r2 = kmeans(x, 3, seed=42)
        np.testing.assert_array_equal(r1.labels, r2.labels)
        assert r1.inertia == r2.inertia

    def test_cluster_sizes_sum_to_n(self):
        x, _ = three_blobs()
        result = kmeans(x, 4, seed=2)
        assert result.cluster_sizes().sum() == x.shape[0]

    def test_no_empty_clusters_on_duplicates(self):
        # All points identical except two: k=3 forces empty-cluster repair.
        x = np.zeros((10, 2))
        x[0] = [5.0, 5.0]
        x[1] = [-5.0, 5.0]
        result = kmeans(x, 3, seed=0)
        assert np.unique(result.labels).size == 3


class TestKMeansValidation:
    def test_k_zero_raises(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            KMeans(k=0)

    def test_more_clusters_than_samples_raises(self):
        with pytest.raises(ValueError, match="cannot form"):
            kmeans(np.zeros((3, 2)), 5)

    def test_1d_input_raises(self):
        with pytest.raises(ValueError, match="2-D"):
            kmeans(np.zeros(5), 2)

    def test_zero_restarts_raises(self):
        with pytest.raises(ValueError, match="n_restarts"):
            KMeans(k=2, n_restarts=0)


class TestKMeansProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 24),
        k=st.integers(2, 4),
        seed=st.integers(0, 1000),
    )
    def test_every_cluster_nonempty(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(max(n, k), 3))
        result = kmeans(x, k, seed=seed)
        assert np.unique(result.labels).size == k

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_centroid_is_mean_of_members(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(15, 2))
        result = kmeans(x, 3, seed=seed)
        for j in range(3):
            members = x[result.labels == j]
            np.testing.assert_allclose(
                result.centroids[j], members.mean(axis=0), atol=1e-9
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_inertia_matches_definition(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(12, 3))
        result = kmeans(x, 3, seed=seed)
        manual = sum(
            np.sum((x[result.labels == j] - result.centroids[j]) ** 2)
            for j in range(3)
        )
        assert result.inertia == pytest.approx(manual, rel=1e-9)

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 4))
        few = KMeans(k=4, n_restarts=1, seed=3).fit(x).inertia
        many = KMeans(k=4, n_restarts=20, seed=3).fit(x).inertia
        assert many <= few + 1e-9


# The per-restart fit that the lockstep KMeans.fit replaced, verbatim:
# the oracle for every label, centroid, inertia and generator bit.

def _plus_plus_init(x, k, rng):
    """k-means++ seeding: D^2-weighted centroid selection."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest_sq = cdist(x, centroids[:1], metric="sqeuclidean")[:, 0]
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centroids; pick uniformly.
            idx = int(rng.integers(n))
        else:
            probs = closest_sq / total
            idx = int(rng.choice(n, p=probs))
        centroids[i] = x[idx]
        new_sq = cdist(x, centroids[i : i + 1], metric="sqeuclidean")[:, 0]
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def _lloyd(x, centroids, max_iter, tol):
    """Run Lloyd's algorithm from the given centroids."""
    k = centroids.shape[0]
    labels = np.zeros(x.shape[0], dtype=int)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        dists = cdist(x, centroids, metric="sqeuclidean")
        labels = np.argmin(dists, axis=1)
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            members = x[labels == j]
            if members.shape[0] == 0:
                # Repair: move the empty centroid to the point currently
                # worst-served by its centroid.
                worst = int(np.argmax(np.min(dists, axis=1)))
                new_centroids[j] = x[worst]
            else:
                new_centroids[j] = members.mean(axis=0)
        shift = float(np.sqrt(np.sum((new_centroids - centroids) ** 2)))
        centroids = new_centroids
        if shift <= tol:
            converged = True
            break
    dists = cdist(x, centroids, metric="sqeuclidean")
    labels = np.argmin(dists, axis=1)
    inertia = float(np.sum(dists[np.arange(x.shape[0]), labels]))
    return labels, centroids, inertia, n_iter, converged


def reference_fit(model, x):
    """The restart loop of the per-restart fit, drawing from model._rng."""
    x = np.asarray(x, dtype=float)
    best = None
    for _ in range(model.n_restarts):
        init = _plus_plus_init(x, model.k, model._rng)
        labels, centroids, inertia, n_iter, converged = _lloyd(
            x, init, model.max_iter, model.tol
        )
        if best is None or inertia < best.inertia:
            best = KMeansResult(
                labels=labels,
                centroids=centroids,
                inertia=inertia,
                n_iter=n_iter,
                converged=converged,
            )
    return best


def assert_same_fit(got, want):
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.labels.dtype == want.labels.dtype
    assert got.centroids.shape == want.centroids.shape
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert float_bits(got.inertia) == float_bits(want.inertia)
    assert got.n_iter == want.n_iter
    assert got.converged == want.converged


@st.composite
def fit_cases(draw):
    n = draw(st.integers(4, 60))
    d = draw(st.integers(1, 16))
    k = draw(st.integers(2, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    shape = draw(st.sampled_from(["plain", "duplicates", "rounded"]))
    if shape == "duplicates":
        x = x[rng.integers(max(2, n // 3), size=n)]
    elif shape == "rounded":
        x = np.round(x * 2) / 2
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "strided":
        wide = np.zeros((n, 2 * d))
        wide[:, ::2] = x
        x = wide[:, ::2]
    model = KMeans(
        k=k,
        n_restarts=draw(st.integers(1, 10)),
        max_iter=draw(st.sampled_from([1, 2, 3, 300])),
        seed=draw(st.integers(0, 2 ** 31 - 1)),
    )
    return model, x


class TestLockstepOracle:
    """The lockstep fit equals the per-restart fit bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=fit_cases())
    def test_matches_per_restart_fit(self, case):
        model, x = case
        oracle = KMeans(k=model.k, n_restarts=model.n_restarts,
                        max_iter=model.max_iter, seed=model.seed)
        for _ in range(2):  # a second fit continues the same stream
            assert_same_fit(model.fit(x), reference_fit(oracle, x))
            assert (model._rng.bit_generator.state
                    == oracle._rng.bit_generator.state)

    def test_all_covered_rows_rewind_to_serial_seeding(self):
        # Three distinct rows and k=4: the fourth seeding step finds every
        # point covered and draws integers(n) instead of random().
        x = np.repeat(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 4, axis=0)
        model = KMeans(k=4, n_restarts=5, seed=9)
        oracle = KMeans(k=4, n_restarts=5, seed=9)
        assert_same_fit(model.fit(x), reference_fit(oracle, x))
        assert model._rng.bit_generator.state == oracle._rng.bit_generator.state

    def test_one_column_keeps_pairwise_mean(self):
        # One column is where numpy's mean sums pairwise, not row by row.
        x = np.random.default_rng(4).normal(size=(41, 1)) * 1e3
        for k in (2, 3, 7):
            model = KMeans(k=k, seed=k)
            oracle = KMeans(k=k, seed=k)
            assert_same_fit(model.fit(x), reference_fit(oracle, x))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2 ** 31 - 1),
           zeros=st.booleans())
    def test_inlined_draw_matches_rng_choice(self, n, seed, zeros):
        # _d2_pick is Generator.choice(n, p=...) unrolled; a numpy whose
        # choice draws or rounds differently must fail here.
        weights = np.random.default_rng(seed).random(n)
        if zeros:
            weights[::2] = 0.0
        probs = weights / weights.sum()
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        want = int(a.choice(n, p=probs))
        got = int(_d2_pick(weights[None], np.array([b.random()]))[0])
        assert got == want
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_raises(self, bad):
        x = np.random.default_rng(0).normal(size=(8, 3))
        x[5, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(x, 3)

    def test_overflowing_rows_raise(self):
        # Finite rows whose squares and column sums overflow: the
        # per-restart fit raised here (inside rng.choice), and so does
        # the lockstep one.
        x = np.array([[1.5e308, 0.0]] * 3 + [[-1.0, 1.0]] * 3)
        oracle = KMeans(k=2, n_restarts=1)
        with pytest.raises(ValueError):
            reference_fit(oracle, x)
        with pytest.raises(ValueError):
            kmeans(x, 2, n_restarts=1)


@st.composite
def stack_cases(draw):
    n = draw(st.integers(4, 24))
    d = draw(st.sampled_from([1, 1, 2, 3, 8, 14]))
    k = draw(st.integers(2, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    xs = []
    for _ in range(draw(st.integers(1, 12))):
        x = rng.normal(size=(n, d)) * scale
        shape = draw(st.sampled_from(["plain", "plain", "duplicates",
                                      "rounded"]))
        if shape == "duplicates":
            x = x[rng.integers(max(2, n // 3), size=n)]
        elif shape == "rounded":
            x = np.round(x * 2) / 2
        xs.append(x)
    if draw(st.booleans()):
        # At most k - 1 distinct rows, on a half-integer grid so their
        # distances are exact zeros: seeding finds every point covered
        # before its k-th centroid.
        rows = np.round(rng.normal(size=(k - 1, d)) * 4) / 2
        xs.insert(draw(st.integers(0, len(xs))),
                  rows[rng.integers(k - 1, size=n)])
    return xs, dict(k=k, seed=draw(st.integers(0, 2 ** 31 - 1)),
                    n_restarts=draw(st.integers(1, 10)),
                    max_iter=draw(st.sampled_from([1, 2, 3, 300])))


class TestCandidateStackOracle:
    """fit_stack equals one KMeans(k, seed, n_restarts).fit(x) per
    candidate bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=stack_cases())
    def test_matches_per_candidate_fit(self, case):
        xs, params = case
        got = fit_stack(xs, **params)
        assert len(got) == len(xs)
        for result, x in zip(got, xs):
            assert_same_fit(result, KMeans(**params).fit(x))

    def test_all_covered_candidate_falls_back_alone(self, monkeypatch):
        # 40 candidates of 4 restarts span two lockstep blocks; the one
        # with two distinct rows (k=3), whose distances are exact zeros,
        # sits in the second.
        rng = np.random.default_rng(2)
        xs = [rng.normal(size=(12, 3)) for _ in range(40)]
        xs[37] = np.repeat(np.eye(2, 3), 6, axis=0)
        alone = []
        real = KMeans.fit

        def fit(model, x):
            alone.append(np.array(x))
            return real(model, x)

        monkeypatch.setattr(KMeans, "fit", fit)
        got = fit_stack(xs, k=3, seed=11, n_restarts=4)
        assert [x.tobytes() for x in alone] == [xs[37].tobytes()]
        monkeypatch.setattr(KMeans, "fit", real)
        for result, x in zip(got, xs):
            assert_same_fit(result, KMeans(k=3, seed=11,
                                           n_restarts=4).fit(x))

    def test_one_column_candidates(self):
        rng = np.random.default_rng(8)
        xs = [rng.normal(size=(9, 1)) * 1e3 for _ in range(6)]
        for k in (2, 4, 8):
            for result, x in zip(fit_stack(xs, k=k, seed=k), xs):
                assert_same_fit(result, KMeans(k=k, seed=k).fit(x))

    def test_k1_and_bad_stacks(self):
        xs = [np.arange(8.0).reshape(4, 2), np.ones((4, 2))]
        for result, x in zip(fit_stack(xs, k=1), xs):
            assert_same_fit(result, KMeans(k=1).fit(x))
        with pytest.raises(ValueError, match="cannot form"):
            fit_stack(xs, k=5)
        with pytest.raises(ValueError):
            fit_stack([np.zeros((4, 2)), np.zeros((5, 2))], k=2)
        with pytest.raises(ValueError, match="2-D"):
            fit_stack([np.zeros(4)], k=2)
        bad = np.ones((4, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_stack([np.eye(4, 2), bad], k=2)
