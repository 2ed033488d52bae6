"""Tests for repro.workloads.generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import (
    KERNELS,
    biased_branches,
    fresh_pages,
    generate_addresses,
    generate_branches,
    hot_cold,
    loop_branches,
    page_stride,
    pointer_chase,
    random_branches,
    random_uniform,
    sequential_stream,
    stencil2d,
    zipfian,
)

MB = 1024 * 1024


class TestSequentialStream:
    def test_unit_stride(self):
        rng = np.random.default_rng(0)
        addrs = sequential_stream(10, rng, working_set=MB)
        np.testing.assert_array_equal(np.diff(addrs), 64)

    def test_wraps_at_working_set(self):
        rng = np.random.default_rng(0)
        addrs = sequential_stream(100, rng, working_set=64 * 16)
        assert addrs.max() < 64 * 16

    def test_cursor_continues(self):
        rng = np.random.default_rng(0)
        cursor = {}
        a = sequential_stream(5, rng, working_set=MB, cursor=cursor)
        b = sequential_stream(5, rng, working_set=MB, cursor=cursor)
        assert b[0] == a[-1] + 64

    def test_base_offset(self):
        rng = np.random.default_rng(0)
        addrs = sequential_stream(5, rng, working_set=MB, base=1 << 30)
        assert addrs.min() >= 1 << 30


class TestRandomUniform:
    def test_within_working_set(self):
        rng = np.random.default_rng(1)
        addrs = random_uniform(1000, rng, working_set=2 * MB)
        assert addrs.min() >= 0
        assert addrs.max() < 2 * MB

    def test_line_aligned(self):
        rng = np.random.default_rng(1)
        addrs = random_uniform(100, rng, working_set=MB)
        assert np.all(addrs % 64 == 0)

    def test_covers_many_lines(self):
        rng = np.random.default_rng(2)
        addrs = random_uniform(5000, rng, working_set=MB)
        assert np.unique(addrs).size > 1000


class TestZipfian:
    def test_skewed_popularity(self):
        rng = np.random.default_rng(3)
        addrs = zipfian(20_000, rng, working_set=4 * MB, alpha=1.2)
        _, counts = np.unique(addrs, return_counts=True)
        counts = np.sort(counts)[::-1]
        # Top 10% of lines take far more than 10% of accesses.
        top = counts[: max(1, counts.size // 10)].sum()
        assert top / counts.sum() > 0.4

    def test_higher_alpha_more_skew(self):
        rng = np.random.default_rng(4)

        def top_share(alpha):
            a = zipfian(20_000, np.random.default_rng(4), 4 * MB, alpha=alpha)
            _, c = np.unique(a, return_counts=True)
            c = np.sort(c)[::-1]
            return c[:10].sum() / c.sum()

        assert top_share(1.5) > top_share(0.7)

    def test_within_bounds(self):
        rng = np.random.default_rng(5)
        addrs = zipfian(1000, rng, working_set=MB)
        assert addrs.max() < MB

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           calls=st.lists(st.tuples(st.sampled_from([0, 1, 2]),
                                    st.integers(1, 300)),
                          min_size=1, max_size=6))
    def test_cursor_cdf_is_bitwise_cursorless(self, seed, calls):
        # (slots, alpha) keys that share a slot count or an alpha share
        # one cursor; each call must equal the cursor-less call from the
        # same RNG state, bit for bit.
        keys = [dict(working_set=64 * 1000, alpha=1.1),
                dict(working_set=64 * 1000, alpha=0.7),
                dict(working_set=64 * 37, alpha=1.1)]
        with_cursor = np.random.default_rng(seed)
        without = np.random.default_rng(seed)
        cursor = {}
        for which, n in calls:
            got = zipfian(n, with_cursor, cursor=cursor, **keys[which])
            want = zipfian(n, without, **keys[which])
            assert got.tobytes() == want.tobytes()
        assert len(cursor) == len({which for which, _ in calls})


class TestPointerChase:
    def test_deterministic_walk(self):
        cursor = {}
        rng = np.random.default_rng(6)
        a = pointer_chase(50, rng, working_set=64 * 256, cursor=cursor)
        # The chase visits distinct slots until the cycle closes.
        assert np.unique(a).size == 50

    def test_cursor_resumes_walk(self):
        rng = np.random.default_rng(7)
        cursor = {}
        a = pointer_chase(10, rng, working_set=64 * 128, cursor=cursor)
        b = pointer_chase(10, rng, working_set=64 * 128, cursor=cursor)
        # Continuation: no repeats until the 128-slot cycle wraps.
        assert np.intersect1d(a, b).size == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), slots=st.integers(2, 400),
           splits=st.lists(st.integers(1, 200), min_size=1, max_size=6))
    def test_split_walk_matches_one_walk_and_reference(self, seed, slots,
                                                       splits):
        ws = 64 * slots
        cursor = {}
        rng = np.random.default_rng(seed)
        split = np.concatenate([pointer_chase(n, rng, ws, cursor=cursor)
                                for n in splits])
        whole = pointer_chase(sum(splits), np.random.default_rng(seed), ws)
        assert split.tobytes() == whole.tobytes()
        # Reference walk over a Python list of the same permutation.
        perm = np.random.default_rng(seed).permutation(slots).tolist()
        pos, ref = perm[0], []
        for _ in range(sum(splits)):
            ref.append(pos)
            pos = perm[pos]
        np.testing.assert_array_equal(split, np.array(ref) * 64)

    def test_no_self_loop_start(self):
        rng = np.random.default_rng(8)
        a = pointer_chase(20, rng, working_set=64 * 64)
        assert np.unique(a).size > 1


class TestHotCold:
    def test_hot_region_dominates(self):
        rng = np.random.default_rng(9)
        addrs = hot_cold(10_000, rng, hot_bytes=64 * 1024,
                         cold_bytes=16 * MB, hot_fraction=0.9)
        hot = (addrs < 64 * 1024).mean()
        assert 0.85 < hot < 0.95

    def test_cold_region_reached(self):
        rng = np.random.default_rng(10)
        addrs = hot_cold(10_000, rng, hot_bytes=64 * 1024,
                         cold_bytes=16 * MB, hot_fraction=0.5)
        assert addrs.max() > 64 * 1024


class TestStencil2d:
    def test_five_point_pattern(self):
        rng = np.random.default_rng(11)
        addrs = stencil2d(5, rng, rows=16, cols=16, element_bytes=8)
        # First group: centre (0,0) + N,S,W,E with wraparound.
        centre = addrs[0]
        assert centre == 0
        assert addrs.shape[0] == 5

    def test_cursor_advances(self):
        rng = np.random.default_rng(12)
        cursor = {}
        a = stencil2d(5, rng, rows=16, cols=16, cursor=cursor)
        b = stencil2d(5, rng, rows=16, cols=16, cursor=cursor)
        assert b[0] != a[0]

    def test_bounded_by_grid(self):
        rng = np.random.default_rng(13)
        addrs = stencil2d(1000, rng, rows=32, cols=32, element_bytes=8)
        assert addrs.max() < 32 * 32 * 8


class TestPageKernels:
    def test_page_stride_one_access_per_page(self):
        rng = np.random.default_rng(14)
        addrs = page_stride(100, rng, working_set=100 * 4096)
        pages = addrs // 4096
        assert np.unique(pages).size == 100

    def test_fresh_pages_never_repeat(self):
        rng = np.random.default_rng(15)
        cursor = {}
        a = fresh_pages(50, rng, cursor=cursor)
        b = fresh_pages(50, rng, cursor=cursor)
        assert np.intersect1d(a // 4096, b // 4096).size == 0


class TestGenerateAddresses:
    def test_dispatch_all_kernels(self):
        rng = np.random.default_rng(16)
        params = {
            "sequential_stream": {"working_set": MB},
            "random_uniform": {"working_set": MB},
            "zipfian": {"working_set": MB},
            "pointer_chase": {"working_set": MB},
            "hot_cold": {"hot_bytes": 64 * 1024, "cold_bytes": MB},
            "stencil2d": {"rows": 64, "cols": 64},
            "gather_scatter": {"index_bytes": MB, "data_bytes": MB},
            "page_stride": {"working_set": MB},
            "fresh_pages": {},
        }
        assert set(params) == set(KERNELS)
        for kernel, p in params.items():
            out = generate_addresses(kernel, 64, rng, p, cursor={})
            assert out.shape == (64,)
            assert out.dtype == np.int64
            assert np.all(out >= 0)

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            generate_addresses("nope", 10, np.random.default_rng(0), {})

    def test_zero_count(self):
        out = generate_addresses("random_uniform", 0,
                                 np.random.default_rng(0),
                                 {"working_set": MB})
        assert out.shape == (0,)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            generate_addresses("random_uniform", -1,
                               np.random.default_rng(0),
                               {"working_set": MB})


class TestBranchModels:
    def test_biased_taken_rate(self):
        rng = np.random.default_rng(17)
        _, taken = biased_branches(10_000, rng, n_sites=32, taken_prob=0.8)
        assert 0.7 < taken.mean() < 0.9

    def test_loop_pattern(self):
        rng = np.random.default_rng(18)
        _, taken = loop_branches(27, rng, body=8)
        np.testing.assert_array_equal(
            taken[:9], [True] * 8 + [False]
        )

    def test_random_branches_unbiased(self):
        rng = np.random.default_rng(19)
        _, taken = random_branches(10_000, rng, taken_prob=0.5)
        assert 0.45 < taken.mean() < 0.55

    def test_site_base_offsets_sites(self):
        rng = np.random.default_rng(20)
        sites, _ = biased_branches(100, rng, n_sites=8, site_base=1000)
        assert sites.min() >= 1000

    def test_dispatch(self):
        rng = np.random.default_rng(21)
        sites, taken = generate_branches("loop", 10, rng, {"body": 3})
        assert sites.shape == taken.shape == (10,)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown branch model"):
            generate_branches("nope", 10, np.random.default_rng(0), {})

    def test_zero_branches(self):
        for model in ("biased", "loop", "random"):
            sites, taken = generate_branches(model, 0,
                                             np.random.default_rng(0), {})
            assert sites.shape == (0,)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 500))
    def test_property_shapes_consistent(self, seed, n):
        rng = np.random.default_rng(seed)
        for model in ("biased", "loop", "random"):
            sites, taken = generate_branches(model, n, rng, {})
            assert sites.shape == (n,)
            assert taken.shape == (n,)
            assert sites.dtype == np.int64
