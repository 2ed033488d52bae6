"""Tests for the on-disk cache tier: bit-exact round-trips, corrupt
entries and entries written by other code, atomic writes, LRU eviction,
and its wiring into KernelCache/Engine."""

import json
import os

import numpy as np
import pytest

from repro.core.matrix import CounterMatrix
from repro.engine import MISS, DiskCache, KernelCache, content_key
from repro.engine.diskcache import (
    decode,
    encode,
    source_digest,
    stale_artifacts,
)

from tests.test_engine import fixture_matrix


def _key(*parts):
    return content_key("test-kernel", *parts)


def _count(cache, name):
    return cache.metrics.counter(name).value


#: A digest no source tree hashes to.
OTHER_SOURCE = "0" * 64


class TestRoundTrip:
    def test_float_bit_exact(self, tmp_path):
        cache = DiskCache(tmp_path)
        for value in (0.1 + 0.2, -0.0, float("nan"), float("inf"),
                      np.nextafter(1.0, 2.0)):
            key = _key("f", repr(value))
            assert cache.put(key, value)
            out = cache.get(key)
            assert isinstance(out, float)
            assert np.float64(out).tobytes() == np.float64(value).tobytes()

    def test_int_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.put(_key("i"), 12345)
        out = cache.get(_key("i"))
        assert out == 12345 and isinstance(out, int)

    def test_array_bit_exact(self, tmp_path):
        cache = DiskCache(tmp_path)
        a = np.random.default_rng(0).uniform(size=(7, 5))
        a[0, 0] = np.nan
        assert cache.put(_key("a"), a)
        out = cache.get(_key("a"))
        assert out.dtype == a.dtype and out.shape == a.shape
        assert out.tobytes() == a.tobytes()

    def test_array_seq_preserves_container_type(self, tmp_path):
        cache = DiskCache(tmp_path)
        arrays = [np.arange(4, dtype=float), np.ones((2, 3))]
        assert cache.put(_key("l"), arrays)
        assert cache.put(_key("t"), tuple(arrays))
        out_list = cache.get(_key("l"))
        out_tuple = cache.get(_key("t"))
        assert isinstance(out_list, list) and isinstance(out_tuple, tuple)
        for got, want in zip(list(out_list) + list(out_tuple), arrays * 2):
            assert got.tobytes() == want.tobytes()

    def test_counter_matrix_round_trip(self, tmp_path):
        cache = DiskCache(tmp_path)
        matrix = fixture_matrix(seed=2)
        assert cache.put(_key("m"), matrix)
        out = cache.get(_key("m"))
        assert isinstance(out, CounterMatrix)
        assert out.workloads == matrix.workloads
        assert out.events == matrix.events
        assert out.suite_name == matrix.suite_name
        assert out.values.tobytes() == matrix.values.tobytes()
        for event in matrix.events:
            for a, b in zip(out.series[event], matrix.series[event]):
                assert a.tobytes() == b.tobytes()

    def test_unsupported_values_are_skipped(self, tmp_path):
        cache = DiskCache(tmp_path)
        for value in (True, "a string", {"dict": 1}, object(),
                      [np.ones(2), "mixed"],
                      np.array([None, object()], dtype=object)):
            assert not cache.put(_key("u", repr(type(value))), value)
        assert encode(object()) is None
        assert _count(cache, "disk_writes") == 0

    def test_unknown_payload_type_raises(self):
        with pytest.raises(ValueError, match="payload type"):
            decode({"type": "mystery"}, [])


class TestRobustness:
    def test_miss_on_absent_key(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get(_key("absent")) is MISS
        assert _count(cache, "disk_misses") == 1

    def test_corrupt_entry_is_miss_and_deleted(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = _key("c")
        cache.put(key, np.ones(8))
        path = cache._path(key)
        with open(path, "wb") as f:
            f.write(b"garbage that is not a header\n")
        assert cache.get(key) is MISS
        assert not os.path.exists(path)  # cannot fail twice

    def test_truncated_entry_is_miss_and_deleted(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = _key("trunc")
        cache.put(key, np.arange(64, dtype=float))
        path = cache._path(key)
        with open(path, "rb") as f:
            payload = f.read()
        with open(path, "wb") as f:
            f.write(payload[:len(payload) // 2])
        assert cache.get(key) is MISS
        assert not os.path.exists(path)

    def test_version_mismatch_is_miss(self, tmp_path):
        # An entry whose header carries another source digest was
        # written by other code: a miss, deleted, rewritten by the next
        # put.
        cache = DiskCache(tmp_path)
        key = _key("v")
        cache.put(key, 1.5)
        path = cache._path(key)
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            rest = f.read()
        assert header["version"] == source_digest()
        header["version"] = OTHER_SOURCE
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n" + rest)
        assert cache.get(key) is MISS
        assert not os.path.exists(path)
        assert cache.put(key, 1.5)
        assert cache.get(key) == 1.5

    def test_put_same_key_twice_is_noop(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = _key("dup")
        assert cache.put(key, 1.0)
        assert not cache.put(key, 1.0)  # content-addressed: same bytes
        assert _count(cache, "disk_writes") == 1

    def test_no_tmp_files_after_writes(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(5):
            cache.put(_key("w", i), np.ones(16) * i)
        assert stale_artifacts(tmp_path) == []

    def test_stale_artifacts_finds_orphans(self, tmp_path):
        orphan = tmp_path / "entries" / "ab" / ".dead.123.tmp"
        orphan.parent.mkdir(parents=True)
        orphan.write_bytes(b"half-written")
        assert stale_artifacts(tmp_path) == [str(orphan)]

    def test_invalid_max_bytes_raises(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            DiskCache(tmp_path, max_bytes=0)


class TestEviction:
    def test_lru_evicts_oldest_first(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=4096)
        keys = [_key("e", i) for i in range(6)]
        for i, key in enumerate(keys):
            cache.put(key, np.ones(128) * i)  # ~1 KiB each
            path = cache._path(key)
            if os.path.exists(path):  # may already be evicted
                os.utime(path, (i + 1, i + 1))
        assert _count(cache, "disk_evictions") > 0
        # the newest entries survive, the oldest were evicted
        assert cache.get(keys[-1]) is not MISS
        assert cache.get(keys[0]) is MISS

    def test_hit_touches_entry_for_lru(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = _key("touch")
        cache.put(key, 2.0)
        os.utime(cache._path(key), (1, 1))
        before = os.stat(cache._path(key)).st_mtime
        assert cache.get(key) == 2.0
        assert os.stat(cache._path(key)).st_mtime > before

    def test_reput_touches_entry_for_lru(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = _key("retouch")
        cache.put(key, 2.0)
        os.utime(cache._path(key), (1, 1))
        before = os.stat(cache._path(key)).st_mtime
        assert not cache.put(key, 2.0)  # still no rewrite...
        assert _count(cache, "disk_writes") == 1
        assert os.stat(cache._path(key)).st_mtime > before  # ...but a use

    def test_reput_protects_hot_entry_from_eviction(self, tmp_path):
        # A key recomputed (and re-put) by a second process is hot and
        # must outlive an entry nobody has used since it was written.
        cache = DiskCache(tmp_path)
        hot, cold = _key("hot"), _key("cold")
        cache.put(hot, np.ones(128))
        cache.put(cold, np.ones(128) * 2)
        os.utime(cache._path(hot), (1, 1))  # hot is the older file...
        os.utime(cache._path(cold), (2, 2))
        assert not cache.put(hot, np.ones(128))  # ...but just re-put
        size = os.path.getsize(cache._path(hot))
        cache.max_bytes = int(size * 2.5)  # a third entry overflows
        cache.put(_key("third"), np.ones(128) * 3)
        assert _count(cache, "disk_evictions") == 1
        assert cache.get(hot) is not MISS
        assert cache.get(cold) is MISS


class TestKernelCacheIntegration:
    def test_memory_miss_falls_through_to_disk(self, tmp_path):
        disk = DiskCache(tmp_path)
        key = _key("k")
        disk.put(key, 4.25)
        cache = KernelCache(disk=disk)
        assert cache.lookup(key) == 4.25
        assert _count(disk, "disk_hits") == 1
        # promoted: a second lookup is a memory hit, not a disk hit
        assert cache.lookup(key) == 4.25
        assert _count(disk, "disk_hits") == 1

    def test_put_writes_through_to_disk(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = KernelCache(disk=disk)
        cache.put(_key("wt"), 7.5)
        fresh = KernelCache(disk=DiskCache(tmp_path))
        assert fresh.lookup(_key("wt")) == 7.5

    def test_disk_false_keeps_entry_memory_only(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = KernelCache(disk=disk)
        cache.put(_key("mem"), 1.25, disk=False)
        assert _count(disk, "disk_writes") == 0
        assert DiskCache(tmp_path).get(_key("mem")) is MISS

    def test_get_or_compute_prefers_disk_over_compute(self, tmp_path):
        disk = DiskCache(tmp_path)
        key = _key("goc")
        disk.put(key, 9.0)
        cache = KernelCache(disk=disk)
        calls = []

        def compute():
            calls.append(1)
            return -1.0

        assert cache.get_or_compute(key, compute) == 9.0
        assert calls == []


def _concurrent_putter(args):
    """Child-process worker: open the tier fresh and write the shared
    key plus one private key (fork-safe: builds its own DiskCache)."""
    root, worker = args
    cache = DiskCache(root)
    shared = _key("shared")
    cache.put(shared, np.arange(16.0))
    cache.put(_key("private", worker), float(worker))
    value = cache.get(shared)
    return value is not MISS and value.tobytes() == \
        np.arange(16.0).tobytes()


class TestConcurrency:
    def test_multiprocess_same_key_puts_are_safe(self, tmp_path):
        """Several processes hammering one key: every reader sees the
        bit-exact value, no entry is corrupted, no tmp orphan stays."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        with context.Pool(4) as pool:
            ok = pool.map(_concurrent_putter,
                          [(str(tmp_path), w) for w in range(8)])
        assert all(ok)
        cache = DiskCache(tmp_path)
        assert cache.get(_key("shared")).tobytes() == \
            np.arange(16.0).tobytes()
        for worker in range(8):
            assert cache.get(_key("private", worker)) == float(worker)
        assert stale_artifacts(tmp_path) == []

    def test_racing_rename_is_conceded_not_raised(self, tmp_path,
                                                  monkeypatch):
        """If another writer's entry lands during our rename, the loss
        is conceded: no exception, no tmp orphan, a race counter tick,
        and the winning entry stays readable."""
        cache = DiskCache(tmp_path)
        real_replace = os.replace

        def racing_replace(src, dst):
            # The "other" writer commits the same bytes first, then our
            # rename fails -- the worst-case interleaving.
            real_replace(src, dst)
            raise OSError("simulated racing rename")

        monkeypatch.setattr(os, "replace", racing_replace)
        key = _key("raced")
        assert cache.put(key, np.arange(4.0)) is False
        monkeypatch.setattr(os, "replace", real_replace)
        races = cache.metrics.snapshot().as_dict()["disk_put_races"]
        assert races == 1
        assert cache.get(key).tobytes() == np.arange(4.0).tobytes()
        assert stale_artifacts(tmp_path) == []

    def test_transient_rename_failure_is_retried(self, tmp_path,
                                                 monkeypatch):
        """A rename hiccup with no competing entry (network fs blip)
        retries and the put still lands."""
        cache = DiskCache(tmp_path)
        real_replace = os.replace
        attempts = []

        def flaky_replace(src, dst):
            if not attempts:
                attempts.append("failed")
                raise OSError("simulated transient failure")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        key = _key("flaky")
        assert cache.put(key, 1.5) is True
        assert attempts == ["failed"]
        assert cache.get(key) == 1.5
        assert stale_artifacts(tmp_path) == []

    def test_writer_tags_are_unique_per_call(self):
        from repro.engine.diskcache import _writer_tag

        tags = {_writer_tag() for _ in range(10)}
        assert len(tags) == 10
        assert all(f"-{os.getpid()}-" in tag for tag in tags)


def _scorecard():
    from repro.core.report import SuiteScorecard
    from repro.service.protocol import ServedCoverage, ServedDetail

    return SuiteScorecard(
        suite_name="s", focus="all", cluster=0.1 + 0.2, trend=-0.0,
        coverage=float("nan"), spread=1e-300,
        details={
            "cluster": ServedDetail(per_k={2: 0.25, 3: float("nan")}),
            "trend": ServedDetail(per_event={"ipc": 1.5}),
            "spread": ServedDetail(per_item={"w0": 0.125}),
            "coverage": ServedCoverage(n_components=2,
                                       component_variances=(0.9, 0.1)),
        },
    )


def _rewrite_header(edit):
    """A corruption that edits a stored entry's parsed JSON header."""
    def corrupt(raw):
        line, _, rest = raw.partition(b"\n")
        header = json.loads(line)
        edit(header)
        return json.dumps(header).encode() + b"\n" + rest
    return corrupt


def _card_field(path, value=None):
    """Replace (or, with ``value=None``, delete) one field of the stored
    scorecard record."""
    def edit(header):
        node = header["meta"]["card"]
        for part in path[:-1]:
            node = node[part]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return _rewrite_header(edit)


#: Damaged scorecard entries: each must read as a miss and be deleted.
BAD_ENTRIES = {
    "truncated": lambda raw: raw[:len(raw) // 2],
    "empty": lambda raw: b"",
    "non-json-header": lambda raw: b"{not json\n",
    "bad-magic": _rewrite_header(
        lambda h: h.update(magic="not-repro")),
    "wrong-version": _rewrite_header(
        lambda h: h.update(version=OTHER_SOURCE)),
    "non-hex-score-bits": _card_field(("score_bits", "cluster"), "zz" * 8),
    "short-score-bits": _card_field(("score_bits", "trend"), "00ff"),
    "non-hex-per-k-bits": _card_field(
        ("details", "cluster", "per_k_bits", "2"), "not hex!"),
    "non-hex-coverage-bits": _card_field(
        ("details", "coverage", "component_variance_bits"), ["xyz"]),
    "missing-score": _card_field(("score_bits", "spread")),
    "missing-details": _card_field(("details",)),
    "missing-suite": _card_field(("suite",)),
    "missing-per-event-map": _card_field(
        ("details", "trend", "per_event_bits")),
    "missing-card": _rewrite_header(lambda h: h["meta"].pop("card")),
}


def _entry_paths(root):
    return [os.path.join(d, f) for d, _, files in os.walk(root)
            for f in files]


def _header(path):
    with open(path, "rb") as f:
        return json.loads(f.readline())


class TestScorecardEntries:
    def test_round_trip_is_bit_exact_with_no_arrays(self, tmp_path):
        from repro.qa.determinism import diff_scorecards

        card = _scorecard()
        cache = DiskCache(tmp_path)
        key = _key("card")
        assert cache.put(key, card)
        meta, arrays = encode(card)
        assert meta["type"] == "scorecard" and arrays == []
        back = cache.get(key)
        assert diff_scorecards(card, back) == []
        assert str(back) == str(card)

    @pytest.mark.parametrize("damage", sorted(BAD_ENTRIES))
    def test_damaged_entry_is_miss_and_deleted(self, tmp_path, damage):
        cache = DiskCache(tmp_path)
        key = _key("card", damage)
        cache.put(key, _scorecard())
        path = cache._path(key)
        with open(path, "rb") as f:
            raw = f.read()
        with open(path, "wb") as f:
            f.write(BAD_ENTRIES[damage](raw))
        assert cache.get(key) is MISS
        assert _count(cache, "disk_misses") == 1
        assert _count(cache, "disk_hits") == 0
        assert not os.path.exists(path)  # cannot fail twice

    def test_corrupt_entry_falls_through_to_recomputation(self, tmp_path,
                                                          capsys):
        from repro.cli import main

        argv = ["--quick", "score", "nbench", "--focus", "llc",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        [entry] = [path for path in _entry_paths(tmp_path)
                   if _header(path)["meta"]["type"] == "scorecard"]
        with open(entry, "rb") as f:
            raw = f.read()
        with open(entry, "wb") as f:
            f.write(BAD_ENTRIES["non-hex-score-bits"](raw))
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        with open(entry, "rb") as f:
            assert f.read() == raw  # recomputed and stored again
