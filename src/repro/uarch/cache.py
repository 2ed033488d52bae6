"""Set-associative cache model.

Exact state-machine simulation of one cache level: addresses are split
into tag / set-index / line-offset, each set holds up to ``associativity``
tags, and a victim is chosen by the configured replacement policy on a
fill. Writes are modelled as write-allocate (a store miss fills the line),
matching the inclusive write-back hierarchy of the Coffee Lake part in
Table II closely enough for event counting.

The state is three ``(n_sets, ways)`` arrays: the tag in each way (-1
marks an empty way), a stamp from a per-cache clock, and a dirty bit.
The stamp is the fill time, and under LRU also the time of the last
demand hit, so eviction order is stamp order under every policy: LRU
and FIFO evict the row's smallest stamp, and ``random`` draws a
position in stamp order. Empty ways carry stamp -1, so a fill takes one
before evicting. Dirty lines are tracked so evictions count write-back
transactions.

A ``random`` victim is a pure function of the cache's seed, the set and
how many victims that set has drawn before (:func:`victim_positions`),
so the draws do not depend on the order in which sets are visited.

:meth:`SetAssociativeCache.run_ops` runs a stream of ops through one
of two kernels, with the same hits, counters and state either way. The
round kernel serves every stream and every policy: the ordered demand
and prefetch ops are sorted by set, and the ops of every set are
processed in rounds, the *r*-th op of each set in round *r*. Ops in one
round touch distinct sets, so they commute, and each set still sees its
ops in stream order. A demand-only LRU stream whose busiest set holds
more than twice ``ways`` ops, which would take that many rounds, goes
to the LRU stack pass instead: one vectorized step per stack depth,
``ways`` steps over the whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.uarch.config import CacheConfig

#: Most accesses the TLB and branch loops turn into Python lists at
#: once; bounds their transient memory.
CHUNK = 1024

#: Largest stamp; stamps are int32, renumbered before the clock passes it.
STAMP_LIMIT = 2**31 - 1

#: Most ops one round-kernel call sorts into rounds; bounds its
#: transient arrays to 32 KiB each. Whole warm-up intervals (up to ~18k
#: ops at the L2) left ~1.6 MB more heap behind on a cold ``score
#: nbench`` than the arrays' own size, through allocator fragmentation.
#: The LRU stack pass takes whole streams: in pieces of this size it
#: read more peak RSS, not less (DESIGN.md §5).
ROUNDS_CHUNK = 4096

#: SplitMix64's stream increment and finalizer multipliers (Steele,
#: Lea and Flood, "Fast Splittable Pseudorandom Number Generators",
#: OOPSLA 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def as_batch(addrs, writes=None):
    """``(addrs, writes)`` as aligned arrays; ``writes`` defaults to
    all-loads. Integer addresses must be byte addresses in ``[0,
    2**63)``; unsigned ones come back as ``int64``."""
    addrs = np.asarray(addrs)
    check_addresses(addrs, "addrs")
    if addrs.dtype.kind == "u":
        addrs = addrs.astype(np.int64)
    n = addrs.shape[0]
    if writes is None:
        return addrs, np.zeros(n, dtype=bool)
    writes = np.asarray(writes, dtype=bool)
    if writes.shape[0] != n:
        raise ValueError(
            f"writes length {writes.shape[0]} != addrs length {n}"
        )
    return addrs, writes


def check_addresses(addrs, name):
    """Raise one :class:`ValueError` naming ``name`` if an integer
    address array holds a value outside ``[0, 2**63)``. A negative
    address would have a negative tag, and -1 marks an empty way."""
    if (addrs.size and addrs.dtype.kind in "iu"
            and not 0 <= addrs.min() <= addrs.max() < 2**63):
        raise ValueError(f"{name} must be byte addresses in [0, 2**63)")


def _mix(z):
    """SplitMix64's finalizer, a bijection of ``uint64`` arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def victim_positions(seed, sets, draws, n_ways):
    """The ``random`` victim of each of ``sets``: a position in the full
    row's stamp order, below ``n_ways``.

    Each set of a cache seeded ``seed`` is its own SplitMix64 stream,
    and a set that has drawn ``draws`` victims before takes that
    stream's next output. This is counter-based generation (Salmon et
    al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011): a draw
    depends on no other set's, so any evaluation order gives the same
    victims."""
    sets = np.asarray(sets).astype(np.uint64)
    draws = np.asarray(draws, dtype=np.uint64)
    with np.errstate(over="ignore"):
        stream = _mix(np.uint64(seed % 2**64) + sets * _GAMMA)
        out = _mix(stream + (draws + np.uint64(1)) * _GAMMA)
    return (out % np.uint64(n_ways)).astype(np.intp)


def _stable_argsort(keys, bound):
    """Stable argsort of non-negative integer ``keys`` below ``bound``.
    Keys that fit 16 bits sort by radix, ~10x faster than int64."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _group_by_set(sets, n_sets):
    """``(order, sorted_sets, new_set)``: the stable order of ops by
    set, their sets in that order, and where each set's group starts."""
    order = _stable_argsort(sets, n_sets)
    sorted_sets = sets[order]
    new_set = np.empty(sets.shape[0], dtype=bool)
    new_set[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=new_set[1:])
    return order, sorted_sets, new_set


def _round_order(sets, n_sets):
    """``(ops, bounds)``: op indices in round-major order, round *r*
    holding the *r*-th op of every set in ``ops[bounds[r]:bounds[r +
    1]]``."""
    n = sets.shape[0]
    order, _, new_set = _group_by_set(sets, n_sets)
    set_start = np.flatnonzero(new_set)
    rank = np.arange(n) - np.repeat(set_start, np.diff(set_start, append=n))
    per_round = np.bincount(rank)
    ops = order[_stable_argsort(rank, per_round.shape[0])]
    return ops, np.concatenate(([0], np.cumsum(per_round)))


@dataclass
class CacheStats:
    """Running access counters for one cache level."""

    loads: int = 0
    stores: int = 0
    load_misses: int = 0
    store_misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self):
        return self.loads + self.stores

    @property
    def misses(self):
        return self.load_misses + self.store_misses

    @property
    def miss_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def snapshot(self):
        """Immutable copy of the current counters."""
        return CacheStats(
            loads=self.loads,
            stores=self.stores,
            load_misses=self.load_misses,
            store_misses=self.store_misses,
            evictions=self.evictions,
            writebacks=self.writebacks,
        )

    def add_batch(self, writes, hits):
        """Count one batch of demand accesses: ``writes`` marks stores
        and ``hits`` the accesses that hit."""
        n = writes.shape[0]
        stores = int(np.count_nonzero(writes))
        misses = n - int(np.count_nonzero(hits))
        store_misses = int(np.count_nonzero(writes & ~hits))
        self.loads += n - stores
        self.stores += stores
        self.load_misses += misses - store_misses
        self.store_misses += store_misses


class SetAssociativeCache:
    """One cache level.

    Parameters
    ----------
    config:
        Geometry and policy (:class:`repro.uarch.config.CacheConfig`).
    seed:
        Integer key of the ``random`` policy's victim draws; unused by
        LRU and FIFO. Defaults to 0 so replacement is deterministic.
    """

    def __init__(self, config: CacheConfig, seed=0):
        self.config = config
        self.stats = CacheStats()
        self._offset_bits = config.line_bytes.bit_length() - 1
        shape = (config.n_sets, config.associativity)
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._stamps = np.full(shape, -1, dtype=np.int32)
        self._dirty = np.zeros(shape, dtype=bool)
        self._clock = 0
        self._seed = int(seed)
        # Victims each set has drawn under ``random``.
        self._draws = np.zeros(config.n_sets, dtype=np.uint64)

    def _take_stamps(self, n):
        """The first of ``n`` fresh stamps. Stamps only order the ways
        of one set, so before the clock would pass :data:`STAMP_LIMIT`
        each row's stamps are renumbered to their ranks in the row."""
        if self._clock + n > STAMP_LIMIT:
            ranks = np.argsort(np.argsort(self._stamps, axis=1), axis=1)
            self._stamps = np.where(self._tags >= 0, ranks,
                                    -1).astype(np.int32)
            self._clock = self._stamps.shape[1]
        self._clock += n
        return self._clock - n

    def access_many(self, addrs, writes=None):
        """Access a vector of byte addresses in order.

        The demand-only case of :meth:`run_ops`.

        Parameters
        ----------
        addrs:
            Integer array of byte addresses.
        writes:
            Optional boolean array marking stores; all-loads if omitted.

        Returns
        -------
        numpy.ndarray
            Boolean hit mask, aligned with ``addrs``.
        """
        addrs, writes = as_batch(addrs, writes)
        return self.run_ops(addrs >> self._offset_bits, writes)

    def run_ops(self, lines, writes, prefetch=None):
        """Run an ordered stream of ops on line addresses through this
        level.

        A demand op (a load, or a store where ``writes`` is set) hits
        if its line is resident, restamping it under LRU and setting its
        dirty bit on a store; a miss fills the line (write-allocate),
        evicting per policy when the set is full. A prefetch op (where
        ``prefetch`` is set; its write flag must be clear) installs its
        line clean if absent and changes nothing if present: no stamp,
        no demand counter. Evictions and writebacks of both kinds are
        counted. A stream :meth:`_stack_pays` for takes the LRU stack
        pass, any other the round kernel in :data:`ROUNDS_CHUNK` pieces.

        Returns
        -------
        numpy.ndarray
            Per op, whether its line was resident before it: a demand
            hit, or a prefetch that installs nothing.
        """
        n = lines.shape[0]
        present = np.ones(n, dtype=bool)
        if n == 0:
            return present
        # A run of ops on one line acts like its first op with the
        # run's writes OR-ed together, as a demand op if it holds one:
        # the ops after the first find the line resident, and they can
        # only restamp the set's newest line or set its dirty bit.
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(lines[1:], lines[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        merged_lines = lines[starts]
        merged_writes = np.logical_or.reduceat(writes, starts)
        merged_prefetch = (None if prefetch is None
                           else np.logical_and.reduceat(prefetch, starts))
        if prefetch is None and self._stack_pays(merged_lines):
            present[starts] = self._lru_stack(merged_lines, merged_writes)
        else:
            for lo in range(0, starts.shape[0], ROUNDS_CHUNK):
                part = slice(lo, lo + ROUNDS_CHUNK)
                present[starts[part]] = self._rounds(
                    merged_lines[part], merged_writes[part],
                    None if merged_prefetch is None
                    else merged_prefetch[part])
        demand = slice(None) if prefetch is None else ~prefetch
        self.stats.add_batch(writes[demand], present[demand])
        return present

    def _rounds(self, lines, writes, prefetch):
        """The round kernel behind :meth:`run_ops`: counts the
        evictions and writebacks of a stream of ops and returns each
        op's hit, in stream order."""
        n = lines.shape[0]
        n_sets, n_ways = self._tags.shape
        ops, bounds = _round_order(lines % n_sets, n_sets)
        op_sets = lines[ops] % n_sets
        op_tags = lines[ops] // n_sets
        op_rows = op_sets * n_ways
        op_writes = writes[ops]
        op_stamps = (self._take_stamps(n) + ops).astype(np.int32)
        # Hits that keep their stamp: every hit under FIFO, prefetch
        # hits under LRU (None: no hit does).
        if self.config.policy != "lru":
            keep_stamp = np.ones(n, dtype=bool)
        else:
            keep_stamp = None if prefetch is None else prefetch[ops]
        draws = self._draws if self.config.policy == "random" else None
        old_tags = np.empty(n, dtype=np.int64)
        old_dirty = np.empty(n, dtype=bool)
        tags2d, stamps2d = self._tags, self._stamps
        tags, stamps, dirty = (a.reshape(-1) for a in
                               (tags2d, stamps2d, self._dirty))
        tag_column = op_tags[:, None]
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            s, t = op_sets[a:b], op_tags[a:b]
            # A matching way sorts before every stamp, an empty way (-1)
            # before every real one: argmin is the hit way, else the
            # LRU/FIFO victim.
            key = stamps2d.take(s, axis=0)
            key[tags2d.take(s, axis=0) == tag_column[a:b]] = -2
            col = key.argmin(axis=1)
            if draws is not None:
                # A miss on a full row: every key is a real stamp.
                full = np.flatnonzero(key.min(axis=1) >= 0)
                if full.shape[0]:
                    rows = s[full]
                    pos = victim_positions(self._seed, rows, draws[rows],
                                           n_ways)
                    draws[rows] += np.uint64(1)
                    col[full] = np.argsort(key[full], axis=1)[
                        np.arange(full.shape[0]), pos]
            way = op_rows[a:b] + col
            old = old_tags[a:b] = tags[way]
            was_dirty = old_dirty[a:b] = dirty[way]
            hit = old == t
            tags[way] = t
            if keep_stamp is None:
                stamps[way] = op_stamps[a:b]
            else:
                stamps[way] = np.where(hit & keep_stamp[a:b], stamps[way],
                                       op_stamps[a:b])
            dirty[way] = (was_dirty & hit) | op_writes[a:b]
        op_hits = old_tags == op_tags
        evicted = ~op_hits & (old_tags >= 0)
        self.stats.evictions += int(np.count_nonzero(evicted))
        self.stats.writebacks += int(np.count_nonzero(evicted & old_dirty))
        hits = np.empty(n, dtype=bool)
        hits[ops] = op_hits
        return hits

    def _stack_pays(self, lines):
        """Whether a demand-only stream of distinct-neighbour ``lines``
        goes to :meth:`_lru_stack`: under LRU, when its busiest set
        holds more than twice ``ways`` ops. :meth:`_rounds` needs one
        round per op of that set, the stack pass one step per way."""
        n_sets, n_ways = self._tags.shape
        return (self.config.policy == "lru" and lines.shape[0] > 2 * n_ways
                and np.bincount(lines % n_sets).max() > 2 * n_ways)

    def _lru_stack(self, lines, writes):
        """The LRU stack pass behind :meth:`run_ops` for a demand-only
        stream: counts the evictions and writebacks of the ops and
        returns each op's hit, in stream order, as :meth:`_rounds`
        would.

        Under LRU each set is a recency stack (Mattson, Gecsei, Slutz and
        Traiger, "Evaluation Techniques for Storage Hierarchies", IBM
        Systems Journal 1970), and an op hits iff its line is among the
        top ``ways`` entries. The ops are grouped by set, each touched
        set's group opening with its resident lines as pseudo-ops, LRU
        first, an empty way as a unique negative line. Pass *d* compares
        every op still unmatched with its depth-*d* entry; a match is a
        hit at that depth, pointing at the line's previous use. Ops
        matched at a depth up to *d* leave the entries deeper than *d*
        alone, so over the unmatched list the depth-*(d + 1)* entries
        are the previous element's depth-*d* entries: a shift by one,
        which the never-matching pseudo-ops keep inside each set. After
        ``ways`` passes an unmatched op misses and its depth-``ways``
        entry is its victim. A line's dirty bit is the OR of the writes
        along its chain of hits, found by pointer jumping."""
        n = lines.shape[0]
        n_sets, n_ways = self._tags.shape
        order, sorted_sets, new_set = _group_by_set(lines % n_sets, n_sets)
        touched = sorted_sets[new_set]
        n_pseudo = touched.shape[0] * n_ways
        # Taking stamps may renumber the rows, so it comes first.
        base = self._take_stamps(n)
        rank = self._stamps[touched].argsort(axis=1, kind="stable")
        old_tags, old_stamps, old_dirty = (
            np.take_along_axis(a[touched], rank, axis=1).reshape(-1)
            for a in (self._tags, self._stamps, self._dirty))
        # Elements: each touched set's group, its pseudo-ops then its
        # ops in stream order; one more holds a line nothing matches.
        size = n + n_pseudo
        op_at = np.arange(n) + n_ways * np.cumsum(new_set)
        is_op = np.zeros(size, dtype=bool)
        is_op[op_at] = True
        pseudo_at = np.flatnonzero(~is_op)
        line = np.empty(size + 1, dtype=np.int64)
        line[pseudo_at] = np.where(old_tags >= 0,
                                   old_tags * n_sets + np.repeat(touched,
                                                                 n_ways),
                                   -1 - np.arange(n_pseudo))
        line[op_at] = lines[order]
        line[size] = -1 - n_pseudo
        # prev: the element a hit matched, its line's previous use;
        # -1 for a pseudo-op or a miss.
        prev = np.full(size, -1)
        unmatched = np.arange(size)
        entry = unmatched - 1
        entry[0] = size
        for depth in range(n_ways):
            if depth:
                entry = np.concatenate(([size], entry[:-1]))
            match = line[unmatched] == line[entry]
            prev[unmatched[match]] = entry[match]
            keep = ~match
            unmatched, entry = unmatched[keep], entry[keep]
        missed = is_op[unmatched]
        victims = entry[missed]
        dirty = np.empty(size, dtype=bool)
        dirty[pseudo_at] = old_dirty
        dirty[op_at] = writes[order]
        chain = np.flatnonzero(prev >= 0)
        ptr = np.arange(size)
        ptr[chain] = prev[chain]
        while True:
            dirty |= dirty[ptr]
            jumped = ptr[ptr]
            if np.array_equal(jumped, ptr):
                break
            ptr = jumped
        real = line[victims] >= 0
        self.stats.evictions += int(np.count_nonzero(real))
        self.stats.writebacks += int(np.count_nonzero(dirty[victims[real]]))
        # The new rows: each set's chain ends that were not evicted,
        # exactly ``ways`` of them, oldest first.
        resident = np.ones(size, dtype=bool)
        resident[prev[chain]] = False
        resident[victims] = False
        stamps = np.empty(size, dtype=np.int64)
        stamps[pseudo_at] = old_stamps
        stamps[op_at] = base + order
        shape = touched.shape[0], n_ways
        kept = line[:size][resident]
        self._tags[touched] = np.where(kept >= 0, kept // n_sets,
                                       -1).reshape(shape)
        self._stamps[touched] = stamps[resident].reshape(shape)
        self._dirty[touched] = dirty[resident].reshape(shape)
        hits = np.empty(n, dtype=bool)
        hits[order] = prev[op_at] >= 0
        return hits
