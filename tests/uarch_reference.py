"""Per-access reference model of one cache level: the oracle that
``SetAssociativeCache.run_ops`` is diffed against.

:func:`access` is one demand access and :func:`install` one prefetch
fill, each acting on a :class:`repro.uarch.cache.SetAssociativeCache`'s
own state one line at a time. A ``random`` victim comes from the same
:func:`repro.uarch.cache.victim_positions` draw the kernel makes, so a
cache driven through these functions and one driven through the kernel
must agree bit for bit: hits, stats, lines in eviction order and each
set's draw count.
"""

from repro.uarch.cache import victim_positions


def _split(cache, addr):
    line = cache.line_address(int(addr))
    return line % cache._n_sets, line // cache._n_sets


def access(cache, addr, is_write=False):
    """Access one byte address. Returns ``True`` on hit.

    A hit restamps the line under LRU and dirties it on a store. A miss
    allocates the line (write-allocate), evicting per policy when the
    set is full.
    """
    set_idx, tag = _split(cache, addr)
    if is_write:
        cache.stats.stores += 1
    else:
        cache.stats.loads += 1

    way = find(cache, set_idx, tag)
    if way is not None:
        if cache.config.policy == "lru":
            cache._stamps[set_idx, way] = cache._take_stamps(1)
        if is_write:
            cache._dirty[set_idx, way] = True
        return True

    if is_write:
        cache.stats.store_misses += 1
    else:
        cache.stats.load_misses += 1
    fill(cache, set_idx, tag, dirty=is_write)
    return False


def install(cache, addr):
    """Prefetch fill of ``addr``'s line: clean, no demand counter, and
    no change at all if the line is resident. Returns whether it
    filled."""
    set_idx, tag = _split(cache, addr)
    if find(cache, set_idx, tag) is not None:
        return False
    fill(cache, set_idx, tag)
    return True


def find(cache, set_idx, tag):
    """The way of ``set_idx`` holding ``tag``, or ``None``."""
    ways = cache._tags[set_idx].tolist()
    return ways.index(tag) if tag in ways else None


def fill(cache, set_idx, tag, dirty=False):
    """Install ``tag`` in ``set_idx``, evicting when the set is full.

    LRU and FIFO both evict the smallest stamp: LRU restamps on hits,
    FIFO does not. ``random`` takes the set's next victim draw, a
    position in stamp order.
    """
    stamps = cache._stamps[set_idx].tolist()
    if cache.config.policy == "random" and min(stamps) >= 0:
        # A full row's stamps are distinct.
        (pos,) = victim_positions(cache._seed, [set_idx],
                                  [cache._draws[set_idx]], len(stamps))
        cache._draws[set_idx] += 1
        way = stamps.index(sorted(stamps)[pos])
    else:
        way = stamps.index(min(stamps))
    if cache._tags[set_idx, way] >= 0:
        cache.stats.evictions += 1
        if cache._dirty[set_idx, way]:
            cache.stats.writebacks += 1
    cache._tags[set_idx, way] = tag
    cache._stamps[set_idx, way] = cache._take_stamps(1)
    cache._dirty[set_idx, way] = dirty
