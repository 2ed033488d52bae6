"""Per-access reference models: the oracles the simulator's batch paths
are diffed against.

* One cache level (``SetAssociativeCache.run_ops``): :func:`access` is
  one demand access and :func:`install` one prefetch fill, each acting
  on a :class:`repro.uarch.cache.SetAssociativeCache`'s own state one
  line at a time. A ``random`` victim comes from the same
  :func:`repro.uarch.cache.victim_positions` draw the kernel makes, so
  a cache driven through these functions and one driven through the
  kernel must agree bit for bit: hits, stats, lines in eviction order
  and each set's draw count.
* One TLB level (``TwoLevelTLB.access_many``): :func:`tlb_lookup`
  translates one address on a :class:`repro.uarch.tlb.TLB`.
* A branch predictor (``run_trace``): :func:`predict_and_update` runs
  one branch through any :mod:`repro.uarch.branch` predictor.
"""

from repro.uarch.branch import (
    BimodalPredictor,
    GSharePredictor,
    TournamentPredictor,
)
from repro.uarch.cache import victim_positions

_WEAKLY_TAKEN = 2  # 2-bit counter states: 0,1 predict NT; 2,3 predict T.


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


# -- TLB ----------------------------------------------------------------------


def tlb_lookup(tlb, addr):
    """Translate one byte address on one TLB level; fills on miss.
    Returns the hit flag."""
    page = tlb.page_number(int(addr))
    set_idx, tag = page % tlb._n_sets, page // tlb._n_sets
    ways = tlb._sets[set_idx]
    if tag in ways:
        ways.move_to_end(tag)
        tlb.hits += 1
        return True
    tlb.misses += 1
    if len(ways) >= tlb.config.associativity:
        ways.popitem(last=False)
    ways[tag] = True
    return False


def tlb_contains(tlb, addr):
    """Whether ``addr``'s page is resident, changing no state."""
    page = tlb.page_number(int(addr))
    return (page // tlb._n_sets) in tlb._sets[page % tlb._n_sets]


# -- branch predictors ---------------------------------------------------------


def predict_and_update(predictor, site, taken):
    """Predict one branch, update the predictor's state and counts, and
    return the prediction."""
    prediction = _predict_update(predictor, int(site), bool(taken))
    predictor.branches += 1
    if prediction != bool(taken):
        predictor.mispredicts += 1
    return prediction


def _predict_update(predictor, site, taken):
    """One branch's prediction and state update; a tournament's
    components update their tables but not their own counts."""
    if isinstance(predictor, TournamentPredictor):
        p_bim = _predict_update(predictor._bimodal, site, taken)
        p_gsh = _predict_update(predictor._gshare, site, taken)
        idx = site & predictor._mask
        choice = predictor._chooser[idx]
        if p_bim != p_gsh:
            if p_gsh == taken:
                predictor._chooser[idx] = min(choice + 1, 3)
            else:
                predictor._chooser[idx] = max(choice - 1, 0)
        return p_gsh if choice >= _WEAKLY_TAKEN else p_bim
    if isinstance(predictor, GSharePredictor):
        idx = (site ^ predictor._history) & predictor._mask
        predictor._history = (((predictor._history << 1) | int(taken))
                              & predictor._history_mask)
        return _count(predictor._table, idx, taken)
    if isinstance(predictor, BimodalPredictor):
        return _count(predictor._table, site & predictor._mask, taken)
    return True  # StaticTakenPredictor


def _count(table, idx, taken):
    """Read, then saturate, one 2-bit counter; returns its prediction."""
    counter = table[idx]
    table[idx] = min(counter + 1, 3) if taken else max(counter - 1, 0)
    return counter >= _WEAKLY_TAKEN
