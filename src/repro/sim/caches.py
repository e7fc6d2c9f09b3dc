"""Set-associative caches, including the per-core prefetch cache.

The paper augments each core with a 16KB, 8-way prefetch cache that holds
prefetched blocks (Section III).  The throttle engine's primary metric, the
*early eviction rate* (Eq. 5), is the number of blocks evicted before their
first use divided by the number of useful prefetches, so the prefetch cache
tracks a used-bit per line and reports evictions of never-used lines.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.sim.coalescer import LINE_BYTES
from repro.sim.config import PrefetchCacheConfig


class SetAssociativeCache:
    """A set-associative cache of 64B lines with true-LRU replacement.

    Stores an arbitrary payload per line; used as the building block for the
    prefetch cache and for idealized constant/texture caches.
    """

    __slots__ = ("line_bytes", "associativity", "num_sets", "_sets")

    def __init__(
        self, size_bytes: int, associativity: int, line_bytes: int = LINE_BYTES
    ) -> None:
        if size_bytes <= 0 or associativity <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = max(1, size_bytes // (associativity * line_bytes))
        # Each set is an OrderedDict mapping line address -> payload,
        # ordered from LRU (front) to MRU (back).
        self._sets = [OrderedDict() for _ in range(self.num_sets)]

    def _set_for(self, line_addr: int) -> OrderedDict:
        index = (line_addr // self.line_bytes) % self.num_sets
        return self._sets[index]

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[object]:
        """Return the payload for ``line_addr`` or None; updates LRU on hit."""
        # _set_for is inlined here: every demand load probes the prefetch
        # cache once per line, making this the hottest cache entry point.
        cache_set = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        payload = cache_set.get(line_addr)
        if payload is not None and touch:
            cache_set.move_to_end(line_addr)
        return payload

    def contains(self, line_addr: int) -> bool:
        """Non-LRU-disturbing presence check."""
        return line_addr in self._set_for(line_addr)

    def insert(self, line_addr: int, payload: object) -> Optional[object]:
        """Insert a line as MRU; return the evicted payload, if any."""
        cache_set = self._set_for(line_addr)
        evicted = None
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            cache_set[line_addr] = payload
            return None
        if len(cache_set) >= self.associativity:
            _, evicted = cache_set.popitem(last=False)
        cache_set[line_addr] = payload
        return evicted

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)


class _PrefetchLine:
    """Payload stored per prefetch-cache line."""

    __slots__ = ("used",)

    def __init__(self) -> None:
        self.used = False


class PrefetchCache:
    """Per-core prefetch cache with useful/early-eviction accounting.

    Run totals (a throttle window is their growth over the period, see
    ``Core.periodic_update``):

    * ``total_useful`` — prefetched lines hit by a demand access for the
      first time,
    * ``total_early_evictions`` — lines evicted before their first use,
    * ``total_hits`` / ``total_misses`` — demand lookup outcomes.
    """

    __slots__ = (
        "config", "_cache",
        "total_useful", "total_early_evictions", "total_hits",
        "total_misses", "total_fills",
    )

    #: The config is rebuilt at construction; a snapshot does not store it.
    snapshot_static = ("config",)

    def __init__(self, config: PrefetchCacheConfig) -> None:
        self.config = config
        self._cache = SetAssociativeCache(config.size_bytes, config.associativity)
        self.total_useful = 0
        self.total_early_evictions = 0
        self.total_hits = 0
        self.total_misses = 0
        self.total_fills = 0

    def demand_lookup(self, line_addr: int) -> bool:
        """Demand access: return True on hit; marks first use as useful."""
        line = self._cache.lookup(line_addr)
        if line is None:
            self.total_misses += 1
            return False
        self.total_hits += 1
        if not line.used:
            line.used = True
            self.total_useful += 1
        return True

    def contains(self, line_addr: int) -> bool:
        """Presence check that does not disturb LRU or counters."""
        return self._cache.contains(line_addr)

    def fill(self, line_addr: int, already_used: bool = False) -> None:
        """Install a prefetched line returning from memory.

        ``already_used`` marks lines whose prefetch was late (a demand merged
        with it in flight): the block was consumed on arrival, so it counts
        as used and its later eviction is not an early eviction.
        """
        self.total_fills += 1
        line = _PrefetchLine()
        if already_used:
            line.used = True
            self.total_useful += 1
        evicted = self._cache.insert(line_addr, line)
        if evicted is not None and not evicted.used:
            self.total_early_evictions += 1

    def resident_unused_count(self) -> int:
        """Lines currently cached that no demand access has touched yet.

        Closes the invariant checker's prefetch-outcome ledger: every fill
        ends up useful, early-evicted, or still resident and unused.
        """
        return sum(
            1
            for cache_set in self._cache._sets
            for line in cache_set.values()
            if not line.used
        )

    def __len__(self) -> int:
        return len(self._cache)
