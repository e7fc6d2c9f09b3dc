"""Fixed-capacity LRU tables used by the hardware prefetchers.

The paper's prefetch tables (Table V, Table VI) are all small fully- or
set-associative structures with LRU replacement; :class:`LruTable` models
them as an LRU-ordered mapping with bounded capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, Optional, Tuple, TypeVar

V = TypeVar("V")


class LruTable(Generic[V]):
    """A bounded mapping with least-recently-used replacement."""

    __slots__ = ("capacity", "_entries", "evictions", "lookups", "hits")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("table capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self.evictions = 0
        # Diagnostic lookup/hit tallies for the profiler's table-pressure
        # view (``SimProfiler.counts``).  Snapshots store them like every
        # other field, so a resumed run reports the uninterrupted totals.
        self.lookups = 0
        self.hits = 0

    def get(self, key: Hashable, touch: bool = True) -> Optional[V]:
        """Return the entry for ``key`` (updating recency) or None."""
        self.lookups += 1
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            if touch:
                self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, value: V) -> Optional[Tuple[Hashable, V]]:
        """Insert/update an entry; return the evicted (key, value) if any."""
        evicted = None
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            evicted = self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value
        return evicted

    def pop(self, key: Hashable) -> Optional[V]:
        return self._entries.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterator[Tuple[Hashable, V]]:
        """Iterate (key, value) pairs from LRU to MRU."""
        return iter(self._entries.items())

    def clear(self) -> None:
        self._entries.clear()
