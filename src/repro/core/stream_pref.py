"""Stream prefetcher (Jouppi stream buffers / POWER5-style; paper Table V
"Stream": 512 entries).

A stream prefetcher monitors a memory region and detects the *direction* of
accesses (paper Section II-C2).  Each table entry tracks one candidate
stream: an anchor line, a direction under training, and — once two further
accesses confirm a constant direction — a monitoring state in which every
in-stream access advances the stream head and prefetches the next
``degree`` lines, ``distance`` lines ahead.

Warp interleaving scrambles the direction signal of the naive version; the
enhanced version tags streams with the allocating warp id so only that
warp's accesses train or advance the stream (Section VIII-A).

The implementation keeps a spatial bucket index over stream anchors so each
access probes O(1) candidate streams instead of scanning the whole table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.core.base import LINE_BYTES, HardwarePrefetcher

#: Confirmations of a direction needed before a stream starts prefetching.
TRAIN_CONFIRMATIONS = 2

#: Lines around the anchor considered part of the stream window.
WINDOW_LINES = 16


class StreamEntry:
    """One stream-tracking entry."""

    __slots__ = ("sid", "anchor_line", "direction", "confirmations", "monitoring", "warp_id")

    def __init__(self, sid: int, line: int, warp_id: int) -> None:
        self.sid = sid
        self.anchor_line = line
        self.direction = 0
        self.confirmations = 0
        self.monitoring = False
        self.warp_id = warp_id


class StreamPrefetcher(HardwarePrefetcher):
    """Direction-detecting stream prefetcher, optionally warp-id enhanced."""

    __slots__ = ("warp_aware", "name", "capacity", "_lru", "_buckets", "_next_sid")

    def __init__(
        self,
        entries: int = 512,
        distance: int = 1,
        degree: int = 1,
        warp_aware: bool = False,
    ) -> None:
        super().__init__(distance=distance, degree=degree)
        self.warp_aware = warp_aware
        self.name = "stream_wid" if warp_aware else "stream"
        self.capacity = entries
        # LRU order: sid -> entry, least recent first.
        self._lru: "OrderedDict[int, StreamEntry]" = OrderedDict()
        # Spatial index: bucket -> sids anchored in that bucket, as an
        # insertion-ordered dict-of-keys rather than a set.  The probe in
        # :meth:`_find_stream` breaks equal-gap ties by iteration order,
        # and insertion order (unlike hash order) survives a
        # checkpoint/restore round trip exactly.
        self._buckets: Dict[int, Dict[int, None]] = {}
        # Stream ids key the LRU map and the spatial index: the next id
        # to hand out.
        self._next_sid = 0

    def __len__(self) -> int:
        return len(self._lru)

    @staticmethod
    def _bucket(line: int) -> int:
        return line // WINDOW_LINES

    def _index_add(self, entry: StreamEntry) -> None:
        self._buckets.setdefault(self._bucket(entry.anchor_line), {})[entry.sid] = None

    def _index_remove(self, entry: StreamEntry) -> None:
        bucket = self._bucket(entry.anchor_line)
        sids = self._buckets.get(bucket)
        if sids is not None:
            sids.pop(entry.sid, None)
            if not sids:
                del self._buckets[bucket]

    def _move_anchor(self, entry: StreamEntry, line: int) -> None:
        if self._bucket(entry.anchor_line) != self._bucket(line):
            self._index_remove(entry)
            entry.anchor_line = line
            self._index_add(entry)
        else:
            entry.anchor_line = line

    def _allocate(self, line: int, warp_id: int) -> None:
        if len(self._lru) >= self.capacity:
            _, victim = self._lru.popitem(last=False)
            self._index_remove(victim)
        entry = StreamEntry(self._next_sid, line, warp_id)
        self._next_sid += 1
        self._lru[entry.sid] = entry
        self._index_add(entry)

    def _find_stream(self, line: int, warp_id: int) -> Optional[StreamEntry]:
        """Locate the stream whose window covers this line, if any."""
        base = self._bucket(line)
        best: Optional[StreamEntry] = None
        best_gap = WINDOW_LINES + 1
        for bucket in (base - 1, base, base + 1):
            for sid in self._buckets.get(bucket, ()):
                entry = self._lru[sid]
                if self.warp_aware and entry.warp_id != warp_id:
                    continue
                gap = abs(line - entry.anchor_line)
                if gap <= WINDOW_LINES and gap < best_gap:
                    best = entry
                    best_gap = gap
        return best

    def observe(self, pc: int, warp_id: int, addr: int, cycle: int) -> List[int]:
        self.observations += 1
        line = addr // LINE_BYTES
        entry = self._find_stream(line, warp_id)
        if entry is None:
            self._allocate(line, warp_id)
            return []
        self._lru.move_to_end(entry.sid)
        gap = line - entry.anchor_line
        if gap == 0:
            return []
        direction = 1 if gap > 0 else -1
        if entry.monitoring:
            if direction == entry.direction:
                self._move_anchor(entry, line)
                return [
                    (line + entry.direction * (self.distance + k)) * LINE_BYTES
                    for k in range(self.degree)
                ]
            # Direction break: retrain from here.
            entry.monitoring = False
            entry.direction = direction
            entry.confirmations = 1
            self._move_anchor(entry, line)
            return []
        if direction == entry.direction:
            entry.confirmations += 1
        else:
            entry.direction = direction
            entry.confirmations = 1
        self._move_anchor(entry, line)
        if entry.confirmations >= TRAIN_CONFIRMATIONS:
            entry.monitoring = True
        return []

    def reset(self) -> None:
        super().reset()
        self._lru.clear()
        self._buckets.clear()
