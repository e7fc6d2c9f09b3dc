"""Global History Buffer prefetcher, AC/DC variant (Nesbit & Smith; paper
Table V "GHB AC/DC": 1024-entry GHB, 12-bit CZone, 128-entry index table).

The GHB stores recent miss addresses in an n-entry FIFO; each entry carries
a link pointer to the previous entry with the same *localization key*.  The
AC/DC ("address correlation / delta correlation") scheme localizes by CZone
— a fixed-size address region — and performs delta correlation within the
zone: the two most recent deltas are searched for in the zone's delta
history, and on a match the deltas that followed historically are replayed
as prefetch targets.

Because CZone localization is warp-id independent, the naive GHB retains
some effectiveness under warp interleaving when warps work on disjoint
zones (matching the paper's mixed Fig. 13a results); the enhanced version
adds the warp id to the localization key.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.base import HardwarePrefetcher
from repro.core.tables import LruTable

#: Deltas fetched from the chain walk; bounds the correlation history.
MAX_CHAIN = 12


class GhbPrefetcher(HardwarePrefetcher):
    """GHB AC/DC prefetcher, optionally warp-id enhanced."""

    __slots__ = (
        "warp_aware", "name", "ghb_entries", "czone_bits", "_ghb", "_head", "_index",
    )

    def __init__(
        self,
        ghb_entries: int = 1024,
        index_entries: int = 128,
        czone_bits: int = 12,
        distance: int = 1,
        degree: int = 1,
        warp_aware: bool = False,
    ) -> None:
        super().__init__(distance=distance, degree=degree)
        self.warp_aware = warp_aware
        self.name = "ghb_wid" if warp_aware else "ghb"
        self.ghb_entries = ghb_entries
        self.czone_bits = czone_bits
        # The GHB proper: position -> (addr, link_position or None).  We use
        # monotonically increasing global positions; entries older than
        # ``ghb_entries`` positions are dead (FIFO replacement).
        self._ghb: Dict[int, Tuple[int, Optional[int]]] = {}
        self._head = 0
        self._index: LruTable[int] = LruTable(index_entries)

    def _czone(self, addr: int, warp_id: int):
        zone = addr >> self.czone_bits
        return (zone, warp_id) if self.warp_aware else zone

    def _push(self, key, addr: int) -> int:
        """Append a miss address to the GHB, linking to the zone's chain."""
        position = self._head
        self._head += 1
        link = self._index.get(key)
        if link is not None and not self._alive(link):
            link = None
        self._ghb[position] = (addr, link)
        self._index.put(key, position)
        stale = position - self.ghb_entries
        if stale in self._ghb:
            del self._ghb[stale]
        return position

    def _alive(self, position: int) -> bool:
        return position in self._ghb

    def _chain_addresses(self, position: int) -> List[int]:
        """Walk the localization chain: most-recent-first addresses."""
        addresses: List[int] = []
        current: Optional[int] = position
        while current is not None and len(addresses) < MAX_CHAIN:
            entry = self._ghb.get(current)
            if entry is None:
                break
            addresses.append(entry[0])
            current = entry[1]
        return addresses

    def observe(self, pc: int, warp_id: int, addr: int, cycle: int) -> List[int]:
        self.observations += 1
        key = self._czone(addr, warp_id)
        position = self._push(key, addr)
        history = self._chain_addresses(position)
        if len(history) < 4:
            return []
        # Oldest-first address list and its delta stream.
        history.reverse()
        deltas = [b - a for a, b in zip(history, history[1:])]
        pair = (deltas[-2], deltas[-1])
        if pair[0] == 0 or pair[1] == 0:
            return []
        # Delta correlation: find the most recent earlier occurrence of the
        # last delta pair and replay what followed it.
        targets: List[int] = []
        for i in range(len(deltas) - 3, -1, -1):
            if (deltas[i], deltas[i + 1]) == pair:
                predicted = deltas[i + 2 : i + 2 + self.degree]
                if not predicted:
                    break
                # Cycle the replayed pattern when the history following the
                # match is shorter than the prefetch degree (e.g. a constant
                # stride matched at the immediately preceding position).
                cycle_len = len(predicted)
                while len(predicted) < self.degree:
                    predicted.append(predicted[len(predicted) % cycle_len])
                base = addr
                # Skip ahead by (distance - 1) predicted periods.
                for _ in range(self.distance - 1):
                    base += sum(predicted)
                for delta in predicted:
                    base += delta
                    targets.append(base)
                break
        return targets

    def _tables(self):
        return (self._index,)

    def reset(self) -> None:
        super().reset()
        self._ghb.clear()
        self._head = 0
        self._index.clear()
