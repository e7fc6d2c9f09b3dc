"""Per-PC stride prefetcher (Chen & Baer / Fu et al.; paper Table V
"StridePC").

Tracks, per static load PC, the delta between consecutive accesses; after
two consecutive equal non-zero deltas (three accesses) the entry is trained
and prefetch requests are launched at ``addr + stride * distance`` onward.

The *naive* version indexes the table by PC alone: with hundreds of
interleaved warps all executing the same PC, the observed delta sequence is
effectively random (paper Fig. 5) and training rarely converges.  The
*enhanced* (many-thread aware trained) version indexes by ``(PC, warp id)``
(Section VIII-A), which restores per-warp stride visibility at the cost of
dividing the effective table size by the number of active warps.
"""

from __future__ import annotations

from typing import List

from repro.core.base import HardwarePrefetcher
from repro.core.tables import LruTable

#: Consecutive matching deltas required before prefetching (3 accesses).
TRAIN_THRESHOLD = 2


class StrideEntry:
    """One stride-training entry: last address, stride, confidence."""

    __slots__ = ("last_addr", "stride", "confidence")

    def __init__(self, last_addr: int) -> None:
        self.last_addr = last_addr
        self.stride = 0
        self.confidence = 0

    def train(self, addr: int) -> bool:
        """Update with a new access; return True when trained."""
        delta = addr - self.last_addr
        self.last_addr = addr
        if delta == 0:
            return self.trained
        if delta == self.stride:
            self.confidence = min(self.confidence + 1, TRAIN_THRESHOLD)
        else:
            self.stride = delta
            self.confidence = 1
        return self.trained

    @property
    def trained(self) -> bool:
        return self.confidence >= TRAIN_THRESHOLD and self.stride != 0


class StridePcPrefetcher(HardwarePrefetcher):
    """PC-indexed stride prefetcher, optionally warp-id enhanced."""

    __slots__ = ("warp_aware", "name", "table")

    def __init__(
        self,
        entries: int = 1024,
        distance: int = 1,
        degree: int = 1,
        warp_aware: bool = False,
    ) -> None:
        super().__init__(distance=distance, degree=degree)
        self.warp_aware = warp_aware
        self.name = "stride_pc_wid" if warp_aware else "stride_pc"
        self.table: LruTable[StrideEntry] = LruTable(entries)

    def _key(self, pc: int, warp_id: int):
        return (pc, warp_id) if self.warp_aware else pc

    def observe(self, pc: int, warp_id: int, addr: int, cycle: int) -> List[int]:
        self.observations += 1
        key = self._key(pc, warp_id)
        entry = self.table.get(key)
        if entry is None:
            self.table.put(key, StrideEntry(addr))
            return []
        if entry.train(addr):
            return self.targets_from_stride(addr, entry.stride)
        return []

    def _tables(self):
        return (self.table,)

    def reset(self) -> None:
        super().reset()
        self.table.clear()
