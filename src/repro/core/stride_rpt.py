"""Region-based stride prefetcher (Iacobovici et al.; paper Table V
"Stride RPT": 1024 entries, 16 region bits).

Instead of localizing the access stream by PC, this prefetcher localizes by
*memory region*: the table is indexed by the high-order address bits (the
region id), and a stride is trained from consecutive accesses falling in the
same region.  Region localization tolerates warp interleaving better than a
globally-trained stride detector when different warps work on disjoint
regions, but breaks down when many warps share a region — the warp-id
enhanced version adds the warp id to the index (Section VIII-A).
"""

from __future__ import annotations

from typing import List

from repro.core.base import HardwarePrefetcher
from repro.core.stride_pc import StrideEntry
from repro.core.tables import LruTable


class StrideRptPrefetcher(HardwarePrefetcher):
    """Region-indexed stride prefetcher, optionally warp-id enhanced."""

    __slots__ = ("region_bits", "warp_aware", "name", "table")

    def __init__(
        self,
        entries: int = 1024,
        region_bits: int = 16,
        distance: int = 1,
        degree: int = 1,
        warp_aware: bool = False,
    ) -> None:
        super().__init__(distance=distance, degree=degree)
        if region_bits <= 0:
            raise ValueError("region_bits must be positive")
        self.region_bits = region_bits
        self.warp_aware = warp_aware
        self.name = "stride_rpt_wid" if warp_aware else "stride_rpt"
        self.table: LruTable[StrideEntry] = LruTable(entries)

    def _key(self, addr: int, warp_id: int):
        region = addr >> self.region_bits
        return (region, warp_id) if self.warp_aware else region

    def observe(self, pc: int, warp_id: int, addr: int, cycle: int) -> List[int]:
        self.observations += 1
        key = self._key(addr, warp_id)
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
