"""MT-HWP: the many-thread aware hardware prefetcher (paper Section III-B,
Fig. 6, Table VI).

MT-HWP consists of three tables:

* **PWS (per-warp stride)** — a 32-entry LRU table indexed by
  ``(PC, warp id)`` performing classic stride training *per warp*, because
  warp interleaving makes a globally-trained detector see a random pattern
  (Fig. 5).
* **GS (global stride)** — an 8-entry LRU table indexed by PC holding
  *promoted* strides: when at least three PWS entries for the same PC have
  the same stride, the ``(PC, stride)`` pair is promoted.  Yet-to-be-trained
  warps then prefetch immediately without touching the PWS table, which both
  saves PWS accesses (power) and shrinks the required PWS capacity.
* **IP (inter-thread prefetching)** — an 8-entry LRU table indexed by PC that
  detects a constant stride *across warps* at the same PC (trained until
  three accesses from different warps agree); a hit makes the current warp
  prefetch for a warp ``distance`` warps ahead.

Lookup (Fig. 6): the GS and IP tables are probed in parallel with the PC in
cycle 0; on a double hit GS wins (intra-warp strides are more common and GS
entries are trained longer), and the PWS table is only probed in the
following cycle on a cycle-0 miss.  Section VIII-B additionally states that
"since PWS has higher priority than IP, all prefetches are covered by PWS"
for stride-type benchmarks, so the effective request priority implemented
here is **GS > PWS > IP**: a GS hit skips the PWS probe entirely (the
power/access saving the paper quantifies as a 97% reduction in PWS accesses
for stride-type benchmarks); otherwise PWS is probed and trained, and a
trained PWS entry beats the IP table.  The IP table is trained on every
access (it is indexed in parallel) regardless of which table wins.  The
1-cycle PWS probe delay is negligible at GPU memory latencies and is not
simulated; the access counting is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.base import HardwarePrefetcher
from repro.core.stride_pc import TRAIN_THRESHOLD, StrideEntry
from repro.core.tables import LruTable

#: PWS entries with an identical (PC, stride) needed for GS promotion.
PROMOTION_THRESHOLD = 3

#: Cross-warp stride confirmations needed to train an IP entry (3 accesses).
IP_TRAIN_THRESHOLD = 2


class IpEntry:
    """IP-table entry: cross-warp stride training state for one PC.

    Matches Table VI's field inventory: the PC (the table key), a stride, a
    train bit, and the last two (warp id, address) samples.
    """

    __slots__ = ("last_wid", "last_addr", "stride", "confidence")

    def __init__(self, warp_id: int, addr: int) -> None:
        self.last_wid = warp_id
        self.last_addr = addr
        self.stride = 0
        self.confidence = 0

    def train(self, warp_id: int, addr: int) -> bool:
        """Update with an access from (possibly) another warp.

        Only transitions between *different* warps contribute: the per-warp
        stride is ``(addr delta) / (warp-id delta)`` and must divide evenly
        to count as a cross-warp stride observation.
        """
        if warp_id == self.last_wid:
            return self.trained
        wid_delta = warp_id - self.last_wid
        addr_delta = addr - self.last_addr
        self.last_wid = warp_id
        self.last_addr = addr
        if addr_delta % wid_delta != 0:
            self.confidence = 0
            return False
        stride = addr_delta // wid_delta
        if stride == 0:
            return self.trained
        if stride == self.stride:
            self.confidence = min(self.confidence + 1, IP_TRAIN_THRESHOLD)
        else:
            self.stride = stride
            self.confidence = 1
        return self.trained

    @property
    def trained(self) -> bool:
        return self.confidence >= IP_TRAIN_THRESHOLD and self.stride != 0


class MtHwpPrefetcher(HardwarePrefetcher):
    """The many-thread aware hardware prefetcher (PWS + GS + IP)."""

    __slots__ = (
        "enable_pws", "enable_gs", "enable_ip", "ip_warp_distance", "pws", "gs",
        "ip", "name", "pws_accesses", "pws_accesses_saved", "gs_hits", "ip_hits",
        "promotions",
    )

    def __init__(
        self,
        pws_entries: int = 32,
        gs_entries: int = 8,
        ip_entries: int = 8,
        distance: int = 1,
        degree: int = 1,
        enable_pws: bool = True,
        enable_gs: bool = True,
        enable_ip: bool = True,
        ip_warp_distance: int = 8,
    ) -> None:
        super().__init__(distance=distance, degree=degree)
        self.enable_pws = enable_pws
        self.enable_gs = enable_gs
        self.enable_ip = enable_ip
        self.ip_warp_distance = ip_warp_distance
        self.pws: LruTable[StrideEntry] = LruTable(pws_entries)
        self.gs: LruTable[int] = LruTable(gs_entries)
        self.ip: LruTable[IpEntry] = LruTable(ip_entries)
        parts = [
            name
            for flag, name in (
                (enable_pws, "pws"),
                (enable_gs, "gs"),
                (enable_ip, "ip"),
            )
            if flag
        ]
        self.name = "mt_hwp[" + "+".join(parts) + "]"
        # Statistics for the paper's PWS-access-reduction claim.
        self.pws_accesses = 0
        self.pws_accesses_saved = 0
        self.gs_hits = 0
        self.ip_hits = 0
        self.promotions = 0

    # ------------------------------------------------------------------

    def observe(self, pc: int, warp_id: int, addr: int, cycle: int) -> List[int]:
        self.observations += 1
        # Cycle 0: GS and IP probed in parallel.
        gs_stride = self.gs.get(pc) if self.enable_gs else None
        ip_entry = self.ip.get(pc) if self.enable_ip else None
        ip_trained = ip_entry is not None and ip_entry.trained
        if self.enable_ip:
            self._train_ip(pc, warp_id, addr, ip_entry)
        if gs_stride is not None:
            # GS hit: highest priority; the PWS probe is skipped entirely.
            # A skipped probe is only a saving when PWS is actually
            # configured in — with PWS disabled there is no access to save.
            self.gs_hits += 1
            if self.enable_pws:
                self.pws_accesses_saved += 1
            return self.targets_from_stride(addr, gs_stride)
        # Cycle 1: PWS probe and training.
        if self.enable_pws:
            self.pws_accesses += 1
            key = (pc, warp_id)
            entry = self.pws.get(key)
            if entry is None:
                self.pws.put(key, StrideEntry(addr))
            elif entry.train(addr):
                if self.enable_gs:
                    self._maybe_promote(pc, entry.stride)
                return self.targets_from_stride(addr, entry.stride)
        if ip_trained:
            # IP hit (Section III-B): prefetch for the warp
            # ``ip_warp_distance`` warps ahead; extra degree extends the
            # target list along the per-warp stride (covering the warps
            # immediately after the target), not by whole warp-distances.
            self.ip_hits += 1
            base = addr + ip_entry.stride * self.ip_warp_distance
            return [base + ip_entry.stride * k for k in range(self.degree)]
        return []

    # ------------------------------------------------------------------

    def _train_ip(
        self, pc: int, warp_id: int, addr: int, entry: Optional[IpEntry]
    ) -> None:
        if entry is None:
            self.ip.put(pc, IpEntry(warp_id, addr))
        else:
            entry.train(warp_id, addr)

    def _maybe_promote(self, pc: int, stride: int) -> None:
        """Promote (pc, stride) to GS when >= 3 PWS entries agree."""
        if pc in self.gs:
            return
        agreeing = 0
        for (entry_pc, _), entry in self.pws.items():
            if (
                entry_pc == pc
                and entry.stride == stride
                and entry.confidence >= TRAIN_THRESHOLD
            ):
                agreeing += 1
                if agreeing >= PROMOTION_THRESHOLD:
                    self.gs.put(pc, stride)
                    self.promotions += 1
                    return

    def _tables(self):
        return (self.pws, self.gs, self.ip)

    def reset(self) -> None:
        super().reset()
        self.pws.clear()
        self.gs.clear()
        self.ip.clear()
        self.pws_accesses = 0
        self.pws_accesses_saved = 0
        self.gs_hits = 0
        self.ip_hits = 0
        self.promotions = 0


# ----------------------------------------------------------------------
# Hardware cost (paper Table VI)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableCost:
    """Bit cost of one prefetch table."""

    name: str
    entries: int
    bits_per_entry: int

    @property
    def total_bits(self) -> int:
        return self.entries * self.bits_per_entry


#: Per-entry field widths from Table VI.
PWS_ENTRY_BITS = 4 * 8 + 1 * 8 + 1 + 4 * 8 + 20  # PC, wid, train, last, stride = 93
GS_ENTRY_BITS = 4 * 8 + 20  # PC, stride = 52
IP_ENTRY_BITS = 4 * 8 + 20 + 1 + 2 * 8 + 8 * 8  # PC, stride, train, 2 wid, 2 addr = 133


def hardware_cost_bits(
    pws_entries: int = 32, gs_entries: int = 8, ip_entries: int = 8
) -> Dict[str, TableCost]:
    """Reproduce Table VI: the hardware cost of MT-HWP's tables."""
    return {
        "PWS": TableCost("PWS", pws_entries, PWS_ENTRY_BITS),
        "GS": TableCost("GS", gs_entries, GS_ENTRY_BITS),
        "IP": TableCost("IP", ip_entries, IP_ENTRY_BITS),
    }


def hardware_cost_bytes(
    pws_entries: int = 32, gs_entries: int = 8, ip_entries: int = 8
) -> int:
    """Total MT-HWP storage in bytes (Table VI reports 557 bytes)."""
    total_bits = sum(
        cost.total_bits
        for cost in hardware_cost_bits(pws_entries, gs_entries, ip_entries).values()
    )
    return (total_bits + 7) // 8
