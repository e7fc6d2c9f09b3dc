"""Per-core memory request queue (MRQ) with intra-core merging.

Paper Section II-B2 and Fig. 2a: each core maintains its own MRQ; new
requests that overlap with existing MRQ requests are merged with the existing
request (*intra-core merging*).  The MRQ doubles as the core's MSHR file: an
entry stays allocated from creation until the response returns (or, for
stores, until injection), so ``mrq_size`` bounds the core's outstanding
memory requests.

The throttle engine's *merge ratio* metric (Eq. 6) is the number of
intra-core merges divided by the total number of requests; both run totals
are kept here (a throttle window is their growth over the period, see
``Core.periodic_update``).  The counters are kept *exact*:

* Only demand and store accesses that join (or create) an entry count
  toward ``merges``/``requests``.  A prefetch probing a line the MRQ
  already tracks is a *redundant* prefetch — the memory system sees no
  new request — and is recorded separately
  (``total_prefetch_merged``), never as an Eq. 6 merge, which would
  otherwise let a prefetcher inflate its own utility evidence by
  re-requesting in-flight lines.
* ``total_demand_on_prefetch_merges`` is single-counted per prefetch
  entry: the first demand merge clears the entry's prefetch bit, so
  later demands merging into the same entry are ordinary
  demand-on-demand merges.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.memory_request import MemoryRequest


class MemoryRequestQueue:
    """MRQ / MSHR file for one core."""

    __slots__ = (
        "core_id", "size", "_entries", "_send_queue", "owner_core",
        "total_merges", "total_requests", "total_created", "total_completed",
        "total_stores_sent", "total_demand_on_prefetch_merges",
        "total_prefetch_dropped_full", "total_prefetch_merged",
    )

    #: The owning core, a weak proxy wired by ``Core.__init__``; a
    #: snapshot does not store it (see :mod:`repro.sim.checkpoint`).
    snapshot_static = ("owner_core",)

    def __init__(self, core_id: int, size: int) -> None:
        self.core_id = core_id
        self.size = size
        self._entries: Dict[int, MemoryRequest] = {}
        self._send_queue: List[MemoryRequest] = []
        # Owning core, for the store-freed wake-up (runtime plumbing, set
        # by Core.__init__): a store entry frees MRQ
        # space at injection with no response ever arriving, so a core
        # sleeping on an MRQ-full stall must be woken here or it sleeps
        # through the only event that can unblock it.  It is a weak
        # proxy, so a finished machine holds no core <-> MRQ cycle and
        # reference counting frees it.
        self.owner_core: Optional[object] = None
        # Run totals.  The created/completed/stores-sent triple is the
        # entry-lifetime ledger the invariant checker balances:
        # created == completed + stores_sent + currently resident.
        self.total_merges = 0
        self.total_requests = 0
        self.total_created = 0
        self.total_completed = 0
        self.total_stores_sent = 0
        self.total_demand_on_prefetch_merges = 0
        self.total_prefetch_dropped_full = 0
        self.total_prefetch_merged = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.size

    def lookup(self, line_addr: int) -> Optional[MemoryRequest]:
        """Return the in-flight request for a line, if any."""
        return self._entries.get(line_addr)

    def has_sendable(self) -> bool:
        """True if any request is waiting to be injected."""
        return bool(self._send_queue)

    def _count_access(self, merged: bool) -> None:
        self.total_requests += 1
        if merged:
            self.total_merges += 1
        else:
            self.total_created += 1

    def inflight_requests(self) -> List[MemoryRequest]:
        """Sent, uncompleted load/prefetch entries (conservation check)."""
        return [
            entry
            for entry in self._entries.values()
            if entry.sent and not entry.is_store
        ]

    def access_demand(
        self, line_addr: int, warp: object, token: int, pc: int, warp_id: int, cycle: int
    ) -> Optional[MemoryRequest]:
        """Route a demand line access through the MRQ.

        Returns the (new or merged-into) request, or None when the MRQ is
        full and no mergeable entry exists.  The core issues a demand or
        store only once every fresh line fits (``Core._mrq_has_room``),
        so none of its accesses is refused.
        """
        existing = self._entries.get(line_addr)
        if existing is not None:
            if existing.is_prefetch:
                self.total_demand_on_prefetch_merges += 1
            if existing.is_store:
                # A demand merging into a not-yet-sent store: the line must
                # now return data, so the entry is promoted to a demand
                # request.  Leaving it a store would free it at injection
                # with no response, stranding the waiter registered below
                # (a lost wake-up that wedges the warp forever).  Demand
                # latency is measured from the merge, not from the store's
                # creation.
                existing.is_store = False
                existing.create_cycle = cycle
            existing.merge_demand(warp, token, cycle)
            self._count_access(merged=True)
            return existing
        if self.full:
            return None
        request = MemoryRequest(line_addr, self.core_id, warp_id, pc, False, cycle)
        request.add_waiter(warp, token)
        self._entries[line_addr] = request
        self._send_queue.append(request)
        self._count_access(merged=False)
        return request

    def access_store(self, line_addr: int, pc: int, warp_id: int, cycle: int) -> Optional[MemoryRequest]:
        """Route a store through the MRQ (fire-and-forget)."""
        existing = self._entries.get(line_addr)
        if existing is not None:
            self._count_access(merged=True)
            return existing
        if self.full:
            return None
        request = MemoryRequest(line_addr, self.core_id, warp_id, pc, False, cycle, is_store=True)
        self._entries[line_addr] = request
        self._send_queue.append(request)
        self._count_access(merged=False)
        return request

    def access_prefetch(
        self, line_addr: int, pc: int, warp_id: int, cycle: int
    ) -> Optional[MemoryRequest]:
        """Route a prefetch line access through the MRQ.

        A prefetch to a line the MRQ already tracks is a no-op for the
        memory system: it is recorded as ``total_prefetch_merged`` but
        deliberately NOT as an Eq. 6 merge/request — counting it would
        let redundant prefetches inflate the throttle engine's merge
        ratio (utility evidence) with traffic that never existed.  If
        the MRQ is full the prefetch is dropped rather than stalling
        the core.
        """
        existing = self._entries.get(line_addr)
        if existing is not None:
            self.total_prefetch_merged += 1
            return existing
        if self.full:
            self.total_prefetch_dropped_full += 1
            return None
        request = MemoryRequest(line_addr, self.core_id, warp_id, pc, True, cycle)
        self._entries[line_addr] = request
        self._send_queue.append(request)
        self._count_access(merged=False)
        return request

    def pop_sendable(self, cycle: int) -> Optional[MemoryRequest]:
        """Remove and return the next request to inject (demands first).

        Store entries are freed at injection (no response expected); load
        and prefetch entries remain allocated until the response returns.
        """
        if not self._send_queue:
            return None
        pick_index = 0
        if self._send_queue[0].is_prefetch:
            for i, req in enumerate(self._send_queue):
                if not req.is_prefetch:
                    pick_index = i
                    break
        request = self._send_queue.pop(pick_index)
        request.sent = True
        request.send_cycle = cycle
        if request.is_store:
            self._entries.pop(request.line_addr, None)
            self.total_stores_sent += 1
            if self.owner_core is not None:
                self.owner_core.woken = True
        return request

    def complete(self, line_addr: int) -> Optional[MemoryRequest]:
        """Free the entry for an arriving response and return it."""
        entry = self._entries.pop(line_addr, None)
        if entry is not None:
            self.total_completed += 1
        return entry
