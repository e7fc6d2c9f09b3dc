"""Memory request objects flowing through MRQ, interconnect and DRAM."""

from __future__ import annotations

from typing import List, Optional, Tuple


class MemoryRequest:
    """A 64-byte line request from a core to the memory system.

    One MRQ entry per (core, line): demand accesses and prefetches to the
    same line merge into a single request (intra-core merging, paper
    Fig. 2a).  ``waiters`` holds ``(warp, token)`` pairs to wake when the
    line arrives; prefetch-originated requests additionally fill the
    prefetch cache on return.

    Attributes:
        line_addr: 64B-aligned byte address of the requested line.
        core_id: Originating core.
        warp_id: Warp id of the first access (used for stats only).
        pc: PC of the first access.
        is_prefetch: True while the request is purely speculative.  Cleared
            (and ``was_prefetch``/``late_prefetch`` recorded) when a demand
            merges into it.
        is_store: Write request; completes at injection, no response.
        create_cycle: Cycle the request entered the MRQ.
        send_cycle: Cycle it was injected into the interconnect (-1 until
            then).
    """

    __slots__ = (
        "line_addr",
        "core_id",
        "warp_id",
        "pc",
        "is_prefetch",
        "was_prefetch",
        "late_prefetch",
        "is_store",
        "create_cycle",
        "send_cycle",
        "waiters",
        "sent",
        "dram_channel",
    )

    #: ``dram_channel`` is derived: a snapshot does not store it, and the
    #: DRAM channel re-sets it on restore (``DramChannel.after_restore``).
    snapshot_derived = ("dram_channel",)

    def __init__(
        self,
        line_addr: int,
        core_id: int,
        warp_id: int,
        pc: int,
        is_prefetch: bool,
        create_cycle: int,
        is_store: bool = False,
    ) -> None:
        self.line_addr = line_addr
        self.core_id = core_id
        self.warp_id = warp_id
        self.pc = pc
        self.is_prefetch = is_prefetch
        self.was_prefetch = is_prefetch
        self.late_prefetch = False
        self.is_store = is_store
        self.create_cycle = create_cycle
        self.send_cycle = -1
        self.waiters: List[Tuple[object, int]] = []
        self.sent = False
        # The DRAM channel whose buffer entry this prefetch rides while
        # that entry is schedulable, so a late-prefetch promotion reaches
        # the indexed scheduler eagerly (see DramChannel.promote_line).
        # It is the channel's weak proxy and names no entry, so no
        # request <-> buffer-entry cycle outlives a run.
        self.dram_channel: Optional[object] = None

    @property
    def is_demand(self) -> bool:
        """True if at least one demand access depends on this request."""
        return not self.is_prefetch and not self.is_store

    def add_waiter(self, warp: object, token: int) -> None:
        """Register a (warp, token) to wake when the line returns."""
        self.waiters.append((warp, token))

    def merge_demand(self, warp: Optional[object], token: int, cycle: int) -> None:
        """Merge a demand access into this request.

        If this request was issued as a prefetch and has not returned yet,
        the demand merging into it marks the prefetch *late* (paper
        Section V-A: late prefetches show up as intra-core merges, which in
        GPGPUs indicate benefit rather than harm).
        """
        if self.is_prefetch:
            self.is_prefetch = False
            self.late_prefetch = True
            channel = self.dram_channel
            if channel is not None:
                # Propagate the promotion into the DRAM scheduling index
                # eagerly; the reference scheduler re-derives the same
                # flag from the requester list at its next scan.
                self.dram_channel = None
                channel.promote_line(self.line_addr)
        if warp is not None and token >= 0:
            self.add_waiter(warp, token)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "store" if self.is_store else ("pref" if self.is_prefetch else "demand")
        return f"<MemoryRequest {kind} line=0x{self.line_addr:x} core={self.core_id}>"
