"""Core<->memory interconnection network.

Paper Table II: "20-cycle fixed latency, at most 1 req. from every 2 cores
per cycle".  We model the request path as an injection-limited arbiter
(a budget of ``num_cores / cores_per_injection_slot`` requests per cycle,
granted round-robin over the cores) feeding a fixed-latency pipe.
Responses ride a fixed-latency return pipe without a bandwidth limit (the
paper does not constrain the response path).

The run loop visits only eventful cycles, so the arbiter grants at a
visit the budget of every cycle since the loop's previous visit
(:attr:`Interconnect.last_visit`), in one batch; nothing carries over
from one visit to the next.  The injection schedule therefore depends on
which cycles the loop visits, not only on what the cores queue: a loop
visiting every cycle would grant at most one cycle's budget per visit.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.sim.config import InterconnectConfig
from repro.sim.memory_request import MemoryRequest
from repro.sim.mrq import MemoryRequestQueue

if TYPE_CHECKING:
    from repro.sim.dram import BufferEntry


class Interconnect:
    """Fixed-latency, injection-limited request/response network."""

    __slots__ = (
        "config", "num_cores", "slots_per_cycle", "_rr_pointer", "last_visit",
        "_to_memory", "_to_core", "_seq", "total_injected",
    )

    #: The config is rebuilt at construction; a snapshot does not store it.
    snapshot_static = ("config",)

    def __init__(self, config: InterconnectConfig, num_cores: int) -> None:
        self.config = config
        self.num_cores = num_cores
        self.slots_per_cycle = max(1, num_cores // config.cores_per_injection_slot)
        self._rr_pointer = 0
        #: The run loop's previous visited cycle: it calls
        #: :meth:`inject_requests`, or sets this itself on a visit with
        #: nothing to send.
        self.last_visit = 0
        self._to_memory: List[Tuple[int, int, MemoryRequest]] = []
        self._to_core: List[Tuple[int, int, int, MemoryRequest]] = []
        # FIFO tiebreaker of both pipes' heap tuples: the next sequence
        # number to hand out.
        self._seq = 0
        self.total_injected = 0

    def inject_requests(self, cycle: int, mrqs: List[MemoryRequestQueue]) -> bool:
        """Arbiter: pull sendable requests from the MRQs into the pipe.

        The budget is ``slots_per_cycle`` per cycle since
        :attr:`last_visit` (none at elapsed 0); what a visit leaves
        unused is lost.  Grants go round-robin over the cores whose MRQ
        holds a sendable request: each goes to the first such core at or
        past ``_rr_pointer``, which then points past it.  Returns whether
        any MRQ still holds a sendable request -- the run loop's exact
        send-pending flag.
        """
        budget = (cycle - self.last_visit) * self.slots_per_cycle
        self.last_visit = cycle
        ready = [core_id for core_id, mrq in enumerate(mrqs) if mrq._send_queue]
        if not budget or not ready:
            return bool(ready)
        # Loads and stores share the request pipe: stores traverse the
        # network and consume DRAM write bandwidth but carry no response.
        arrival = cycle + self.config.latency
        heappush = heapq.heappush
        to_memory = self._to_memory
        seq = self._seq
        granted = 0
        # Injection never refills a send queue, so a core leaves the
        # round once its queue is empty.
        at = bisect_left(ready, self._rr_pointer)
        while True:
            if at == len(ready):
                at = 0
            core_id = ready[at]
            mrq = mrqs[core_id]
            heappush(to_memory, (arrival, seq, mrq.pop_sendable(cycle)))
            seq += 1
            granted += 1
            if mrq._send_queue:
                at += 1
            else:
                del ready[at]
            if granted == budget or not ready:
                break
        self._seq = seq
        self.total_injected += granted
        core_id += 1
        self._rr_pointer = core_id if core_id < self.num_cores else 0
        return bool(ready)

    def send_responses(self, cycle: int, entries: Sequence["BufferEntry"]) -> None:
        """Route completed DRAM entries back to their cores.

        Every requester of a load entry gets a response after the fixed
        latency, in entry then requester order; a store gets none.
        """
        arrival = cycle + self.config.latency
        heappush = heapq.heappush
        to_core = self._to_core
        seq = self._seq
        for entry in entries:
            if entry.is_store:
                continue
            for request in entry.requesters:
                heappush(to_core, (arrival, seq, request.core_id, request))
                seq += 1
        self._seq = seq

    def pop_memory_arrivals(self, cycle: int) -> List[MemoryRequest]:
        """Requests reaching the memory controllers at or before ``cycle``."""
        heap = self._to_memory
        arrivals = []
        heappop = heapq.heappop
        while heap and heap[0][0] <= cycle:
            arrivals.append(heappop(heap)[2])
        return arrivals

    def pop_core_arrivals(self, cycle: int) -> List[Tuple[int, MemoryRequest]]:
        """(core_id, request) responses arriving at or before ``cycle``."""
        heap = self._to_core
        arrivals = []
        heappop = heapq.heappop
        while heap and heap[0][0] <= cycle:
            _, _, core_id, request = heappop(heap)
            arrivals.append((core_id, request))
        return arrivals

    def inflight_requests(self) -> List[MemoryRequest]:
        """Every request currently traversing either pipe (for invariants)."""
        requests = [item[2] for item in self._to_memory]
        requests.extend(item[3] for item in self._to_core)
        return requests

    def inflight_counts(self) -> Tuple[int, int]:
        """(requests toward memory, responses toward cores) in flight."""
        return len(self._to_memory), len(self._to_core)

    def next_event_cycle(self) -> Optional[int]:
        """Earliest in-flight arrival, for the simulator's cycle skipping."""
        to_memory = self._to_memory
        to_core = self._to_core
        if to_memory:
            a = to_memory[0][0]
            if to_core:
                b = to_core[0][0]
                return a if a < b else b
            return a
        if to_core:
            return to_core[0][0]
        return None

    @property
    def idle(self) -> bool:
        """True when nothing is in flight in either direction."""
        return not self._to_memory and not self._to_core
