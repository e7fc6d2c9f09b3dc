"""Off-chip DRAM model: channels, banks, row buffers, request buffers.

Paper Table II configures 8 channels and 16 banks with 2KB pages, 57.6 GB/s
of bandwidth, and tCL/tRCD/tRP timings; demand requests have higher priority
than prefetch requests.  Paper Fig. 2b: requests from different cores are
buffered in the memory-request buffer of the DRAM controller, and an
overlapping new request merges with the buffered one (*inter-core merging*)
— this is what occasionally salvages inter-thread prefetches issued from the
wrong core (Section III-A2).

Scheduling per channel is FR-FCFS-like with strict demand-over-prefetch
priority: demand first, then open-row hits, then arrival order.  The data
bus serializes one 64B burst per ``burst_cycles``; bank preparation
(precharge/activate) overlaps with earlier bursts.

Two pick implementations coexist.  The *indexed* scheduler (default)
maintains per-priority-class arrival heaps plus per-bank, per-row
buckets so each pick inspects at most one bucket head per bank with
queued rows instead of scanning the whole request buffer; late-prefetch
promotions are pushed eagerly into the demand index by a hook on
:meth:`~repro.sim.memory_request.MemoryRequest.merge_demand`, which
reaches the channel through the request's weak ``dram_channel`` proxy
(:meth:`DramChannel.promote_line`).  No request or buffer entry holds a
strong reference back to its channel, so a finished machine is freed by
reference counting.  The original linear scan is retained behind
``DramConfig.reference_scheduler`` as the differential reference the
diffcheck oracle and the property tests compare against.  Both paths key
ties by ``BufferEntry.seq`` (per-channel insertion order), which equals
the old pending-list scan order, so decisions are bit-identical.

Each channel *posts* its next-event cycle in ``due_cycle`` and
:class:`Dram` keeps the minimum over its channels, so the simulator's run
loop steps DRAM only on cycles where some channel is due and reads the
posted minimum as its event candidate instead of polling every channel.
A channel recomputes its posting after its own :meth:`DramChannel.step`
and updates it exactly on :meth:`DramChannel.arrive`; :data:`NEVER`
stands for "nothing scheduled".
"""

from __future__ import annotations

import heapq
import sys
import weakref
from typing import Dict, List, Optional, Tuple

from repro.sim.coalescer import LINE_BYTES
from repro.sim.config import DramConfig
from repro.sim.memory_request import MemoryRequest

#: Shared immutable "nothing completed" result, so the common idle-channel
#: step does not allocate a fresh list per channel per eventful cycle.
_NO_ENTRIES: Tuple[()] = ()

#: Posted due cycle of a component with nothing scheduled: later than any
#: cycle a run reaches, so it never wins a minimum over event candidates.
NEVER = sys.maxsize


class BufferEntry:
    """One line-sized transaction in a channel's request buffer.

    Multiple :class:`MemoryRequest` objects (possibly from different cores)
    can ride one entry via inter-core merging.
    """

    __slots__ = (
        "line_addr", "bank", "row", "requesters", "is_store", "arrival",
        "ready_cycle", "demand", "seq", "queued",
    )

    def __init__(
        self,
        line_addr: int,
        bank: int,
        row: int,
        request: MemoryRequest,
        arrival: int,
        ready_cycle: int,
    ) -> None:
        self.line_addr = line_addr
        self.bank = bank
        self.row = row
        self.requesters: List[MemoryRequest] = [request]
        self.is_store = request.is_store
        self.arrival = arrival
        # The controller/GDDR protocol pipeline is modelled on the request
        # path: the entry becomes schedulable only after traversing it.  A
        # demand that merges into an in-flight prefetch therefore inherits
        # the prefetch's pipeline progress — the head start is real.
        self.ready_cycle = ready_cycle
        self.demand = request.is_demand
        # Index bookkeeping.  ``seq`` is the per-channel insertion order —
        # the FR-FCFS tie-breaker, equal to the entry's scan position in
        # the reference implementation.  ``queued`` is the lazy-deletion
        # marker for the index heaps.
        self.seq = -1
        self.queued = False

    def merge(self, request: MemoryRequest) -> None:
        self.requesters.append(request)
        if request.is_demand:
            self.demand = True

    def is_demand_now(self) -> bool:
        """Current priority class of this entry.

        A prefetch can be promoted to demand priority *after* it was sent:
        a demand access merging into the in-flight request at the core's
        MRQ (a late prefetch) flips the request object's ``is_prefetch``,
        and the scheduler must honour the promotion or merged demands
        starve behind the pure-demand stream.
        """
        if self.demand:
            return True
        for request in self.requesters:
            if request.is_demand:
                self.demand = True
                return True
        return False


class _Bank:
    """Per-bank row-buffer state.

    ``row_ready_cycle`` is when the currently-open row became (or becomes)
    usable; column accesses to an open row pipeline at burst cadence, so a
    streaming sequence of row hits is limited by the channel data bus, not
    by the bank.
    """

    __slots__ = ("row_ready_cycle", "open_row")

    def __init__(self) -> None:
        self.row_ready_cycle = 0
        self.open_row: Optional[int] = None


class DramChannel:
    """One DRAM channel: banks, a request buffer, and a shared data bus."""

    __slots__ = (
        "channel_id", "config", "banks", "pending", "_by_line", "_completing",
        "_completion_seq", "_entry_seq", "_demand_all", "_demand_rows",
        "_other_all", "_other_rows", "_dp", "_reference", "bus_busy_until",
        "next_pick_cycle", "due_cycle", "row_hits", "row_misses",
        "lines_transferred", "inter_core_merges", "_proxy",
        "__weakref__",  # prefetch riders hold the channel weakly
    )

    #: Fields a snapshot does not store (see :mod:`repro.sim.checkpoint`):
    #: the config and the channel's own weak proxy, and the scheduling
    #: index, which :meth:`after_restore` rebuilds from the restored
    #: buffer.
    snapshot_static = ("config", "_proxy")
    snapshot_derived = ("_demand_all", "_demand_rows", "_other_all", "_other_rows")

    def __init__(self, channel_id: int, config: DramConfig) -> None:
        self.channel_id = channel_id
        self.config = config
        self.banks = [_Bank() for _ in range(config.banks_per_channel)]
        # ``pending`` maps entry.seq -> entry in insertion order (dict
        # iteration order), giving O(1) removal by seq where the old list
        # needed an O(n) pop-by-index.
        self.pending: Dict[int, BufferEntry] = {}
        self._by_line: Dict[int, BufferEntry] = {}
        self._completing: List[Tuple[int, int, BufferEntry]] = []
        # FIFO tiebreaker of the completion heap's tuples: the next
        # sequence number to hand out.
        self._completion_seq = 0
        # Indexed-scheduler state.  Each heap holds (seq, entry) with lazy
        # deletion: an entry is live in the demand heaps iff it is still
        # queued, and live in the other heaps iff it is queued and has not
        # been promoted to the demand class.  Row buckets are keyed by bank,
        # then row, so a row-hit search looks up one bucket per bank that
        # has queued rows, and an open-row change re-targets it for free.
        self._entry_seq = 0
        self._demand_all: List[Tuple[int, BufferEntry]] = []
        self._demand_rows: Dict[int, Dict[int, List[Tuple[int, BufferEntry]]]] = {}
        self._other_all: List[Tuple[int, BufferEntry]] = []
        self._other_rows: Dict[int, Dict[int, List[Tuple[int, BufferEntry]]]] = {}
        self._dp = config.demand_priority
        self._reference = config.reference_scheduler
        self.bus_busy_until = 0
        self.next_pick_cycle = 0
        #: Posted next-event cycle: :meth:`step` may act at ``cycle`` only
        #: when ``due_cycle <= cycle``.  After a step it equals
        #: :meth:`next_event_cycle`; an arrival lowers it exactly to the
        #: cycle its new entry becomes schedulable or completes.
        self.due_cycle = NEVER
        # Statistics.
        self.row_hits = 0
        self.row_misses = 0
        self.lines_transferred = 0
        self.inter_core_merges = 0
        #: What a buffered prefetch's ``dram_channel`` holds: a weak
        #: proxy, so a request never keeps its channel alive and a
        #: finished machine frees by reference counting.
        self._proxy = weakref.proxy(self)

    def arrive(self, request: MemoryRequest, bank: int, row: int, cycle: int) -> None:
        """Accept a request from the interconnect, merging when possible.

        Updates the posted ``due_cycle``: a merge leaves it alone, and a
        buffered entry lowers it to the entry's ready cycle only when the
        buffer was empty -- behind an older entry it becomes ready no
        earlier than that entry, which the posting already covers.
        """
        if not request.is_store:
            entry = self._by_line.get(request.line_addr)
            if entry is not None and not entry.is_store:
                was_demand = entry.demand
                entry.merge(request)
                self.inter_core_merges += 1
                if entry.queued:
                    if request.is_prefetch:
                        # A late demand at this rider's MRQ must still be
                        # able to promote the shared buffer entry.
                        request.dram_channel = self._proxy
                    elif not was_demand:
                        self.promote(entry)
                return
        ready = cycle + self.config.pipeline_latency
        if not self.pending and ready < self.due_cycle:
            self.due_cycle = ready
        entry = BufferEntry(request.line_addr, bank, row, request, cycle, ready)
        seq = self._entry_seq
        self._entry_seq = seq + 1
        entry.seq = seq
        entry.queued = True
        self.pending[seq] = entry
        self._index(entry)
        if request.is_prefetch:
            request.dram_channel = self._proxy
        if not entry.is_store:
            self._by_line[request.line_addr] = entry

    def _index(self, entry: BufferEntry) -> None:
        """Push a queued entry into its priority class's heaps."""
        item = (entry.seq, entry)
        if entry.demand and self._dp:
            heapq.heappush(self._demand_all, item)
            rows = self._demand_rows
        else:
            heapq.heappush(self._other_all, item)
            rows = self._other_rows
        bank_rows = rows.get(entry.bank)
        if bank_rows is None:
            rows[entry.bank] = {entry.row: [item]}
            return
        bucket = bank_rows.get(entry.row)
        if bucket is None:
            bank_rows[entry.row] = [item]
        else:
            heapq.heappush(bucket, item)

    def promote(self, entry: BufferEntry) -> None:
        """Move a buffered entry into the demand priority class.

        Called eagerly when a demand merges into one of the entry's
        requests — either inter-core (at :meth:`arrive`) or intra-core at
        the originating MRQ (the ``merge_demand`` late-prefetch hook) —
        replacing the reference scheduler's per-pick lazy scan of every
        requester.  The stale copy left in the non-demand heaps is
        discarded lazily at pop time.
        """
        entry.demand = True
        if entry.queued and self._dp:
            self._index(entry)

    def promote_line(self, line_addr: int) -> None:
        """Promote the queued entry buffering ``line_addr``.

        The late-prefetch hook: ``MemoryRequest.merge_demand`` calls it
        through a prefetch rider's ``dram_channel``, which is set only
        while the rider's entry is queued.  A line has one entry in
        ``_by_line`` from its arrival until it completes, so the lookup
        finds exactly the entry the rider is on.
        """
        self.promote(self._by_line[line_addr])

    def _pick_reference(self, cycle: int) -> Optional[BufferEntry]:
        """Linear-scan pick: demand > row-hit > oldest (reference impl).

        The original O(buffer) scan, retained behind
        ``DramConfig.reference_scheduler`` as the differential oracle the
        indexed scheduler is checked against.  The
        :meth:`BufferEntry.is_demand_now` promotion check is inlined as
        plain attribute reads and the priority key is two small ints
        instead of a per-entry tuple.
        """
        best_entry = None
        best_p = 4  # one past the worst possible priority class
        best_arrival = 0
        banks = self.banks
        demand_priority = self._dp
        for entry in self.pending.values():
            if entry.ready_cycle > cycle:
                continue
            demand = entry.demand
            if not demand:
                # Inlined is_demand_now(): a late-prefetch promotion flips
                # a requester's is_prefetch after the entry was buffered,
                # and the scheduler must honour it (see is_demand_now).
                for request in entry.requesters:
                    if not request.is_prefetch and not request.is_store:
                        entry.demand = demand = True
                        break
            p = 0 if (demand_priority and demand) else 2
            if banks[entry.bank].open_row != entry.row:
                p += 1
            if p < best_p or (p == best_p and entry.arrival < best_arrival):
                best_p = p
                best_arrival = entry.arrival
                best_entry = entry
        return best_entry

    def _best_in_class(
        self,
        all_heap: List[Tuple[int, BufferEntry]],
        row_buckets: Dict[int, Dict[int, List[Tuple[int, BufferEntry]]]],
        cycle: int,
        demand_class: bool,
        pop: heapq.heappop = heapq.heappop,  # type: ignore[assignment]
    ) -> Optional[BufferEntry]:
        """Best schedulable entry within one priority class (row-hit first).

        Within a class the winner is the oldest ready row hit if any
        exists, else the oldest ready entry.  Both reductions exploit that
        ``ready_cycle`` is non-decreasing in ``seq`` (every pending entry's
        ready cycle is its arrival plus the constant pipeline latency), so
        an unready heap head proves the whole heap unready.
        """
        dp = self._dp
        while all_heap:
            seq, entry = all_heap[0]
            if entry.queued and (not dp or entry.demand == demand_class):
                break
            pop(all_heap)
        else:
            return None
        head = all_heap[0][1]
        if head.ready_cycle > cycle:
            return None  # oldest entry unready => whole class unready
        banks = self.banks
        if banks[head.bank].open_row == head.row:
            # Oldest entry in the class is itself a row hit: unbeatable.
            return head
        # Oldest ready row hit: one bucket lookup per bank with queued
        # rows in this class; any row hit outranks the (row-miss) class
        # head regardless of age.  Stale bucket heads are dropped on the
        # way, and so is a bucket (or a bank) they leave empty.
        best_seq = None
        best = head
        emptied = []
        for bank_index, bank_rows in row_buckets.items():
            row = banks[bank_index].open_row
            bucket = bank_rows.get(row)
            if bucket is None:
                continue
            while bucket:
                seq, entry = bucket[0]
                if entry.queued and (not dp or entry.demand == demand_class):
                    break
                pop(bucket)
            else:
                del bank_rows[row]
                if not bank_rows:
                    emptied.append(bank_index)
                continue
            if entry.ready_cycle <= cycle and (best_seq is None or seq < best_seq):
                best_seq = seq
                best = entry
        for bank_index in emptied:
            del row_buckets[bank_index]
        # A ready row hit beats every row miss; otherwise the class head
        # (ready, oldest, necessarily a row miss here) wins.
        return best

    def _pick_indexed(self, cycle: int) -> Optional[BufferEntry]:
        """Index-driven pick, decision-identical to :meth:`_pick_reference`.

        Inspects at most one heap head per bank per priority class, and
        only banks with queued rows in that class, instead of scanning the
        whole request buffer.  Late-prefetch
        promotions are applied eagerly by :meth:`promote` (hooked from
        ``MemoryRequest.merge_demand``), so the demand heaps are always
        current when a pick happens.
        """
        if self._dp and self._demand_all:
            entry = self._best_in_class(
                self._demand_all, self._demand_rows, cycle, True
            )
            if entry is not None:
                return entry
        return self._best_in_class(self._other_all, self._other_rows, cycle, False)

    def step(self, cycle: int) -> List[BufferEntry]:
        """Advance scheduling up to ``cycle``; return completed entries.

        Re-posts ``due_cycle`` as :meth:`next_event_cycle` afterwards.
        """
        pick = self._pick_reference if self._reference else self._pick_indexed
        while self.pending and self.next_pick_cycle <= cycle:
            entry = pick(cycle)
            if entry is None:
                break
            del self.pending[entry.seq]
            entry.queued = False
            for request in entry.requesters:
                request.dram_channel = None
            start = self.next_pick_cycle
            ready = entry.ready_cycle
            self._service(entry, ready if ready > start else start)
        heap = self._completing
        if not heap or heap[0][0] > cycle:
            completed = _NO_ENTRIES
        else:
            completed = []
            heappop = heapq.heappop
            while heap and heap[0][0] <= cycle:
                done_cycle, _, entry = heappop(heap)
                if not entry.is_store:
                    self._by_line.pop(entry.line_addr, None)
                completed.append(entry)
        due = self.next_event_cycle(cycle)
        self.due_cycle = NEVER if due is None else due
        return completed

    def _service(self, entry: BufferEntry, pick_cycle: int) -> None:
        bank = self.banks[entry.bank]
        cfg = self.config
        row = entry.row
        open_row = bank.open_row
        if open_row == row:
            # Row hit: column accesses pipeline; only tCL from the command
            # plus data-bus availability constrain the burst.
            row_ready = bank.row_ready_cycle
            self.row_hits += 1
        else:
            # Row miss: activate the row, after precharging an open one.
            row_ready = pick_cycle + cfg.t_rcd
            if open_row is not None:
                row_ready += cfg.t_rp
            self.row_misses += 1
        cas_cycle = row_ready if row_ready > pick_cycle else pick_cycle
        burst_start = cas_cycle + cfg.t_cl
        if burst_start < self.bus_busy_until:
            burst_start = self.bus_busy_until
        done = burst_start + cfg.burst_cycles
        bank.open_row = row
        bank.row_ready_cycle = row_ready
        self.bus_busy_until = done
        self.next_pick_cycle = burst_start
        self.lines_transferred += 1
        heapq.heappush(self._completing, (done, self._completion_seq, entry))
        self._completion_seq += 1

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which this channel can make progress."""
        best: Optional[int] = self._completing[0][0] if self._completing else None
        if self.pending:
            min_ready: Optional[int] = None
            any_ready = False
            if self._reference:
                for entry in self.pending.values():
                    ready = entry.ready_cycle
                    if ready <= cycle:
                        any_ready = True
                        break
                    if min_ready is None or ready < min_ready:
                        min_ready = ready
            else:
                # ``pending`` is insertion-ordered by the monotonic seq
                # and ``ready_cycle`` is non-decreasing in seq, so the
                # first entry carries the minimum ready cycle — the only
                # two facts this computation needs from the buffer.
                oldest = next(iter(self.pending.values()))
                if oldest.ready_cycle <= cycle:
                    any_ready = True
                else:
                    min_ready = oldest.ready_cycle
            if any_ready:
                pick = self.next_pick_cycle
                if pick <= cycle:
                    pick = cycle + 1
                if best is None or pick < best:
                    best = pick
            elif min_ready is not None and (best is None or min_ready < best):
                best = min_ready
        return best

    @property
    def idle(self) -> bool:
        return not self.pending and not self._completing

    def after_restore(self) -> None:
        """Rebuild the scheduling index from the restored request buffer.

        The class heaps and row buckets are derived from ``pending``
        (entries keep their ``seq``, so relative age — the FR-FCFS
        tie-breaker — is exact); stale lazy-deletion items the original
        heaps carried are simply not rebuilt.  Prefetch riders of a
        queued entry get their ``dram_channel`` back, so a late demand
        can still promote it.
        """
        self._demand_all = []
        self._demand_rows = {}
        self._other_all = []
        self._other_rows = {}
        for entry in self.pending.values():
            self._index(entry)
            for request in entry.requesters:
                if request.is_prefetch:
                    request.dram_channel = self._proxy


class Dram:
    """The full DRAM subsystem: address mapping plus all channels.

    Address mapping interleaves 64B lines (:data:`LINE_BYTES`) across
    channels, then groups ``row_bytes`` of per-channel lines into rows
    striped over banks, so a contiguous sweep of physical memory produces
    row hits on every channel.
    """

    __slots__ = ("config", "channels", "_lines_per_row", "due_cycle")

    #: The config is rebuilt at construction; a snapshot does not store it.
    snapshot_static = ("config",)

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.channels = [DramChannel(i, config) for i in range(config.num_channels)]
        self._lines_per_row = max(1, config.row_bytes // LINE_BYTES)
        #: Minimum of the channels' posted ``due_cycle``: the run loop
        #: steps DRAM only when it is due and reads it as its DRAM event.
        self.due_cycle = NEVER

    def map_address(self, line_addr: int) -> Tuple[int, int, int]:
        """Return (channel, bank, row) for a 64B-aligned line address.

        The channel index XOR-folds higher address bits so power-of-two
        strides (e.g. a 2KB-strided uncoalesced sweep) do not camp on one
        channel — the standard anti-camping hash real memory controllers
        use.
        """
        line = line_addr // LINE_BYTES
        channels = self.config.num_channels
        channel = (
            line ^ (line >> 3) ^ (line >> 6) ^ (line >> 9) ^ (line >> 12)
            ^ (line >> 15) ^ (line >> 18)
        ) % channels
        local = line // channels
        bank = (local // self._lines_per_row) % self.config.banks_per_channel
        row = local // (self._lines_per_row * self.config.banks_per_channel)
        return channel, bank, row

    def arrive(self, request: MemoryRequest, cycle: int) -> None:
        index, bank, row = self.map_address(request.line_addr)
        channel = self.channels[index]
        channel.arrive(request, bank, row, cycle)
        if channel.due_cycle < self.due_cycle:
            self.due_cycle = channel.due_cycle

    def step(self, cycle: int) -> List[BufferEntry]:
        """Advance every due channel; return all completed entries.

        A channel whose posted ``due_cycle`` is later than ``cycle`` would
        do nothing if stepped, so it is skipped.
        """
        completed: List[BufferEntry] = []
        due = NEVER
        for channel in self.channels:
            if channel.due_cycle <= cycle:
                done = channel.step(cycle)
                if done:
                    completed.extend(done)
            if channel.due_cycle < due:
                due = channel.due_cycle
        self.due_cycle = due
        return completed

    def inflight_requests(self) -> List[MemoryRequest]:
        """Every request buffered or completing in any channel (invariants)."""
        requests: List[MemoryRequest] = []
        for channel in self.channels:
            for entry in channel.pending.values():
                requests.extend(entry.requesters)
            for _, _, entry in channel._completing:
                requests.extend(entry.requesters)
        return requests

    def buffered_requests(self) -> int:
        """Line transactions currently buffered or completing, all channels.

        The telemetry occupancy gauge for the memory controllers: counts
        :class:`BufferEntry` transactions (merged requesters ride one
        entry), pending plus in-completion, at the sample instant.
        """
        return sum(
            len(channel.pending) + len(channel._completing)
            for channel in self.channels
        )

    @property
    def idle(self) -> bool:
        return all(channel.idle for channel in self.channels)

    @property
    def total_lines_transferred(self) -> int:
        return sum(channel.lines_transferred for channel in self.channels)

    @property
    def total_row_hits(self) -> int:
        return sum(channel.row_hits for channel in self.channels)

    @property
    def total_row_misses(self) -> int:
        return sum(channel.row_misses for channel in self.channels)

    @property
    def total_inter_core_merges(self) -> int:
        return sum(channel.inter_core_merges for channel in self.channels)

