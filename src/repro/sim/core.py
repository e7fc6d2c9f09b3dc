"""SIMT core model: warp scheduling, issue, memory access, prefetch engine.

Models one streaming multiprocessor of the Table II baseline:

* an in-order scheduler issuing one warp-instruction at a time, occupying the
  8-wide SIMD issue port for 4 cycles per warp (16 for IMUL, 32 for FDIV),
  switching warps loosely round-robin when the current warp's operands are
  not ready;
* a scoreboard permitting multiple outstanding loads per warp — a warp only
  blocks when the *next* instruction depends on a pending load;
* memory access through the prefetch cache (1-cycle hit), then the MRQ with
  intra-core merging;
* the prefetch engine: a pluggable hardware prefetcher trained on the demand
  global-load stream, software PREFETCH instructions from the trace, and the
  adaptive throttle engine gating both (paper Fig. 9).

Thread blocks are dispatched to the core up to the kernel's occupancy limit;
when a block's warps all retire, the core pulls the next block from the
GPU-wide queue.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import HardwarePrefetcher
from repro.core.throttle import ThrottleEngine, ThrottleWindow
from repro.sim.caches import PrefetchCache
from repro.sim.coalescer import LINE_BYTES
from repro.sim.config import GpuConfig
from repro.sim.isa import Op, WarpInstruction
from repro.sim.memory_request import MemoryRequest
from repro.sim.mrq import MemoryRequestQueue
from repro.sim.warp import Warp

#: A thread block handed to a core: (block_id, [(warp_id, instruction stream)]).
Block = Tuple[int, Sequence[Tuple[int, List[WarpInstruction]]]]


class Core:
    """One SIMT core (SM) of the simulated GPU."""

    __slots__ = (
        "core_id", "config", "prefetcher", "throttle", "mrq", "pcache", "warps",
        "_block_warps", "max_blocks", "port_free_cycle", "_rr_index",
        "_issuable", "blocked", "woken",
        "_unfinished", "profiler", "_issue_cycles", "instructions",
        "prefetch_instructions", "demand_loads",
        "demand_lines_to_memory", "demand_latency_sum", "demand_latency_count",
        "prefetch_generated", "prefetch_throttled", "prefetch_redundant",
        "prefetch_issued", "late_prefetches", "stall_cycles", "warps_assigned",
        "warps_retired", "_window_base",
        "__weakref__",  # the MRQ's owner_core is a weak proxy
    )

    #: Fields a snapshot does not store (see :mod:`repro.sim.checkpoint`):
    #: the config and the issue-latency table built from it, and the
    #: simulator's profiler reference.
    snapshot_static = ("config", "profiler", "_issue_cycles")
    #: The issue mask, rebuilt by :meth:`after_restore`.
    snapshot_derived = ("_issuable",)

    def __init__(
        self,
        core_id: int,
        config: GpuConfig,
        prefetcher: Optional[HardwarePrefetcher] = None,
        throttle: Optional[ThrottleEngine] = None,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.prefetcher = prefetcher
        self.throttle = throttle or ThrottleEngine(config.throttle)
        self.mrq = MemoryRequestQueue(core_id, config.core.mrq_size)
        self.pcache = PrefetchCache(config.prefetch_cache)
        self.warps: List[Warp] = []
        self._block_warps: Dict[int, int] = {}
        self.max_blocks = 1
        self.port_free_cycle = 0
        self._rr_index = 0
        # One bit per position of ``warps`` whose warp is unfinished and
        # not parked on a load token.
        self._issuable = 0
        # The GPU main loop polls a core only while its port is free.  A
        # core whose scan failed is ``blocked`` until a response, a block
        # dispatch or a store freed at injection sets ``woken``; while it
        # holds warps, its skipped polls accrue stall_cycles exactly as
        # the polled scans would have.
        self.blocked = False
        self.woken = False
        self.mrq.owner_core = weakref.proxy(self)
        # Count of resident warps that have not finished their stream,
        # maintained by assign/issue so :attr:`drained` is O(1) — the GPU
        # main loop polls it every eventful cycle.
        self._unfinished = 0
        #: Optional :class:`~repro.sim.profiling.SimProfiler` attached by
        #: the simulator; when set, prefetcher table lookups are timed.
        self.profiler = None
        self._issue_cycles = {
            Op.COMPUTE: config.core.issue_cycles_default,
            Op.IMUL: config.core.issue_cycles_imul,
            Op.FDIV: config.core.issue_cycles_fdiv,
            Op.LOAD: config.core.issue_cycles_default,
            Op.STORE: config.core.issue_cycles_default,
            Op.PREFETCH: config.core.issue_cycles_default,
        }
        # Statistics (run totals).
        self.instructions = 0
        self.prefetch_instructions = 0
        self.demand_loads = 0
        self.demand_lines_to_memory = 0
        self.demand_latency_sum = 0
        self.demand_latency_count = 0
        self.prefetch_generated = 0
        self.prefetch_throttled = 0
        self.prefetch_redundant = 0
        self.prefetch_issued = 0
        self.late_prefetches = 0
        self.stall_cycles = 0
        # Warp-lifetime ledger (invariant: assigned == retired + active).
        self.warps_assigned = 0
        self.warps_retired = 0
        # The run totals :meth:`periodic_update` read at the previous
        # throttle-period boundary.
        self._window_base = (0,) * 7

    # ------------------------------------------------------------------
    # Block / warp management
    # ------------------------------------------------------------------

    def assign_block(self, block: Block) -> None:
        """Make a thread block's warps resident on this core."""
        self.woken = True
        block_id, warp_specs = block
        self._block_warps[block_id] = len(warp_specs)
        self.warps_assigned += len(warp_specs)
        for warp_id, stream in warp_specs:
            warp = Warp(warp_id, block_id, stream)
            self.warps.append(warp)
            if not warp.finished:
                self._unfinished += 1
        self._reindex()

    def _reindex(self) -> None:
        """Number the warps by position and rebuild the issue mask."""
        mask = 0
        for slot, warp in enumerate(self.warps):
            warp.slot = slot
            if not (warp.finished or warp.parked):
                mask |= 1 << slot
        self._issuable = mask

    def after_restore(self) -> None:
        """Rebuild the issue mask, every warp unparked (the scan re-parks)."""
        for warp in self.warps:
            warp.parked = False
        self._reindex()

    @property
    def resident_blocks(self) -> int:
        """Number of thread blocks currently resident on this core."""
        return len(self._block_warps)

    def has_free_block_slot(self) -> bool:
        """True when another thread block can be made resident."""
        return len(self._block_warps) < self.max_blocks

    def active_warp_count(self) -> int:
        """Count of resident warps that have not finished (recomputed).

        Deliberately recounts the warp list rather than returning the
        incrementally-maintained counter, so the invariant checker can
        cross-check the two.
        """
        return sum(1 for w in self.warps if not w.finished)

    def warps_blocked_on_memory(self) -> int:
        """Resident warps whose next instruction waits on an in-flight line.

        The telemetry gauge behind "warps blocked on memory": a warp
        counts when it still has work but cannot issue until an
        outstanding load it depends on returns.  Read at window-close
        sample points only — it walks the warp list, so it is kept off
        the per-cycle hot path.
        """
        return sum(
            1 for warp in self.warps
            if not warp.finished and warp.blocked_on_tokens()
        )

    @property
    def drained(self) -> bool:
        """True when no resident warp has work left (O(1))."""
        return not self._block_warps and self._unfinished == 0

    def _retire_warp(self, warp: Warp) -> None:
        """Account a warp that just finished; compact out a done block."""
        self._unfinished -= 1
        self._issuable ^= 1 << warp.slot
        remaining = self._block_warps.get(warp.block_id)
        if remaining is None:
            return
        self.warps_retired += 1
        if remaining <= 1:
            del self._block_warps[warp.block_id]
            done_block = warp.block_id
            self.warps = [
                w for w in self.warps if not (w.finished and w.block_id == done_block)
            ]
            self._reindex()
        else:
            self._block_warps[warp.block_id] = remaining - 1

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------

    def try_issue(self, cycle: int) -> bool:
        """Issue one warp-instruction if any warp can; True when one did.

        Called only while the port is free and the core is not blocked.
        The scan meets the warps whose issue-mask bit is set, from
        ``_rr_index`` (wrapped once: a retired block may have been
        compacted out from under it) upward, then from position 0.  A warp
        whose next instruction waits on an incomplete load token is
        parked: it loses its bit until :meth:`on_response` completes the
        token.  A failed scan has no side effect beyond the stall it
        counts and the warps it parks, so it blocks the core until a wake
        event.  An issue sets only ``_rr_index`` besides the port;
        non-memory instructions, the bulk of every stream, issue inline.
        """
        warps = self.warps
        num_warps = len(warps)
        if num_warps == 0:
            # Nothing resident: only a block dispatch (or a straggler
            # response) changes anything, and both set ``woken``.
            self.blocked = True
            self.woken = False
            return False
        mask = self._issuable
        start = self._rr_index
        if start >= num_warps:
            start -= num_warps
        high = mask >> start << start
        for bits in (high, mask ^ high):
            while bits:
                bit = bits & -bits
                bits ^= bit
                index = bit.bit_length() - 1
                warp = warps[index]
                inst = warp.stream[warp.pc_index]
                wait = inst.wait_tokens
                if wait and not warp.tokens_done.issuperset(wait):
                    warp.parked = True
                    self._issuable ^= bit
                    continue
                if not inst.is_memory:
                    # _issue and Warp.advance, inlined for the common case.
                    self.port_free_cycle = cycle + self._issue_cycles[inst.op]
                    self.instructions += 1
                    pc_index = warp.pc_index + 1
                    warp.pc_index = pc_index
                    if pc_index >= len(warp.stream):
                        warp.finished = True
                        self._retire_warp(warp)
                elif (
                    inst.global_memory
                    and inst.op != Op.PREFETCH
                    and not self._mrq_has_room(inst)
                ):
                    # Structural stall: MRQ space frees when a response
                    # arrives or a store is injected, both wake events.
                    # An instruction touches at most WARP_SIZE lines and
                    # the MRQ holds at least that many (CoreConfig), so
                    # an emptied MRQ always takes it.  A prefetch that
                    # does not fit still issues: a throttle-style
                    # structural drop never stalls the warp, the
                    # instruction retires and its requests are dropped.
                    continue
                else:
                    self._issue(warp, inst, cycle)
                index += 1
                self._rr_index = index if index < num_warps else 0
                return True
        # Nothing in the core changes by itself while its port is free,
        # so the outcome holds until a wake event; the run loop replays
        # this stall for every poll it skips meanwhile.
        self.stall_cycles += 1
        self.blocked = True
        self.woken = False
        return False

    def _mrq_has_room(self, inst: WarpInstruction) -> bool:
        """Conservatively check MRQ space for a memory instruction.

        A line needs a fresh entry unless it is in flight or, for a load,
        in the prefetch cache.  Fast path: fresh entries needed can never
        exceed the instruction's line count, so when even that worst case
        fits the per-line MRQ and prefetch-cache probes are skipped.
        """
        mrq = self.mrq
        room = mrq.size - len(mrq)
        lines = inst.lines
        if len(lines) <= room:
            return True
        is_load = inst.op == Op.LOAD
        pcache = self.pcache
        needed = 0
        for line in lines:
            if mrq.lookup(line) is None and not (is_load and pcache.contains(line)):
                needed += 1
        return needed <= room

    def _issue(self, warp: Warp, inst: WarpInstruction, cycle: int) -> None:
        """Issue one warp-instruction: occupy the port, run its side effects."""
        op = inst.op
        self.port_free_cycle = cycle + self._issue_cycles[op]
        self.instructions += 1
        if op == Op.LOAD:
            self._issue_load(warp, inst, cycle)
        elif op == Op.STORE:
            self._issue_store(warp, inst, cycle)
        elif op == Op.PREFETCH:
            self.prefetch_instructions += 1
            self._issue_software_prefetch(warp, inst, cycle)
        warp.advance()
        if warp.finished:
            self._retire_warp(warp)

    def _issue_load(self, warp: Warp, inst: WarpInstruction, cycle: int) -> None:
        """Route a LOAD through the prefetch cache and MRQ; train prefetcher."""
        self.demand_loads += 1
        if not inst.global_memory or self.config.perfect_memory:
            # Shared/constant accesses (and all accesses under the perfect
            # memory model) complete immediately.
            warp.begin_load(inst.token, 0)
            return
        pending = 0
        for line in inst.lines:
            if self.pcache.demand_lookup(line):
                continue
            self.demand_lines_to_memory += 1
            request = self.mrq.access_demand(
                line, warp, inst.token, inst.pc, warp.warp_id, cycle
            )
            if request is None:
                # Pre-check said there was room; a same-instruction line
                # collision can only reduce the requirement, so this is
                # unreachable in practice — treat defensively as a hit.
                continue
            pending += 1
        warp.begin_load(inst.token, pending)
        self._observe_and_prefetch(warp, inst, cycle)

    def _observe_and_prefetch(
        self, warp: Warp, inst: WarpInstruction, cycle: int
    ) -> None:
        """Train the hardware prefetcher on one demand load (once)."""
        if self.prefetcher is not None:
            prof = self.profiler
            if prof is None:
                targets = self.prefetcher.observe(
                    inst.pc, warp.warp_id, inst.base_addr, cycle
                )
            else:
                t0 = perf_counter()
                targets = self.prefetcher.observe(
                    inst.pc, warp.warp_id, inst.base_addr, cycle
                )
                prof.wall["prefetcher"] += perf_counter() - t0
                prof.counts["prefetcher_lookups"] += 1
            if targets:
                footprint = len(inst.lines)
                self._issue_hw_prefetches(targets, inst, warp.warp_id, footprint, cycle)

    def _issue_store(self, warp: Warp, inst: WarpInstruction, cycle: int) -> None:
        """Route a STORE through the MRQ (fire-and-forget, no waiters)."""
        if not inst.global_memory or self.config.perfect_memory:
            return
        for line in inst.lines:
            self.mrq.access_store(line, inst.pc, warp.warp_id, cycle)

    # ------------------------------------------------------------------
    # Prefetch request path (Fig. 9: throttle engine gates all prefetches)
    # ------------------------------------------------------------------

    def _issue_hw_prefetches(
        self,
        targets: Sequence[int],
        inst: WarpInstruction,
        warp_id: int,
        footprint_lines: int,
        cycle: int,
    ) -> None:
        """Expand prefetcher targets over the warp's coalesced footprint.

        The prefetcher is trained on the warp's base address; the demand
        instruction touched ``footprint_lines`` lines, so each target covers
        the same footprint shifted by the predicted stride.
        """
        for target in targets:
            if target < 0:
                continue
            delta = target - inst.base_addr
            for line in inst.lines[:footprint_lines]:
                self._prefetch_line(
                    (line + delta) // LINE_BYTES * LINE_BYTES, inst.pc, warp_id, cycle
                )

    def _issue_software_prefetch(
        self, warp: Warp, inst: WarpInstruction, cycle: int
    ) -> None:
        if self.config.perfect_memory:
            return
        for line in inst.lines:
            self._prefetch_line(line, inst.pc, warp.warp_id, cycle)

    def _prefetch_line(self, line: int, pc: int, warp_id: int, cycle: int) -> None:
        """Route one prefetch line request through throttle, caches, MRQ."""
        if line < 0:
            return
        self.prefetch_generated += 1
        if not self.throttle.allow_prefetch():
            self.prefetch_throttled += 1
            return
        if self.pcache.contains(line):
            self.prefetch_redundant += 1
            return
        if self.mrq.lookup(line) is not None:
            # The line is already in flight: a redundant prefetch.  The
            # MRQ records the probe (``total_prefetch_merged``) without
            # counting an Eq. 6 merge/request — see access_prefetch.
            self.prefetch_redundant += 1
            self.mrq.access_prefetch(line, pc, warp_id, cycle)
            return
        request = self.mrq.access_prefetch(line, pc, warp_id, cycle)
        if request is not None:
            self.prefetch_issued += 1

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------

    def on_response(self, request: MemoryRequest, cycle: int) -> None:
        """A line arrived from memory: wake waiters, fill prefetch cache."""
        self.woken = True
        entry = self.mrq.complete(request.line_addr)
        if entry is None:
            return
        if entry.is_demand or entry.late_prefetch:
            self.demand_latency_sum += cycle - entry.create_cycle
            self.demand_latency_count += 1
        for warp, token in entry.waiters:
            if warp.line_complete(token) and warp.parked:
                if warp.deps_ready(warp.stream[warp.pc_index]):
                    warp.parked = False
                    self._issuable |= 1 << warp.slot
        if entry.was_prefetch:
            if entry.late_prefetch:
                self.late_prefetches += 1
            self.pcache.fill(request.line_addr, already_used=entry.late_prefetch)

    # ------------------------------------------------------------------
    # Periodic throttle / feedback update
    # ------------------------------------------------------------------

    def periodic_update(self, cycle: int) -> None:
        """End-of-period throttle adjustment and prefetcher feedback.

        The window is what each run total grew by since the previous
        boundary.
        """
        pcache = self.pcache
        mrq = self.mrq
        totals = (
            pcache.total_early_evictions, pcache.total_useful,
            pcache.total_hits, mrq.total_merges, mrq.total_requests,
            self.prefetch_issued, self.late_prefetches,
        )
        early, useful, hits, merges, requests, issued, late = (
            now - then for now, then in zip(totals, self._window_base)
        )
        self._window_base = totals
        if self.throttle.enabled:
            self.throttle.update(
                ThrottleWindow(
                    early_evictions=early,
                    useful_prefetches=useful,
                    intra_core_merges=merges,
                    total_requests=requests,
                    prefetch_cache_hits=hits,
                ),
                cycle,
            )
        if self.prefetcher is not None:
            self.prefetcher.periodic_update(
                {
                    "issued": float(issued),
                    "useful": float(useful),
                    "late": float(late),
                    "accuracy": (useful / issued) if issued else 0.0,
                    "lateness": (late / issued) if issued else 0.0,
                    "early_evictions": float(early),
                }
            )
