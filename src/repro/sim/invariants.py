"""Machine-checked simulator invariants and forward-progress watchdog.

The simulator's statistics feed every figure reproduction, so accounting
bugs (a lost response, a double-counted merge, a warp that never
retires) must surface as hard failures instead of silently skewed
results.  :class:`InvariantChecker` is an opt-in observer the GPU main
loop consults at a configurable cycle interval and once more at end of
run.  It verifies:

* **Memory-request conservation** — every sent, uncompleted load or
  prefetch MRQ entry is accounted for exactly once across the
  interconnect's request pipe, the DRAM channels' buffers, and the
  response pipe; and each MRQ's access ledger balances
  (``total_requests == merges + created`` and
  ``created == completed + stores_sent + resident``).
* **Warp/block retirement accounting** — per core,
  ``warps_assigned == warps_retired + active``, the unfinished-warp
  counter behind ``Core.drained`` equals ``active``, and each resident
  block's outstanding-warp count matches the live warp list.
* **Issue scan** — per core, each warp's ``slot`` is its position in
  ``Core.warps``, the issue mask has a bit set exactly for the
  unfinished, unparked warps, and every parked warp is unfinished and
  waits on an incomplete load token (so a response can unpark it).
* **Posted due cycles** — each DRAM channel's posted ``due_cycle``
  equals the next-event cycle recomputed from its buffers, and the
  DRAM's posted cycle equals their minimum: the run loop visits DRAM
  only when it is due, so a stale posting would silently skip or add
  visited cycles.
* **Prefetch-statistics cross-checks** — the prefetch request pipeline
  ledger balances (``generated == throttled + redundant + issued +
  dropped``) and ``useful + early-evicted + resident-unused <= fills <=
  issued``; at a clean end of run ``fills == issued``.
* **Forward progress** — if the event loop keeps finding events but no
  instruction retires, no request completes, and no DRAM line transfers
  for ``watchdog_window`` simulated cycles, the run is declared wedged
  and a :class:`~repro.sim.errors.DeadlockError` names the stuck
  component (via :func:`diagnose_no_progress`).

Enable it per-simulator (``GpuSimulator(cfg, invariants=True)``) or
process-wide with ``REPRO_INVARIANTS=1``, which the simulator reads
(:func:`repro.sim.gpu.invariants_enabled_from_env`): a run without
checking imports this module only to describe a deadlock or a
truncation.  CI runs the tier-1 suite both ways.  The simulator hands
its checker a weak proxy of itself, so a checked machine is freed by
reference counting like any other.  Checks cost O(in-flight requests) per interval,
a negligible fraction of simulation time at the default interval.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.dram import NEVER
from repro.sim.errors import DeadlockError, InvariantViolation

# ----------------------------------------------------------------------
# Diagnostic snapshots
# ----------------------------------------------------------------------


def snapshot_simulator(sim, cycle: int) -> Dict:
    """Capture a JSON-able diagnostic snapshot of the whole machine.

    Attached to every :class:`~repro.sim.errors.SimulationError` so a
    failure report shows *where the machine was*, not just the message:
    per-core warp states and queue depths, interconnect/DRAM occupancy,
    and the partial end-of-run statistics.
    """
    cores = []
    for core in sim.cores:
        blocked = sum(1 for w in core.warps if not w.finished and w.blocked_on_tokens())
        cores.append(
            {
                "core_id": core.core_id,
                "resident_blocks": core.resident_blocks,
                "warps_assigned": core.warps_assigned,
                "warps_retired": core.warps_retired,
                "active_warps": core.active_warp_count(),
                "warps_blocked_on_memory": blocked,
                "mrq_depth": len(core.mrq),
                "mrq_sendable": core.mrq.has_sendable(),
                "port_free_cycle": core.port_free_cycle,
                "instructions": core.instructions,
            }
        )
    icnt_to_memory, icnt_to_core = sim.interconnect.inflight_counts()
    dram_channels = [
        {"pending": len(ch.pending), "completing": len(ch._completing)}
        for ch in sim.dram.channels
    ]
    return {
        "cycle": cycle,
        "blocks_undispatched": sum(len(q) for q in sim._block_queues),
        "cores": cores,
        "interconnect": {"to_memory": icnt_to_memory, "to_core": icnt_to_core},
        "dram": {"channels": dram_channels},
        "stats": sim._collect_stats(cycle).to_dict(),
    }


# ----------------------------------------------------------------------
# Deadlock / no-progress diagnosis
# ----------------------------------------------------------------------


def diagnose_no_progress(sim, cycle: int) -> str:
    """Explain which component is wedged when no progress is possible.

    Walks the machine from the back (memory) to the front (warps) and
    reports the first stage holding state it can never drain, falling
    back to the front-end reasons (lost responses, unsatisfiable
    dependencies, undispatchable blocks).
    """
    reasons: List[str] = []
    if any(ch.pending or ch._completing for ch in sim.dram.channels):
        stuck = [
            ch.channel_id for ch in sim.dram.channels if ch.pending or ch._completing
        ]
        reasons.append(f"DRAM channels {stuck} hold unserviced/uncompleted entries")
    if not sim.interconnect.idle:
        to_memory, to_core = sim.interconnect.inflight_counts()
        reasons.append(
            f"interconnect holds {to_memory} undelivered request(s) and "
            f"{to_core} undelivered response(s)"
        )
    for core in sim.cores:
        if core.mrq.has_sendable():
            reasons.append(
                f"core {core.core_id} has sendable MRQ entries the "
                "interconnect never injected"
            )
        for warp in core.warps:
            if warp.finished or not warp.blocked_on_tokens():
                continue
            inst = warp.peek()
            missing = [
                t
                for t in inst.wait_tokens
                if t not in warp.tokens_done and warp._pending_lines.get(t) is None
            ]
            if missing:
                reasons.append(
                    f"core {core.core_id} warp {warp.warp_id} waits on load "
                    f"token(s) {missing} that were never issued — an "
                    "unsatisfiable dependency in the instruction stream"
                )
            elif len(core.mrq) == 0:
                reasons.append(
                    f"core {core.core_id} warp {warp.warp_id} waits on an "
                    "outstanding load but the MRQ is empty — a response "
                    "was lost"
                )
    undispatched = sum(len(q) for q in sim._block_queues)
    if undispatched and not reasons:
        reasons.append(
            f"{undispatched} thread block(s) remain queued but no core "
            "frees a block slot"
        )
    if not reasons:
        reasons.append(
            "all components idle yet unretired warps remain (inconsistent "
            "retirement state)"
        )
    return "; ".join(reasons)


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------


class InvariantChecker:
    """Opt-in integrity observer for one :class:`GpuSimulator`.

    Args:
        sim: The simulator to watch.  ``GpuSimulator`` attaches its
            checker with a weak proxy of itself, so the pair forms no
            reference cycle and a finished machine frees by reference
            counting.
        interval: Simulated cycles between mid-run check passes; the
            default is short enough that runs of a few thousand cycles
            (diffcheck's fuzzed kernels, most tests) get checked mid-run.
        watchdog_window: Simulated cycles without any activity
            (instructions retired, requests completed, DRAM lines
            transferred) after which the run is declared wedged.

    Its scheduling and watchdog state rides in simulator snapshots, so a
    resumed run checks (and watchdog-trips) at the same simulated cycles
    an uninterrupted run would; the watched simulator is wired at
    construction and not stored.
    """

    __slots__ = (
        "sim", "interval", "watchdog_window", "next_check_cycle", "checks",
        "violations_found", "_last_activity", "_last_activity_cycle",
    )

    snapshot_static = ("sim",)

    def __init__(
        self,
        sim,
        interval: int = 2_000,
        watchdog_window: int = 4_000_000,
    ) -> None:
        self.sim = sim
        self.interval = max(1, interval)
        self.watchdog_window = max(1, watchdog_window)
        self.next_check_cycle = self.interval
        self.checks = 0
        self.violations_found = 0
        self._last_activity = -1
        self._last_activity_cycle = 0

    # -- scheduling ----------------------------------------------------

    def maybe_check(self, cycle: int) -> None:
        """Run one check pass if ``cycle`` crossed the next checkpoint."""
        if cycle < self.next_check_cycle:
            return
        while self.next_check_cycle <= cycle:
            self.next_check_cycle += self.interval
        self.check(cycle)
        self._watchdog(cycle)

    # -- activity watchdog ---------------------------------------------

    def _activity(self) -> int:
        sim = self.sim
        total = sim.dram.total_lines_transferred
        for core in sim.cores:
            total += core.instructions + core.mrq.total_completed
        return total

    def _watchdog(self, cycle: int) -> None:
        activity = self._activity()
        if activity != self._last_activity:
            self._last_activity = activity
            self._last_activity_cycle = cycle
            return
        if cycle - self._last_activity_cycle >= self.watchdog_window:
            raise DeadlockError(
                f"no forward progress for {cycle - self._last_activity_cycle} "
                f"cycles (cycle {cycle}): {diagnose_no_progress(self.sim, cycle)}",
                snapshot=snapshot_simulator(self.sim, cycle),
            )

    # -- invariant passes ----------------------------------------------

    def check(self, cycle: int) -> None:
        """Mid-run invariants; raises :class:`InvariantViolation` on failure."""
        self.checks += 1
        violations = []
        violations.extend(self._check_request_conservation())
        violations.extend(self._check_retirement_accounting())
        violations.extend(self._check_prefetch_ledgers(final=False))
        violations.extend(self._check_posted_due_cycles(cycle))
        violations.extend(self._check_issue_scan())
        self._raise_if(violations, cycle)

    def check_final(self, cycle: int, truncated: bool = False) -> None:
        """End-of-run invariants (stricter when the run completed)."""
        self.checks += 1
        violations = []
        violations.extend(self._check_request_conservation())
        violations.extend(self._check_retirement_accounting())
        violations.extend(self._check_prefetch_ledgers(final=not truncated))
        if not truncated:
            violations.extend(self._check_quiescence())
        self._raise_if(violations, cycle)

    def _raise_if(self, violations: List[str], cycle: int) -> None:
        if not violations:
            return
        self.violations_found += len(violations)
        raise InvariantViolation(
            f"{len(violations)} invariant violation(s) at cycle {cycle}: "
            + violations[0],
            snapshot=snapshot_simulator(self.sim, cycle),
            violations=violations,
        )

    # -- individual invariants -----------------------------------------

    def _check_request_conservation(self) -> List[str]:
        """Issued = merged + completed + in-flight, across MRQ/icnt/DRAM."""
        sim = self.sim
        violations = []
        expected: Dict[int, int] = {}
        for core in sim.cores:
            mrq = core.mrq
            if mrq.total_requests != mrq.total_merges + mrq.total_created:
                violations.append(
                    f"core {core.core_id} MRQ access ledger: requests "
                    f"{mrq.total_requests} != merges {mrq.total_merges} + "
                    f"created {mrq.total_created}"
                )
            resident = len(mrq)
            if (
                mrq.total_created
                != mrq.total_completed + mrq.total_stores_sent + resident
            ):
                violations.append(
                    f"core {core.core_id} MRQ entry ledger: created "
                    f"{mrq.total_created} != completed {mrq.total_completed} "
                    f"+ stores sent {mrq.total_stores_sent} + resident {resident}"
                )
            for request in mrq.inflight_requests():
                expected[id(request)] = expected.get(id(request), 0) + 1
        observed: Dict[int, int] = {}
        unmatched = 0
        for request in sim.interconnect.inflight_requests():
            if request.is_store:
                continue
            observed[id(request)] = observed.get(id(request), 0) + 1
        for request in sim.dram.inflight_requests():
            if request.is_store:
                continue
            observed[id(request)] = observed.get(id(request), 0) + 1
        for rid, count in observed.items():
            if expected.get(rid, 0) != count:
                unmatched += 1
        for rid, count in expected.items():
            if observed.get(rid, 0) != count:
                unmatched += 1
        if unmatched:
            violations.append(
                f"request conservation: {unmatched} sent MRQ entries and "
                f"in-flight requests do not match one-to-one "
                f"(MRQ sent={len(expected)}, in flight={len(observed)})"
            )
        return violations

    def _check_retirement_accounting(self) -> List[str]:
        violations = []
        for core in self.sim.cores:
            active = core.active_warp_count()
            if core.warps_assigned != core.warps_retired + active:
                violations.append(
                    f"core {core.core_id} warp ledger: assigned "
                    f"{core.warps_assigned} != retired {core.warps_retired} "
                    f"+ active {active}"
                )
            if core._unfinished != active:
                # The counter decides ``Core.drained``, and so when the
                # run ends.
                violations.append(
                    f"core {core.core_id} unfinished-warp counter "
                    f"{core._unfinished} != {active} unfinished warps"
                )
            live: Dict[int, int] = {}
            for warp in core.warps:
                if not warp.finished:
                    live[warp.block_id] = live.get(warp.block_id, 0) + 1
            for block_id, outstanding in core._block_warps.items():
                if live.get(block_id, 0) != outstanding:
                    violations.append(
                        f"core {core.core_id} block {block_id} claims "
                        f"{outstanding} unretired warp(s) but "
                        f"{live.get(block_id, 0)} are live"
                    )
        return violations

    def _check_issue_scan(self) -> List[str]:
        """Each core's slots, issue mask and parked warps match its warps."""
        violations = []
        for core in self.sim.cores:
            expected = 0
            for position, warp in enumerate(core.warps):
                if warp.slot != position:
                    violations.append(
                        f"core {core.core_id} warp {warp.warp_id} at "
                        f"position {position} holds slot {warp.slot}"
                    )
                if warp.parked and not warp.blocked_on_tokens():
                    violations.append(
                        f"core {core.core_id} warp {warp.warp_id} is parked "
                        "but has finished or waits on no load token"
                    )
                if not (warp.finished or warp.parked):
                    expected |= 1 << position
            if core._issuable != expected:
                violations.append(
                    f"core {core.core_id} issue mask {core._issuable:#x} != "
                    f"{expected:#x}, its unfinished unparked warps"
                )
        return violations

    def _check_posted_due_cycles(self, cycle: int) -> List[str]:
        """Posted DRAM due cycles match a recomputation from the buffers.

        Holds after the loop's DRAM phase: a channel due at ``cycle`` has
        just been stepped and re-posted, and any other posting is still
        its next event.
        """
        dram = self.sim.dram
        violations = []
        lowest = NEVER
        for channel in dram.channels:
            posted = channel.due_cycle
            expected = channel.next_event_cycle(cycle)
            if posted != (NEVER if expected is None else expected):
                violations.append(
                    f"DRAM channel {channel.channel_id} posts due cycle "
                    f"{None if posted == NEVER else posted}, its buffers "
                    f"say {expected}"
                )
            if posted < lowest:
                lowest = posted
        if dram.due_cycle != lowest:
            violations.append(
                f"DRAM posts due cycle {dram.due_cycle}, the minimum of "
                f"its channels' postings is {lowest}"
            )
        return violations

    def _check_prefetch_ledgers(self, final: bool) -> List[str]:
        violations = []
        for core in self.sim.cores:
            generated = core.prefetch_generated
            accounted = (
                core.prefetch_throttled
                + core.prefetch_redundant
                + core.prefetch_issued
                + core.mrq.total_prefetch_dropped_full
            )
            if generated != accounted:
                violations.append(
                    f"core {core.core_id} prefetch pipeline ledger: generated "
                    f"{generated} != throttled + redundant + issued + dropped "
                    f"= {accounted}"
                )
            pcache = core.pcache
            unused = pcache.resident_unused_count()
            if pcache.total_useful + pcache.total_early_evictions + unused > (
                pcache.total_fills
            ):
                violations.append(
                    f"core {core.core_id} prefetch outcome ledger: useful "
                    f"{pcache.total_useful} + early-evicted "
                    f"{pcache.total_early_evictions} + resident-unused "
                    f"{unused} > fills {pcache.total_fills}"
                )
            if pcache.total_fills > core.prefetch_issued:
                violations.append(
                    f"core {core.core_id}: {pcache.total_fills} prefetch "
                    f"fills exceed {core.prefetch_issued} issued prefetches"
                )
        return violations

    def _check_quiescence(self) -> List[str]:
        """A completed run must have retired every warp and block.

        Fire-and-forget traffic — stores, prefetches nobody waits for,
        even a trailing load with no dependent instruction — may still
        legitimately be in flight when the last warp retires, so queue
        emptiness is deliberately *not* required.  What must hold: no
        block left undispatched, no warp unretired, and no unretired
        waiter registered on any in-flight request.
        """
        sim = self.sim
        violations = []
        for core in sim.cores:
            if not core.drained:
                violations.append(
                    f"run complete but core {core.core_id} has unretired warps"
                )
            for entry in core.mrq.inflight_requests():
                for warp, _token in entry.waiters:
                    if not warp.finished:
                        violations.append(
                            f"run complete but core {core.core_id} has an "
                            f"in-flight request with unfinished warp "
                            f"{warp.warp_id} waiting on it"
                        )
        undispatched = sum(len(q) for q in sim._block_queues)
        if undispatched:
            violations.append(
                f"run complete but {undispatched} block(s) were never dispatched"
            )
        return violations
