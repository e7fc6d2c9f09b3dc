"""Top-level GPU simulator: cores + interconnect + DRAM + block dispatch.

Drives the whole machine with an event-accelerated cycle loop: every cycle
in which any component can make progress is simulated exactly, visiting
only the components due in it; stretches where all warps are blocked on
memory are skipped to the next event (response arrival, DRAM burst slot,
issue-port release), which keeps the pure-Python model fast enough for
full parameter sweeps while preserving cycle-accurate ordering.
"""

from __future__ import annotations

import os
import weakref
from collections import deque
from time import perf_counter
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.core.base import HardwarePrefetcher
from repro.core.throttle import ThrottleEngine
from repro.sim.config import GpuConfig
from repro.sim.core import Block, Core
from repro.sim.dram import NEVER, Dram
from repro.sim.errors import CycleLimitExceeded, DeadlockError
from repro.sim.interconnect import Interconnect
from repro.sim.stats import SimStats

if TYPE_CHECKING:
    from repro.sim.invariants import InvariantChecker
    from repro.sim.profiling import SimProfiler
    from repro.sim.telemetry import MetricsRecorder

PrefetcherFactory = Callable[[int], Optional[HardwarePrefetcher]]

#: Environment variable that opts every simulator in this process into
#: invariant checking (any non-empty value other than "0").
INVARIANTS_ENV = "REPRO_INVARIANTS"


def invariants_enabled_from_env() -> bool:
    """True when ``$REPRO_INVARIANTS`` requests process-wide checking."""
    return os.environ.get(INVARIANTS_ENV, "") not in ("", "0")


class PeriodicHook:
    """Run-loop hook calling ``action(sim)`` every ``interval`` cycles.

    Its first boundary is the first multiple of ``interval`` strictly
    past ``cycle``, the cycle it is attached at, so a run resumed from a
    snapshot does not repeat the boundary it resumed from.  Attach it by
    appending it to :attr:`GpuSimulator.hooks`.
    """

    __slots__ = ("interval", "action", "due_cycle")

    def __init__(
        self, interval: int, action: Callable[["GpuSimulator"], object], cycle: int
    ) -> None:
        self.interval = interval
        self.action = action
        self.due_cycle = (cycle // interval + 1) * interval

    def fire(self, sim: "GpuSimulator") -> None:
        """Advance to the next boundary past ``sim.cycle``, then act."""
        self.due_cycle = (sim.cycle // self.interval + 1) * self.interval
        self.action(sim)


class SimulationResult:
    """Outcome of one simulation: the stats plus handles for inspection.

    ``cores`` and ``dram`` are live simulator handles when the run was
    returned by :meth:`GpuSimulator.run` (or ``run_benchmark``); results
    from the sweep engine — run inline, shipped back from a pool worker
    or read from its result cache — are stats-only and carry ``None``
    for both.
    """

    def __init__(
        self,
        stats: SimStats,
        cores: Optional[List[Core]] = None,
        dram: Optional[Dram] = None,
    ) -> None:
        self.stats = stats
        self.cores = cores
        self.dram = dram

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def truncated(self) -> bool:
        """True when the run hit ``max_cycles`` before completing."""
        return self.stats.truncated

    @property
    def cpi(self) -> float:
        return self.stats.cpi

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Execution-time speedup of this run relative to ``baseline``."""
        if self.stats.cycles == 0:
            return 0.0
        return baseline.stats.cycles / self.stats.cycles


class GpuSimulator:
    """The simulated GPU (paper Fig. 1)."""

    __slots__ = (
        "config", "cores", "interconnect", "dram", "_blocks", "_block_queues",
        "cycle", "invariants", "profiler", "metrics", "hooks",
        "__weakref__",  # weak side tables; the invariant checker's proxy
    )

    #: Fields a snapshot does not store (see :mod:`repro.sim.checkpoint`):
    #: the config, the loaded blocks (rebuilt from the run spec) and the
    #: run-loop hooks of the process that runs it.
    snapshot_static = ("config", "_blocks", "hooks")

    def __init__(
        self,
        config: GpuConfig,
        prefetcher_factory: Optional[PrefetcherFactory] = None,
        invariants: Optional[bool] = None,
        profiler: Optional[SimProfiler] = None,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        """Build the machine.

        Args:
            config: Machine configuration (validated at construction).
            prefetcher_factory: Per-core hardware-prefetcher builder.
            invariants: Attach an :class:`InvariantChecker` to the main
                loop.  ``None`` (default) defers to ``$REPRO_INVARIANTS``.
            profiler: Attach a :class:`~repro.sim.profiling.SimProfiler`;
                the run then records per-phase wall time and per-component
                cycle activity.  ``None`` (default) disables profiling.
            metrics: Attach a
                :class:`~repro.sim.telemetry.MetricsRecorder`; the run
                then samples windowed machine metrics on the recorder's
                cycle cadence.  ``None`` (default) disables telemetry.
        """
        self.config = config
        factory = prefetcher_factory or (lambda core_id: None)
        self.cores = [
            Core(
                core_id,
                config,
                prefetcher=factory(core_id),
                throttle=ThrottleEngine(config.throttle),
            )
            for core_id in range(config.num_cores)
        ]
        self.interconnect = Interconnect(config.interconnect, config.num_cores)
        self.dram = Dram(config.dram)
        #: The loaded kernel's blocks; each core's queue holds indices
        #: into it, in dispatch order.
        self._blocks: Sequence[Block] = ()
        self._block_queues = [deque() for _ in range(config.num_cores)]
        self.cycle = 0
        if invariants is None:
            invariants = invariants_enabled_from_env()
        self.invariants: Optional[InvariantChecker] = None
        if invariants:
            # Only a checked run imports the checker (a pooled sweep
            # imports it before it forks).
            from repro.sim.invariants import InvariantChecker

            self.invariants = InvariantChecker(weakref.proxy(self))
        self.profiler = profiler
        if profiler is not None:
            for core in self.cores:
                core.profiler = profiler
        #: Telemetry observer, the first run-loop hook.  Unlike the other
        #: hooks it IS serialized into snapshots, so the window series of
        #: a resumed run continues bit-identically.
        self.metrics = metrics
        #: Periodic run-loop observers (each with a ``due_cycle`` and a
        #: ``fire(sim)`` that advances it), fired in list order at the
        #: top of the first loop iteration at or past their due cycle:
        #: the one point where the machine state is self-consistent, so
        #: a snapshot taken there resumes identically.  A hook may raise
        #: a structured :class:`~repro.sim.errors.SimulationError` to end
        #: the run.  Checkpointing and the worker sentinel append theirs
        #: after the recorder, so a snapshot holds that loop-top's sample.
        self.hooks: List = [] if metrics is None else [metrics]

    # ------------------------------------------------------------------
    # Workload setup
    # ------------------------------------------------------------------

    def load_workload(self, blocks: Sequence[Block], max_blocks_per_core: int) -> None:
        """Queue a kernel's thread blocks for dispatch.

        Blocks are partitioned contiguously across cores (core 0 gets the
        first chunk, core 1 the next, ...), so consecutive blocks — and
        therefore consecutive warp ids — stay on the same core across
        waves.  This is what makes cross-block inter-thread prefetches
        land in the right core's prefetch cache; the paper's stated IP
        failure mode ("the target warp has been assigned to a different
        core") then occurs exactly at partition boundaries.
        """
        for core in self.cores:
            core.max_blocks = max(1, max_blocks_per_core)
        num_cores = self.config.num_cores
        self._blocks = blocks
        self._block_queues = [deque() for _ in range(num_cores)]
        total = len(blocks)
        base = total // num_cores
        extra = total % num_cores
        index = 0
        for core_id in range(num_cores):
            count = base + (1 if core_id < extra else 0)
            for _ in range(count):
                self._block_queues[core_id].append(index)
                index += 1
        self._dispatch()

    def _dispatch(self) -> None:
        """Fill each core's free block slots from its own partition."""
        blocks = self._blocks
        for core, queue in zip(self.cores, self._block_queues):
            while queue and core.has_free_block_slot():
                core.assign_block(blocks[queue.popleft()])

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, strict: bool = False) -> SimulationResult:
        """Simulate until every dispatched warp retires; return statistics.

        Failure semantics (see :mod:`repro.sim.errors`):

        * A proven wedge raises :class:`DeadlockError` naming the stuck
          component, with a diagnostic snapshot attached.
        * Exhausting ``max_cycles`` marks the returned stats
          ``truncated=True``; with ``strict=True`` it raises
          :class:`CycleLimitExceeded` instead (the harness always runs
          strict so a truncated run can never pose as a completed one).
        * With invariant checking attached (``invariants=True`` or
          ``$REPRO_INVARIANTS``), accounting violations raise
          :class:`~repro.sim.errors.InvariantViolation` mid-run.
        """
        config = self.config
        cores = self.cores
        icnt = self.interconnect
        dram = self.dram
        mrqs = [core.mrq for core in cores]
        cycle = self.cycle
        max_cycles = config.max_cycles
        checker = self.invariants
        prof = self.profiler

        # This loop is the simulator's hot path.  It visits only what is
        # due: DRAM's posted due cycle, one cached throttle boundary and
        # an exact send-pending flag stand in for polling every DRAM
        # channel and MRQ.  Bound methods are hoisted into locals, and
        # every profiler touch sits behind an ``is None`` branch so an
        # uninstrumented run pays (almost) nothing for the
        # instrumentation points.
        # The pipes' heaps are read at their heads, so a pop is called
        # only when something has arrived.
        to_core = icnt._to_core
        to_memory = icnt._to_memory
        pop_core_arrivals = icnt.pop_core_arrivals
        pop_memory_arrivals = icnt.pop_memory_arrivals
        send_responses = icnt.send_responses
        inject_requests = icnt.inject_requests
        icnt_next_event = icnt.next_event_cycle
        dram_arrive = dram.arrive
        dram_step = dram.step
        dispatch = self._dispatch
        block_queues = self._block_queues
        have_blocks = any(block_queues)
        # Only issue fills an MRQ's send queue and only injection drains
        # it, so the flag is set after an issue and re-read from
        # inject_requests.
        send_pending = any(mrq._send_queue for mrq in mrqs)
        if config.throttle.enabled:
            next_throttle = min(core.throttle.next_update_cycle for core in cores)
        else:
            next_throttle = NEVER

        if prof is not None:
            prof_wall = prof.wall
            prof_active = prof.active_cycles
            timer = perf_counter
            prof.start()

        hooks = self.hooks
        next_hook = min([hook.due_cycle for hook in hooks], default=NEVER)

        while cycle < max_cycles:
            if cycle >= next_hook:
                # Fires at the first loop-top at or past a hook's due
                # cycle (the event loop may have skipped the cycle
                # itself).  self.cycle is synced first so a snapshot
                # taken by any hook holds the loop-top state exactly.
                self.cycle = cycle
                for hook in hooks:
                    if cycle >= hook.due_cycle:
                        hook.fire(self)
                next_hook = min(hook.due_cycle for hook in hooks)
            if prof is not None:
                prof.loop_iterations += 1
                t_phase = timer()
            # 1. Deliver responses that reached their core.
            responses = to_core and to_core[0][0] <= cycle
            if responses:
                for core_id, request in pop_core_arrivals(cycle):
                    cores[core_id].on_response(request, cycle)
            if prof is not None:
                t_now = timer()
                prof_wall["deliver_responses"] += t_now - t_phase
                t_phase = t_now
                if responses:
                    prof_active["interconnect_response"] += 1
            # 2. Deliver requests that reached the memory controllers.
            requests_in = to_memory and to_memory[0][0] <= cycle
            if requests_in:
                for request in pop_memory_arrivals(cycle):
                    dram_arrive(request, cycle)
            if prof is not None:
                t_now = timer()
                prof_wall["deliver_requests"] += t_now - t_phase
                t_phase = t_now
                if requests_in:
                    prof_active["interconnect_request"] += 1
            # 3. Advance the due DRAM channels; route completed reads back
            # through the network.
            if dram.due_cycle <= cycle:
                completed = dram_step(cycle)
                if completed:
                    send_responses(cycle, completed)
                if prof is not None:
                    t_now = timer()
                    prof_wall["dram"] += t_now - t_phase
                    t_phase = t_now
                    if completed:
                        prof_active["dram"] += 1
            # 4. Periodic throttle / feedback updates.
            if cycle >= next_throttle:
                for core in cores:
                    if cycle >= core.throttle.next_update_cycle:
                        core.periodic_update(cycle)
                next_throttle = min(
                    core.throttle.next_update_cycle for core in cores
                )
                if prof is not None:
                    t_now = timer()
                    prof_wall["throttle"] += t_now - t_phase
                    t_phase = t_now
            # 5. Refill freed block slots.  Queues only shrink during a
            # run, so once drained the dispatch scan is skipped for good.
            if have_blocks:
                dispatch()
                have_blocks = any(block_queues)
                if prof is not None:
                    t_now = timer()
                    prof_wall["dispatch"] += t_now - t_phase
                    t_phase = t_now
            # 6. Issue.  Sleeping cores are skipped: their last issue
            # attempt failed (or issued and left the port busy) for a
            # reason proven stable until wake_cycle or an external
            # ``woken`` event, so the skipped poll's only observable
            # effects — the stall_cycles increment and the retry
            # candidate — are replayed here verbatim, keeping stats
            # bit-identical to polling every core every eventful cycle.
            next_event = NEVER
            issued_any = False
            for core in cores:
                if core.asleep:
                    wake = core.wake_cycle
                    if wake is None or wake > cycle:
                        if not core.woken:
                            if core.sleep_credit:
                                core.stall_cycles += 1
                            if wake is not None and wake < next_event:
                                next_event = wake
                            continue
                        if core.port_free_cycle > cycle:
                            # Woken while its port is busy: the poll
                            # would only re-enter this same sleep, whose
                            # wake_cycle is the port's release.
                            core.woken = False
                            if wake < next_event:
                                next_event = wake
                            continue
                    core.asleep = False
                    core.woken = False
                issued, retry = core.try_issue(cycle)
                if issued:
                    issued_any = True
                    wake = core.port_free_cycle
                    if wake < next_event:
                        next_event = wake
                    if core.mrq._send_queue:
                        send_pending = True
                elif retry is not None and retry < next_event:
                    next_event = retry
            if prof is not None:
                t_now = timer()
                prof_wall["issue"] += t_now - t_phase
                t_phase = t_now
                if issued_any:
                    prof_active["core_issue"] += 1
                injected_before = icnt.total_injected
            # 7. Inject requests into the network.  The injection budget
            # is the bandwidth of every cycle since the previous visit, so
            # a visit with nothing to send still records itself.
            if send_pending:
                send_pending = inject_requests(cycle, mrqs)
            else:
                icnt.last_visit = cycle
            if prof is not None:
                t_now = timer()
                prof_wall["inject"] += t_now - t_phase
                t_phase = t_now
                if icnt.total_injected != injected_before:
                    prof_active["mrq_inject"] += 1

            # 7b. Periodic integrity checks (opt-in; the machine state is
            # consistent here: all deliveries and injections for this
            # cycle have happened).
            if checker is not None:
                checker.maybe_check(cycle)
                if prof is not None:
                    t_now = timer()
                    prof_wall["invariants"] += t_now - t_phase
                    t_phase = t_now

            if not have_blocks:
                for core in cores:
                    if not core.drained:
                        break
                else:
                    break

            # 8. Find the next cycle where anything can happen.  The set
            # of visited cycles is part of the statistics (stall_cycles
            # counts eventful iterations, and an injection's budget is
            # the cycles since the previous visit), so every candidate
            # must be exact: an early one adds an iteration, a late one
            # skips an event.
            if send_pending:
                cycle += 1
            else:
                event = icnt_next_event()
                if event is not None and event < next_event:
                    next_event = event
                if dram.due_cycle < next_event:
                    next_event = dram.due_cycle
                if next_throttle < next_event:
                    next_event = next_throttle
                if next_event == NEVER:
                    from repro.sim.invariants import (
                        diagnose_no_progress,
                        snapshot_simulator,
                    )

                    raise DeadlockError(
                        f"simulator deadlock at cycle {cycle}: "
                        + diagnose_no_progress(self, cycle),
                        snapshot=snapshot_simulator(self, cycle),
                    )
                cycle = cycle + 1 if next_event <= cycle else next_event
            if prof is not None:
                prof_wall["event_skip"] += timer() - t_phase

        self.cycle = cycle
        truncated = cycle >= max_cycles and not self._finished()
        rec = self.metrics
        if rec is not None:
            # Close the final (possibly partial) window: counters can
            # advance between the last boundary sample and loop exit
            # (the drain break fires mid-iteration), and the series must
            # cover every cycle so totals reconcile with the stats.
            rec.finish(self)
        if prof is not None:
            counts = prof.counts
            for core in cores:
                if core.prefetcher is not None:
                    tstats = core.prefetcher.table_stats()
                    counts["table_lookups"] += tstats["lookups"]
                    counts["table_hits"] += tstats["hits"]
            prof.finish(cycle)
        if checker is not None:
            checker.check_final(cycle, truncated=truncated)
        stats = self._collect_stats(cycle)
        stats.truncated = truncated
        if truncated and strict:
            from repro.sim.invariants import snapshot_simulator

            raise CycleLimitExceeded(
                f"run truncated: max_cycles={max_cycles} exhausted with "
                f"unretired warps at cycle {cycle}",
                snapshot=snapshot_simulator(self, cycle),
            )
        return SimulationResult(stats, cores, dram)

    def _finished(self) -> bool:
        return all(not q for q in self._block_queues) and all(
            core.drained for core in self.cores
        )

    def after_restore(self) -> None:
        """Re-link resident warps to their instruction streams (by warp id).

        Streams are static and never stored.  A warp no core holds any
        more (one a request still names as a waiter) is finished, and a
        finished warp never reads its stream.
        """
        streams = {
            warp_id: stream
            for _block_id, warp_specs in self._blocks
            for warp_id, stream in warp_specs
        }
        for core in self.cores:
            for warp in core.warps:
                warp.stream = streams[warp.warp_id]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def _collect_stats(self, cycle: int) -> SimStats:
        stats = SimStats(cycles=cycle, num_cores=self.config.num_cores)
        for core in self.cores:
            stats.instructions += core.instructions
            stats.prefetch_instructions += core.prefetch_instructions
            stats.demand_loads += core.demand_loads
            stats.demand_lines_to_memory += core.demand_lines_to_memory
            stats.demand_latency_sum += core.demand_latency_sum
            stats.demand_latency_count += core.demand_latency_count
            stats.prefetch_requests_generated += core.prefetch_generated
            stats.prefetch_requests_throttled += core.prefetch_throttled
            stats.prefetch_requests_redundant += core.prefetch_redundant
            stats.prefetch_requests_issued += core.prefetch_issued
            stats.useful_prefetches += core.pcache.total_useful
            stats.late_prefetches += core.late_prefetches
            stats.early_evictions += core.pcache.total_early_evictions
            stats.prefetch_cache_hits += core.pcache.total_hits
            stats.prefetch_cache_misses += core.pcache.total_misses
            stats.intra_core_merges += core.mrq.total_merges
            stats.total_mrq_requests += core.mrq.total_requests
            stats.stall_cycles += core.stall_cycles
        stats.inter_core_merges = self.dram.total_inter_core_merges
        stats.dram_lines_transferred = self.dram.total_lines_transferred
        stats.dram_row_hits = self.dram.total_row_hits
        stats.dram_row_misses = self.dram.total_row_misses
        return stats

