"""MRQ edge-case accounting and the deadlock regressions diffcheck surfaced.

Two classes of bug live (or lived) at the MRQ boundary, and both families
are pinned here with the minimal repro kernels the differential harness
shrank them to:

1. **Accounting** — Eq. 6's inputs (``total_merges`` / ``total_requests``)
   must be exact: a redundant prefetch probing an in-flight line is not a
   merge, ``total_demand_on_prefetch_merges`` is single-counted per
   prefetch entry, and a demand merging into a not-yet-sent store promotes
   the entry (a store entry is freed at injection with no response; an
   unpromoted merge strands the demand waiter forever).
2. **Structural deadlock** — an instruction whose fresh-line footprint
   exceeds the *whole* MRQ could never satisfy the all-at-once room
   check and stalled forever.  ``CoreConfig`` now refuses an MRQ smaller
   than a warp (a warp access touches at most one line per thread), so a
   full MRQ only delays an instruction until responses or store
   injections drain it.
"""

import dataclasses

import pytest

from repro.sim.checkpoint import dump_state, load_state
from repro.sim.config import baseline_config
from repro.sim.core import Core
from repro.sim.gpu import GpuSimulator
from repro.sim.isa import Op
from repro.sim.mrq import MemoryRequestQueue
from repro.sim.warp import Warp
from repro.trace.kernels import Compute, KernelSpec, Load, Store
from repro.trace.tracegen import generate_workload


def make_warp(warp_id=0):
    return Warp(warp_id, 0, [])


# ----------------------------------------------------------------------
# Eq. 6 input exactness (unit level)
# ----------------------------------------------------------------------


class TestRedundantPrefetchAccounting:
    def test_prefetch_on_inflight_line_is_not_an_eq6_merge(self):
        """A redundant prefetch must not inflate the throttle's merge ratio."""
        mrq = MemoryRequestQueue(0, 4)
        warp = make_warp()
        mrq.access_demand(0, warp, 1, 0x10, 0, 0)
        merges, requests = mrq.total_merges, mrq.total_requests
        existing = mrq.access_prefetch(0, 0x20, 0, 1)
        assert existing is not None  # probe resolves to the in-flight entry
        assert mrq.total_prefetch_merged == 1
        assert mrq.total_merges == merges, "redundant prefetch counted as merge"
        assert mrq.total_requests == requests, (
            "redundant prefetch counted as an Eq. 6 request"
        )

    def test_prefetch_on_prefetch_is_also_redundant(self):
        mrq = MemoryRequestQueue(0, 4)
        mrq.access_prefetch(0, 0x10, 0, 0)
        mrq.access_prefetch(0, 0x10, 0, 1)
        assert mrq.total_prefetch_merged == 1
        assert mrq.total_requests == 1  # only the original allocation

    def test_full_queue_merge_beats_drop(self):
        """Drop-vs-merge ordering: a prefetch to a tracked line merges even
        when the queue is full; only genuinely new lines are dropped."""
        mrq = MemoryRequestQueue(0, 1)
        warp = make_warp()
        mrq.access_demand(0, warp, 1, 0x10, 0, 0)
        assert mrq.full
        assert mrq.access_prefetch(0, 0x20, 0, 1) is not None
        assert mrq.total_prefetch_merged == 1
        assert mrq.total_prefetch_dropped_full == 0
        assert mrq.access_prefetch(64, 0x20, 0, 2) is None
        assert mrq.total_prefetch_dropped_full == 1

    def test_state_dict_round_trips_prefetch_merged(self):
        """The snapshot codec round-trips the redundant-prefetch counter."""
        mrq = MemoryRequestQueue(0, 4)
        warp = make_warp()
        mrq.access_demand(0, warp, 1, 0x10, 0, 0)
        mrq.access_prefetch(0, 0x20, 0, 1)
        state = dump_state(mrq)
        assert state["total_prefetch_merged"] == 1
        clone = MemoryRequestQueue(0, 4)
        load_state(state, clone)
        assert clone.total_prefetch_merged == 1
        assert dump_state(clone) == state


class TestDemandOnPrefetchSingleCount:
    def test_second_demand_merge_is_demand_on_demand(self):
        """The first demand merge clears the prefetch bit, so later demands
        merging into the same entry must not count as prefetch merges."""
        mrq = MemoryRequestQueue(0, 4)
        w0, w1 = make_warp(0), make_warp(1)
        pref = mrq.access_prefetch(0, 0x10, 0, 0)
        assert mrq.access_demand(0, w0, 1, 0x14, 0, 1) is pref
        assert mrq.access_demand(0, w1, 2, 0x18, 1, 2) is pref
        assert mrq.total_demand_on_prefetch_merges == 1
        assert mrq.total_merges == 2  # both are Eq. 6 merges


class TestStorePromotion:
    def test_demand_merge_promotes_unsent_store(self):
        """A demand merging into a not-yet-sent store converts the entry to
        a demand request — otherwise the entry is freed at injection with
        no response and the waiter never wakes (the store-merge deadlock)."""
        mrq = MemoryRequestQueue(0, 4)
        warp = make_warp()
        store = mrq.access_store(0, 0x10, 0, 0)
        assert store.is_store
        merged = mrq.access_demand(0, warp, 1, 0x14, 0, 7)
        warp.begin_load(1, 1)  # the core registers the outstanding line
        assert merged is store
        assert not merged.is_store, "store entry not promoted to demand"
        assert merged.create_cycle == 7, (
            "demand latency must be measured from the merge, not the store"
        )
        assert mrq.total_merges == 1
        # The promoted entry now follows the load lifecycle: allocated
        # until the response arrives, then it wakes the waiter.
        request = mrq.pop_sendable(8)
        assert request is merged
        assert len(mrq) == 1, "promoted entry must persist until completion"
        assert mrq.complete(0) is merged
        assert warp.line_complete(1)


# ----------------------------------------------------------------------
# End-to-end deadlock regressions (minimal repros from the shrinker)
# ----------------------------------------------------------------------


def small_config(mrq_size):
    cfg = baseline_config().replace(num_cores=1)
    return cfg.replace(core=dataclasses.replace(cfg.core, mrq_size=mrq_size))


def run_kernel(spec, mrq_size):
    wl = generate_workload(spec)
    sim = GpuSimulator(small_config(mrq_size), None, invariants=True)
    sim.load_workload(wl.blocks, wl.max_blocks_per_core)
    return sim.run(strict=True), wl


@pytest.fixture
def refused(monkeypatch):
    """The ops of the demands and stores a scan found no MRQ room for."""
    ops = []
    has_room = Core._mrq_has_room

    def counting(self, inst):
        room = has_room(self, inst)
        if not room:
            ops.append(inst.op)
        return room

    monkeypatch.setattr(Core, "_mrq_has_room", counting)
    return ops


def repro_spec(body, threads_per_block=32, loop_iters=0, delinquent=()):
    return KernelSpec(
        name="mrq-repro",
        suite="fuzz",
        btype="uncoal",
        threads_per_block=threads_per_block,
        num_blocks=1,
        body=body,
        loop_iters=loop_iters,
        stride_delinquent=delinquent,
    )


#: Two warps, each loading 32 distinct lines (one per lane).
TWO_UNCOALESCED_LOADS = repro_spec(
    (
        Load("x0", "A", lane_stride=128),
        Compute(1, consumes=("x0",)),
    ),
    threads_per_block=64,
    delinquent=("x0",),
)


class TestWarpSizedMrq:
    """Regression: diffcheck's fuzzer found that one uncoalesced LOAD whose
    line footprint (32 fresh lines) exceeds a 16-entry MRQ deadlocked at
    cycle 8 — the all-at-once room check could never pass.  No config
    admits that MRQ any more; at the smallest one admitted, 32 entries,
    the first warp's 32-line access fills the queue and the second
    warp's waits on it."""

    def test_uncoalesced_load_waits_for_a_full_mrq(self, refused):
        result, wl = run_kernel(TWO_UNCOALESCED_LOADS, mrq_size=32)
        assert result.stats.instructions == wl.total_instructions()
        assert result.stats.demand_lines_to_memory == 64
        assert result.stats.demand_loads == 2
        assert Op.LOAD in refused

    def test_uncoalesced_store_waits_for_a_full_mrq(self, refused):
        spec = repro_spec(
            (
                Store("A", lane_stride=128),
                Load("x0", "B", lane_stride=4),
                Compute(1, consumes=("x0",)),
            ),
            threads_per_block=64,
            delinquent=("x0",),
        )
        result, wl = run_kernel(spec, mrq_size=32)
        assert result.stats.instructions == wl.total_instructions()
        assert Op.STORE in refused

    def test_full_mrq_stalls_change_no_traffic(self, refused):
        """The same kernel on a roomy MRQ sees identical demand traffic:
        a full queue changes *when* lines enter it, never how many."""
        full, _ = run_kernel(TWO_UNCOALESCED_LOADS, mrq_size=32)
        assert refused
        refused.clear()
        roomy, _ = run_kernel(TWO_UNCOALESCED_LOADS, mrq_size=512)
        assert not refused
        assert (
            full.stats.demand_lines_to_memory
            == roomy.stats.demand_lines_to_memory
        )
        assert full.stats.demand_loads == roomy.stats.demand_loads
        assert full.stats.instructions == roomy.stats.instructions
        assert full.stats.cycles >= roomy.stats.cycles


class TestStoreMergeDeadlockRegression:
    """Regression for the store-merge deadlock: an uncoalesced store backs
    up unsent in a small MRQ, and a following load to the same lines
    merges into the store entries.  Without promotion the waiters strand."""

    def test_store_then_load_same_array_completes(self, monkeypatch):
        promoted = []
        access_demand = MemoryRequestQueue.access_demand

        def spying(self, line_addr, *args):
            entry = self.lookup(line_addr)
            if entry is not None and entry.is_store:
                promoted.append(line_addr)
            return access_demand(self, line_addr, *args)

        monkeypatch.setattr(MemoryRequestQueue, "access_demand", spying)
        spec = repro_spec(
            (
                Store("A", lane_stride=64),
                Load("x0", "A", lane_stride=64),
                Compute(1, consumes=("x0",)),
            ),
            loop_iters=2,
            delinquent=("x0",),
        )
        result, wl = run_kernel(spec, mrq_size=32)
        assert result.stats.instructions == wl.total_instructions()
        assert promoted, "no demand merged into an unsent store"
