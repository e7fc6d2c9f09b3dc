"""Unit tests for the SIMT core's issue and prefetch-engine paths."""

from types import SimpleNamespace

import pytest

from repro.core.stride_pc import StridePcPrefetcher
from repro.core.throttle import ThrottleConfig, ThrottleEngine
from repro.sim.config import CoreConfig, baseline_config
from repro.sim.core import Core
from repro.sim.isa import MemSpace, Op, compute, load, prefetch, store


def make_core(prefetcher=None, throttle_enabled=False, mrq_size=64):
    cfg = baseline_config(core=CoreConfig(mrq_size=mrq_size))
    throttle = ThrottleEngine(ThrottleConfig(enabled=throttle_enabled))
    return Core(0, cfg, prefetcher=prefetcher, throttle=throttle)


def one_warp_block(stream, block_id=0, warp_id=0):
    return (block_id, [(warp_id, stream)])


class TestIssue:
    def test_compute_occupies_port(self):
        core = make_core()
        core.assign_block(one_warp_block([compute(), compute()]))
        assert core.try_issue(0)
        # The run loop polls the core again once its port frees.
        assert core.port_free_cycle == 4
        assert core.try_issue(4)
        assert core.port_free_cycle == 8

    def test_imul_fdiv_latencies(self):
        core = make_core()
        from repro.sim.isa import fdiv, imul
        core.assign_block(one_warp_block([imul(), fdiv()]))
        core.try_issue(0)
        assert core.port_free_cycle == 16
        core.try_issue(16)
        assert core.port_free_cycle == 16 + 32

    def test_load_creates_mrq_entries(self):
        core = make_core()
        core.assign_block(one_warp_block([load(0x10, 0, [0, 64])]))
        core.try_issue(0)
        assert len(core.mrq) == 2
        assert core.demand_loads == 1
        assert core.demand_lines_to_memory == 2

    def test_shared_load_completes_immediately(self):
        core = make_core()
        stream = [
            load(0x10, 0, [0], space=MemSpace.SHARED),
            compute(0x20, wait_tokens=[0]),
        ]
        core.assign_block(one_warp_block(stream))
        core.try_issue(0)
        assert len(core.mrq) == 0
        assert core.try_issue(4)  # dependent compute not blocked

    def test_warp_switch_on_dependency(self):
        core = make_core()
        core.assign_block(one_warp_block(
            [load(0x10, 0, [0]), compute(0x20, wait_tokens=[0])], 0, 0))
        core.assign_block(one_warp_block([compute(0x30)], 1, 1))
        core.try_issue(0)   # warp 0 load
        assert core.try_issue(4)        # switches to warp 1's compute
        assert not core.try_issue(8)    # both blocked/done until the response
        # Blocked with warps resident: the run loop replays this scan's
        # stall for every poll it skips.
        assert core.blocked and core.warps and core.stall_cycles == 1
        assert core.warps[0].parked

    def test_response_unblocks_waiter(self):
        core = make_core()
        core.assign_block(one_warp_block(
            [load(0x10, 0, [0]), compute(0x20, wait_tokens=[0])]))
        core.try_issue(0)
        assert not core.try_issue(4)    # the dependent compute parks the warp
        assert core.warps[0].parked and core._issuable == 0
        request = core.mrq.pop_sendable(1)
        core.on_response(request, 500)
        assert core.woken
        assert not core.warps[0].parked and core._issuable == 1
        assert core.try_issue(500)

    def test_store_fire_and_forget(self):
        core = make_core()
        core.assign_block(one_warp_block([store(0x10, [0]), compute(0x20)]))
        core.try_issue(0)
        assert core.try_issue(4)  # store never blocks the warp

    def test_block_retires_and_frees_slot(self):
        core = make_core()
        core.max_blocks = 1
        core.assign_block(one_warp_block([compute()]))
        assert not core.has_free_block_slot()
        core.try_issue(0)
        assert core.drained
        assert core.has_free_block_slot()


class TestPrefetchEngine:
    def test_software_prefetch_issues_requests(self):
        core = make_core()
        core.assign_block(one_warp_block([prefetch(0x80, [0, 64])]))
        core.try_issue(0)
        assert core.prefetch_instructions == 1
        assert core.prefetch_issued == 2
        assert len(core.mrq) == 2

    def test_prefetch_redundant_with_mrq_entry(self):
        core = make_core()
        core.assign_block(one_warp_block(
            [load(0x10, 0, [0]), prefetch(0x80, [0])]))
        core.try_issue(0)
        core.try_issue(4)
        assert core.prefetch_redundant == 1
        assert core.prefetch_issued == 0

    def test_prefetch_redundant_with_pcache_line(self):
        core = make_core()
        core.pcache.fill(0)
        core.assign_block(one_warp_block([prefetch(0x80, [0])]))
        core.try_issue(0)
        assert core.prefetch_redundant == 1

    def test_throttle_drops_prefetches(self):
        throttled = make_core(throttle_enabled=True)
        throttled.throttle.degree = 5
        throttled.assign_block(one_warp_block([prefetch(0x80, [0, 64])]))
        throttled.try_issue(0)
        assert throttled.prefetch_throttled == 2
        assert throttled.prefetch_issued == 0

    def test_hardware_prefetcher_observes_loads(self):
        pref = StridePcPrefetcher(warp_aware=True)
        core = make_core(prefetcher=pref)
        stream = [load(0x10, t, [t * 4096], base_addr=t * 4096) for t in range(3)]
        core.assign_block(one_warp_block(stream))
        for cycle in (0, 4, 8):
            core.try_issue(cycle)
        assert pref.observations == 3
        assert core.prefetch_issued >= 1  # trained stride fired

    def test_hw_prefetch_footprint_expansion(self):
        """A 2-line demand triggers 2 prefetch lines per target."""
        pref = StridePcPrefetcher(warp_aware=True)
        core = make_core(prefetcher=pref)
        stream = [
            load(0x10, t, [t * 4096, t * 4096 + 64], base_addr=t * 4096)
            for t in range(3)
        ]
        core.assign_block(one_warp_block(stream))
        for cycle in (0, 4, 8):
            core.try_issue(cycle)
        assert core.prefetch_issued == 2

    def test_demand_hits_prefetch_cache(self):
        core = make_core()
        core.pcache.fill(0)
        core.assign_block(one_warp_block(
            [load(0x10, 0, [0]), compute(0x20, wait_tokens=[0])]))
        core.try_issue(0)
        assert len(core.mrq) == 0          # served by the prefetch cache
        assert core.try_issue(4)            # token completed at issue

    def test_late_prefetch_accounting_on_response(self):
        core = make_core()
        core.assign_block(one_warp_block([prefetch(0x80, [0]), load(0x10, 0, [0])]))
        core.try_issue(0)
        core.try_issue(4)                  # demand merges into the prefetch
        request = core.mrq.pop_sendable(5)
        core.on_response(request, 900)
        assert core.late_prefetches == 1
        assert core.pcache.total_useful == 1


class TestStructuralStalls:
    def test_full_mrq_blocks_demand_not_prefetch(self):
        core = make_core(mrq_size=32)
        uncoalesced = [lane * 128 for lane in range(32)]  # a line per lane
        core.assign_block(one_warp_block(
            [load(0x10, 0, uncoalesced), compute(0x11, wait_tokens=[0])], 0, 0))
        core.assign_block(one_warp_block([load(0x20, 0, [64])], 1, 1))
        core.assign_block(one_warp_block([prefetch(0x80, [4096])], 2, 2))
        assert core.try_issue(0)           # fills all 32 MRQ entries
        assert core.mrq.full
        # Warp 1's load cannot allocate, but warp 2's prefetch issues
        # and its request is dropped.
        assert core.try_issue(4)
        assert core.mrq.total_prefetch_dropped_full == 1
        assert core.warps[1].pc_index == 0
        # Then warp 1 stalls on the full MRQ, which blocks the core.
        assert not core.try_issue(8)
        assert core.blocked and core.stall_cycles == 1
        assert core.warps[1].pc_index == 0 and not core.warps[1].parked


class TestThrottleWindow:
    def test_window_is_the_growth_of_run_totals(self):
        """Each period's window is what the run totals grew by since the
        previous boundary: the prefetch cache's early evictions, useful
        prefetches and hits, the MRQ's Eq. 6 merges and requests, and the
        core's issued and late prefetches."""
        windows, feedback = [], []

        class Recorder(StridePcPrefetcher):
            def periodic_update(self, metrics):
                feedback.append(metrics)

        core = make_core(prefetcher=Recorder())
        core.throttle = SimpleNamespace(
            enabled=True, update=lambda window, cycle: windows.append(window)
        )

        def grow(early, useful, hits, merges, requests, issued, late):
            core.pcache.total_early_evictions += early
            core.pcache.total_useful += useful
            core.pcache.total_hits += hits
            core.mrq.total_merges += merges
            core.mrq.total_requests += requests
            core.prefetch_issued += issued
            core.late_prefetches += late

        grow(1, 4, 6, 2, 10, 8, 2)
        core.periodic_update(1000)
        grow(0, 3, 5, 1, 4, 6, 3)
        core.periodic_update(2000)
        assert [
            (w.early_evictions, w.useful_prefetches, w.prefetch_cache_hits,
             w.intra_core_merges, w.total_requests)
            for w in windows
        ] == [(1, 4, 6, 2, 10), (0, 3, 5, 1, 4)]
        assert [
            (m["issued"], m["useful"], m["late"], m["early_evictions"])
            for m in feedback
        ] == [(8, 4, 2, 1), (6, 3, 3, 0)]
        assert feedback[1]["accuracy"] == feedback[1]["lateness"] == 0.5
