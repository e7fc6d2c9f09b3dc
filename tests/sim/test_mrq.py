"""Unit tests for the memory request queue (intra-core merging, Fig. 2a)."""

from types import SimpleNamespace

from repro.sim.config import baseline_config
from repro.sim.core import Core
from repro.sim.mrq import MemoryRequestQueue
from repro.sim.warp import Warp


def make_warp(warp_id=0):
    return Warp(warp_id, 0, [])


def test_new_demand_allocates_entry():
    mrq = MemoryRequestQueue(0, 4)
    warp = make_warp()
    req = mrq.access_demand(0, warp, 1, pc=0x10, warp_id=0, cycle=5)
    assert req is not None
    assert req.is_demand
    assert len(mrq) == 1
    assert mrq.total_requests == 1
    assert mrq.total_merges == 0


def test_demand_demand_merge_counts_intra_core_merge():
    mrq = MemoryRequestQueue(0, 4)
    w0, w1 = make_warp(0), make_warp(1)
    first = mrq.access_demand(0, w0, 1, 0x10, 0, 0)
    second = mrq.access_demand(0, w1, 2, 0x14, 1, 1)
    assert first is second
    assert len(mrq) == 1
    assert mrq.total_merges == 1
    assert len(first.waiters) == 2


def test_demand_merging_into_prefetch_marks_late():
    mrq = MemoryRequestQueue(0, 4)
    pref = mrq.access_prefetch(0, 0x10, 0, 0)
    assert pref.is_prefetch
    warp = make_warp()
    merged = mrq.access_demand(0, warp, 1, 0x14, 0, 3)
    assert merged is pref
    assert not pref.is_prefetch
    assert pref.was_prefetch
    assert pref.late_prefetch
    assert mrq.total_demand_on_prefetch_merges == 1


def test_full_mrq_rejects_demand_but_allows_merge():
    mrq = MemoryRequestQueue(0, 1)
    warp = make_warp()
    mrq.access_demand(0, warp, 1, 0x10, 0, 0)
    assert mrq.access_demand(64, warp, 2, 0x14, 0, 1) is None
    # Merge with the existing line still works while full.
    assert mrq.access_demand(0, warp, 3, 0x18, 0, 2) is not None


def test_full_mrq_drops_prefetch():
    mrq = MemoryRequestQueue(0, 1)
    warp = make_warp()
    mrq.access_demand(0, warp, 1, 0x10, 0, 0)
    assert mrq.access_prefetch(64, 0x14, 0, 1) is None
    assert mrq.total_prefetch_dropped_full == 1


def test_pop_sendable_prefers_demand():
    mrq = MemoryRequestQueue(0, 4)
    warp = make_warp()
    mrq.access_prefetch(0, 0x10, 0, 0)
    mrq.access_demand(64, warp, 1, 0x14, 0, 0)
    first = mrq.pop_sendable(1)
    assert first.line_addr == 64 and first.is_demand
    second = mrq.pop_sendable(2)
    assert second.line_addr == 0 and second.is_prefetch
    assert mrq.pop_sendable(3) is None


def test_store_entry_freed_at_injection():
    mrq = MemoryRequestQueue(0, 4)
    mrq.access_store(0, 0x10, 0, 0)
    assert len(mrq) == 1
    request = mrq.pop_sendable(1)
    assert request.is_store
    assert len(mrq) == 0  # freed at send; no response expected


def test_load_entry_freed_at_completion():
    mrq = MemoryRequestQueue(0, 4)
    warp = make_warp()
    mrq.access_demand(0, warp, 1, 0x10, 0, 0)
    request = mrq.pop_sendable(1)
    assert len(mrq) == 1  # entry acts as an MSHR until the response
    completed = mrq.complete(0)
    assert completed is request
    assert len(mrq) == 0


def test_merge_window_extends_to_in_flight_requests():
    mrq = MemoryRequestQueue(0, 4)
    warp = make_warp()
    mrq.access_prefetch(0, 0x10, 0, 0)
    mrq.pop_sendable(1)  # prefetch now in flight
    merged = mrq.access_demand(0, warp, 1, 0x14, 0, 50)
    assert merged.late_prefetch


def test_window_snapshot():
    """The core's throttle window reads this period's growth of the MRQ's
    merge and request totals, the next window starts from zero, and the
    run totals persist."""
    core = Core(0, baseline_config())
    windows = []
    core.throttle = SimpleNamespace(
        enabled=True, update=lambda window, cycle: windows.append(window)
    )
    mrq = core.mrq = MemoryRequestQueue(0, 8)
    warp = make_warp()
    mrq.access_demand(0, warp, 1, 0x10, 0, 0)
    mrq.access_demand(0, warp, 2, 0x10, 0, 1)
    core.periodic_update(1000)
    core.periodic_update(2000)
    assert [(w.intra_core_merges, w.total_requests) for w in windows] == [
        (1, 2), (0, 0)
    ]
    assert mrq.total_merges == 1 and mrq.total_requests == 2


def test_sendable_flag():
    mrq = MemoryRequestQueue(0, 4)
    assert not mrq.has_sendable()
    mrq.access_prefetch(0, 0x10, 0, 0)
    assert mrq.has_sendable()
    mrq.pop_sendable(1)
    assert not mrq.has_sendable()
