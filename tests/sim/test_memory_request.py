"""Tests for memory request objects and their merge semantics."""

from repro.sim.memory_request import MemoryRequest
from repro.sim.warp import Warp


def test_demand_request_flags():
    req = MemoryRequest(64, core_id=1, warp_id=2, pc=0x10, is_prefetch=False, create_cycle=5)
    assert req.is_demand
    assert not req.is_prefetch
    assert not req.was_prefetch
    assert req.create_cycle == 5
    assert req.send_cycle == -1


def test_prefetch_request_flags():
    req = MemoryRequest(64, 1, 2, 0x10, True, 5)
    assert req.is_prefetch
    assert req.was_prefetch
    assert not req.is_demand
    assert not req.late_prefetch


def test_store_is_neither_demand_nor_prefetch():
    req = MemoryRequest(64, 1, 2, 0x10, False, 5, is_store=True)
    assert not req.is_demand
    assert req.is_store


def test_merge_demand_promotes_prefetch():
    req = MemoryRequest(64, 1, 2, 0x10, True, 5)
    warp = Warp(0, 0, [])
    req.merge_demand(warp, 3, cycle=100)
    assert not req.is_prefetch          # promoted
    assert req.was_prefetch             # history preserved
    assert req.late_prefetch            # merged while in flight
    assert req.waiters == [(warp, 3)]


def test_merge_demand_on_demand_adds_waiter_only():
    req = MemoryRequest(64, 1, 2, 0x10, False, 5)
    warp = Warp(0, 0, [])
    req.merge_demand(warp, 7, cycle=10)
    assert not req.late_prefetch
    assert req.waiters == [(warp, 7)]


def test_merge_without_waiter():
    req = MemoryRequest(64, 1, 2, 0x10, True, 5)
    req.merge_demand(None, -1, 10)
    assert req.late_prefetch
    assert req.waiters == []
