"""Unit tests for the injection-limited, fixed-latency interconnect."""

from repro.sim.config import InterconnectConfig
from repro.sim.dram import BufferEntry
from repro.sim.interconnect import Interconnect
from repro.sim.memory_request import MemoryRequest
from repro.sim.mrq import MemoryRequestQueue
from repro.sim.warp import Warp


def make_mrqs(n=14, size=64):
    return [MemoryRequestQueue(i, size) for i in range(n)]


def fill_demands(mrq, count, base=0):
    warp = Warp(0, 0, [])
    for i in range(count):
        mrq.access_demand(base + i * 64, warp, i, 0x10, 0, 0)


def test_fixed_latency_delivery():
    icnt = Interconnect(InterconnectConfig(), 14)
    mrqs = make_mrqs()
    fill_demands(mrqs[0], 1)
    icnt.inject_requests(1, mrqs)
    assert not icnt.pop_memory_arrivals(20)
    arrivals = icnt.pop_memory_arrivals(21)
    assert len(arrivals) == 1


def test_injection_bandwidth_limit():
    """At most num_cores/2 requests per cycle enter the network."""
    icnt = Interconnect(InterconnectConfig(), 14)
    assert icnt.slots_per_cycle == 7
    mrqs = make_mrqs()
    for mrq in mrqs:
        fill_demands(mrq, 2, base=mrq.core_id * 1 << 20)
    icnt.inject_requests(1, mrqs)
    assert icnt.total_injected == 7
    icnt.inject_requests(2, mrqs)
    assert icnt.total_injected == 14


def test_credit_accumulates_over_skipped_cycles():
    icnt = Interconnect(InterconnectConfig(), 14)
    mrqs = make_mrqs()
    icnt.inject_requests(1, mrqs)  # nothing to send; the visit is recorded
    for mrq in mrqs:
        fill_demands(mrq, 2, base=mrq.core_id * 1 << 20)
    # A visit after a skip grants the budget of every cycle since the
    # previous visit in one batch.
    icnt.inject_requests(100, mrqs)
    assert icnt.total_injected == 28  # everything drained
    assert icnt.last_visit == 100


def test_round_robin_fairness():
    icnt = Interconnect(InterconnectConfig(), 4)
    mrqs = make_mrqs(4)
    for mrq in mrqs:
        fill_demands(mrq, 3, base=mrq.core_id * 1 << 20)
    icnt.inject_requests(1, mrqs)  # 2 slots for 4 cores
    sent_1 = [m.total_requests - len(m._send_queue) for m in mrqs]
    icnt.inject_requests(2, mrqs)
    icnt.inject_requests(3, mrqs)
    # After three cycles (6 slots), no core should be more than 2 ahead.
    remaining = [len(m._send_queue) for m in mrqs]
    assert max(remaining) - min(remaining) <= 2


def test_response_path():
    icnt = Interconnect(InterconnectConfig(), 14)
    mrqs = make_mrqs()
    fill_demands(mrqs[3], 1)
    request = mrqs[3].pop_sendable(0)
    store = MemoryRequest(0x4000, 5, 0, 0x10, False, 0, is_store=True)
    icnt.send_responses(
        100, [BufferEntry(request.line_addr, 0, 0, request, 80, 90),
              BufferEntry(store.line_addr, 0, 0, store, 80, 90)],
    )
    assert not icnt.pop_core_arrivals(119)
    arrivals = icnt.pop_core_arrivals(120)
    assert arrivals == [(3, request)]  # a store carries no response


def test_next_event_and_idle():
    icnt = Interconnect(InterconnectConfig(), 14)
    assert icnt.idle
    assert icnt.next_event_cycle() is None
    mrqs = make_mrqs()
    fill_demands(mrqs[0], 1)
    icnt.inject_requests(5, mrqs)
    assert not icnt.idle
    assert icnt.next_event_cycle() == 25
    icnt.pop_memory_arrivals(25)
    assert icnt.idle
