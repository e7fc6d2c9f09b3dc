"""Interconnect arbiter ≡ the per-grant probe it replaced, call for call.

:meth:`Interconnect.inject_requests` collects the MRQs holding a
sendable request once per call and grants round-robin over that list,
with a budget of ``slots_per_cycle`` per cycle since the run loop's
previous visit.  The arbiter it replaced kept a float credit (refilled
per elapsed cycle, capped at ``slots_per_cycle * max(1, elapsed)``) and
probed every MRQ round-robin from the pointer for each grant.  The
determinism suite pins byte-identical stats across that change, so this
suite keeps the old probe as a reference and requires, on every call,
the same grant order, pointer, return flag, injection count, pipe
contents and MRQ state.

Traces fill and drain small MRQs with demands, stores and prefetches, so
the cases where the two could part are common: stores freed at injection
(waking their core), prefetches held back behind demands, queues that
empty mid-call, and visits 1 to 6 cycles apart.  The first visit is at
cycle 0, where the elapsed time is 0 and neither arbiter grants.
"""

import heapq
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import InterconnectConfig
from repro.sim.interconnect import Interconnect
from repro.sim.mrq import MemoryRequestQueue
from repro.sim.warp import Warp

#: Access kinds a trace draws from.
_KINDS = ("demand", "store", "prefetch")


class _ProbeArbiter:
    """The per-grant probe arbiter, kept as the reference."""

    def __init__(self, config, num_cores):
        self.latency = config.latency
        self.num_cores = num_cores
        self.slots_per_cycle = max(1, num_cores // config.cores_per_injection_slot)
        self.rr_pointer = 0
        self.credit = 0.0
        self.last_step_cycle = 0
        self.pipe = []
        self.seq = 0
        self.total_injected = 0

    def tick_idle(self, cycle):
        """Refill the credit for the cycles since the previous update."""
        elapsed = cycle - self.last_step_cycle
        self.last_step_cycle = cycle
        self.credit = min(
            self.credit + elapsed * self.slots_per_cycle,
            float(self.slots_per_cycle) * max(1, elapsed),
        )

    def inject_requests(self, cycle, mrqs):
        self.tick_idle(cycle)
        while self.credit >= 1.0:
            request = self._pick_next(cycle, mrqs)
            if request is None:
                return False
            self.credit -= 1.0
            self.total_injected += 1
            heapq.heappush(self.pipe, (cycle + self.latency, self.seq, request))
            self.seq += 1
        return any(mrq._send_queue for mrq in mrqs)

    def _pick_next(self, cycle, mrqs):
        """Probe every MRQ from the pointer for one sendable request."""
        core_id = self.rr_pointer
        for _ in range(self.num_cores):
            if core_id >= self.num_cores:
                core_id -= self.num_cores
            request = mrqs[core_id].pop_sendable(cycle)
            if request is not None:
                core_id += 1
                self.rr_pointer = core_id if core_id < self.num_cores else 0
                return request
            core_id += 1
        return None


def _make_mrqs(num_cores, size):
    mrqs = []
    for core_id in range(num_cores):
        mrq = MemoryRequestQueue(core_id, size)
        mrq.owner_core = SimpleNamespace(woken=False)
        mrqs.append(mrq)
    return mrqs


def _fill(mrqs, warp, fills, cycle):
    for core_id, kind, line in fills:
        mrq = mrqs[core_id]
        if kind == "demand":
            mrq.access_demand(line * 64, warp, 0, 0x10, 0, cycle)
        elif kind == "store":
            mrq.access_store(line * 64, 0x20, 0, cycle)
        else:
            mrq.access_prefetch(line * 64, 0x30, 0, cycle)


def _drain(mrqs, arrivals):
    """Free the MRQ entries of loads that reached memory."""
    for request in arrivals:
        if not request.is_store:
            mrqs[request.core_id].complete(request.line_addr)


def _pipe(heap):
    return [
        (arrival, seq, request.core_id, request.line_addr, request.is_store,
         request.is_prefetch, request.send_cycle)
        for arrival, seq, request in sorted(heap, key=lambda item: item[1])
    ]


def _mrq_state(mrqs):
    return [
        (sorted(mrq._entries), [r.line_addr for r in mrq._send_queue],
         mrq.total_stores_sent, mrq.owner_core.woken)
        for mrq in mrqs
    ]


def _replay(num_cores, per_slot, latency, size, visits):
    """Drive both arbiters through one trace, comparing every call.

    Each visit pops what reached memory on both sides (freeing its load
    entries), applies the visit's fills, then runs the run loop's
    inject step: the arbiter is called when a request is pending (or the
    visit polls anyway), and an idle visit only records itself.
    """
    config = InterconnectConfig(latency=latency, cores_per_injection_slot=per_slot)
    icnt = Interconnect(config, num_cores)
    probe = _ProbeArbiter(config, num_cores)
    mrqs = _make_mrqs(num_cores, size)
    probe_mrqs = _make_mrqs(num_cores, size)
    warp, probe_warp = Warp(0, 0, []), Warp(0, 0, [])
    send_pending = False
    cycle = -1
    for index, (gap, fills, poll) in enumerate(visits):
        cycle = 0 if index == 0 else cycle + 1 + gap
        _drain(mrqs, icnt.pop_memory_arrivals(cycle))
        probe_arrivals = []
        while probe.pipe and probe.pipe[0][0] <= cycle:
            probe_arrivals.append(heapq.heappop(probe.pipe)[2])
        _drain(probe_mrqs, probe_arrivals)
        _fill(mrqs, warp, fills, cycle)
        _fill(probe_mrqs, probe_warp, fills, cycle)
        send_pending = send_pending or any(mrq._send_queue for mrq in mrqs)
        if send_pending or poll:
            send_pending = icnt.inject_requests(cycle, mrqs)
            assert probe.inject_requests(cycle, probe_mrqs) == send_pending
        else:
            icnt.last_visit = cycle
            probe.tick_idle(cycle)
        assert icnt._rr_pointer == probe.rr_pointer, f"cycle {cycle}"
        assert icnt.total_injected == probe.total_injected, f"cycle {cycle}"
        assert _pipe(icnt._to_memory) == _pipe(probe.pipe), f"cycle {cycle}"
        assert _mrq_state(mrqs) == _mrq_state(probe_mrqs), f"cycle {cycle}"
        for mrq in mrqs + probe_mrqs:
            mrq.owner_core.woken = False
    return icnt.total_injected


@st.composite
def _traces(draw):
    """A randomized fill-and-drain trace plus an arbiter geometry.

    Small MRQs and a dozen lines keep merges, full queues and store
    promotions frequent; a budget that is often smaller than the
    sendable set keeps the round-robin pointer busy.
    """
    num_cores = draw(st.sampled_from((1, 2, 3, 4, 7)))
    per_slot = draw(st.sampled_from((1, 2, 3)))
    latency = draw(st.integers(1, 6))
    size = draw(st.integers(1, 6))
    fill = st.tuples(
        st.integers(0, num_cores - 1), st.sampled_from(_KINDS), st.integers(0, 11)
    )
    visits = draw(st.lists(
        st.tuples(st.integers(0, 5), st.lists(fill, max_size=8), st.booleans()),
        min_size=1, max_size=40,
    ))
    return num_cores, per_slot, latency, size, visits


class TestArbiterEquivalence:
    @given(trace=_traces())
    @settings(max_examples=150, deadline=None)
    def test_arbiter_matches_per_grant_probe_on_every_call(self, trace):
        _replay(*trace)

    def test_cycle_zero_grants_nothing(self):
        """Elapsed 0 at cycle 0 grants nothing, as the probe did."""
        fills = [(core_id, "demand", core_id) for core_id in range(14)]
        visits = [(0, fills, False), (0, [], False), (2, [], False)]
        assert _replay(14, 2, 20, 4, visits[:1]) == 0
        # Then 7 slots at cycle 1 and 21 for the three cycles to cycle 4.
        assert _replay(14, 2, 20, 4, visits) == 14

    def test_pointer_wraps_past_the_last_sendable_core(self):
        """A grant to the highest sendable core sends the pointer round."""
        fills = [(3, "demand", 1), (3, "demand", 2), (0, "store", 3)]
        visits = [(0, fills, False)] + [(0, [], False)] * 3
        assert _replay(4, 4, 2, 4, visits) == 3
