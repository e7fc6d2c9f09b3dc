"""Unit tests for the DRAM model: mapping, scheduling, merging, priority."""

from repro.sim.config import DramConfig
from repro.sim.dram import NEVER, Dram, DramChannel
from repro.sim.memory_request import MemoryRequest


def make_config(**overrides):
    defaults = dict(pipeline_latency=0)
    defaults.update(overrides)
    return DramConfig(**defaults)


def demand(line, core=0, cycle=0):
    return MemoryRequest(line, core, 0, 0x10, False, cycle)


def prefetch(line, core=0, cycle=0):
    return MemoryRequest(line, core, 0, 0x10, True, cycle)


def drain(channel, until=100_000):
    """Run the channel until idle; return completed entries in order."""
    completed = []
    cycle = 0
    while not channel.idle and cycle < until:
        completed.extend(channel.step(cycle))
        nxt = channel.next_event_cycle(cycle)
        cycle = max(cycle + 1, nxt if nxt is not None else cycle + 1)
    return completed


class TestAddressMapping:
    def test_mapping_is_deterministic_and_in_range(self):
        dram = Dram(make_config())
        for line in range(0, 64 * 512, 64):
            channel, bank, row = dram.map_address(line)
            assert 0 <= channel < 8
            assert 0 <= bank < 16
            assert row >= 0
            assert dram.map_address(line) == (channel, bank, row)

    def test_channel_hash_spreads_power_of_two_strides(self):
        """A 2KB-strided sweep must not camp on one channel."""
        dram = Dram(make_config())
        channels = {dram.map_address(i * 2048)[0] for i in range(64)}
        assert len(channels) >= 4

    def test_consecutive_lines_spread_over_channels(self):
        dram = Dram(make_config())
        channels = {dram.map_address(i * 64)[0] for i in range(16)}
        assert len(channels) >= 4


class TestChannelScheduling:
    def test_single_request_completes(self):
        cfg = make_config()
        ch = DramChannel(0, cfg)
        ch.arrive(demand(0), bank=0, row=0, cycle=0)
        done = drain(ch)
        assert len(done) == 1
        assert ch.lines_transferred == 1
        assert ch.row_misses == 1  # first access opens the row

    def test_row_hit_vs_miss_latency(self):
        cfg = make_config()
        ch = DramChannel(0, cfg)
        ch.arrive(demand(0), 0, 0, 0)
        drain(ch)
        hits_before = ch.row_hits
        ch.arrive(demand(64), 0, 0, 1000)   # same row -> hit
        drain(ch)
        assert ch.row_hits == hits_before + 1
        ch.arrive(demand(1 << 20), 0, 7, 2000)  # other row -> conflict miss
        drain(ch)
        assert ch.row_misses == 2

    def test_demand_served_before_prefetch(self):
        cfg = make_config()
        ch = DramChannel(0, cfg)
        ch.arrive(prefetch(0), 0, 0, 0)
        ch.arrive(demand(64), 0, 0, 0)
        done = drain(ch)
        assert done[0].requesters[0].is_demand
        assert done[1].requesters[0].was_prefetch

    def test_late_prefetch_promotion_reorders(self):
        """A demand merging into a sent prefetch must lift its priority."""
        cfg = make_config()
        ch = DramChannel(0, cfg)
        pref_req = prefetch(0)
        ch.arrive(pref_req, 0, 0, 0)
        ch.arrive(demand(64), 0, 0, 0)
        # Merge a demand into the prefetch at the core MRQ (simulated by
        # flipping the request object, as MemoryRequest.merge_demand does).
        pref_req.merge_demand(None, -1, 1)
        done = drain(ch)
        # The promoted (older) entry must now be served first.
        assert done[0].line_addr == 0

    def test_inter_core_merging(self):
        cfg = make_config()
        ch = DramChannel(0, cfg)
        ch.arrive(demand(0, core=0), 0, 0, 0)
        ch.arrive(demand(0, core=1), 0, 0, 0)
        done = drain(ch)
        assert len(done) == 1
        assert len(done[0].requesters) == 2
        assert ch.inter_core_merges == 1

    def test_stores_do_not_merge_with_loads(self):
        cfg = make_config()
        ch = DramChannel(0, cfg)
        store = MemoryRequest(0, 0, 0, 0x10, False, 0, is_store=True)
        ch.arrive(store, 0, 0, 0)
        ch.arrive(demand(0), 0, 0, 0)
        done = drain(ch)
        assert len(done) == 2

    def test_bus_throughput_bounded(self):
        """N streaming row hits take at least N * burst_cycles on the bus."""
        cfg = make_config()
        ch = DramChannel(0, cfg)
        n = 20
        for i in range(n):
            ch.arrive(demand(i * 64), 0, 0, 0)
        cycle = 0
        completed = 0
        while completed < n and cycle < 10_000:
            completed += len(ch.step(cycle))
            nxt = ch.next_event_cycle(cycle)
            cycle = max(cycle + 1, nxt if nxt is not None else cycle + 1)
        assert completed == n
        assert cycle >= n * cfg.burst_cycles

    def test_pipeline_latency_delays_schedulability(self):
        cfg = make_config(pipeline_latency=500)
        ch = DramChannel(0, cfg)
        ch.arrive(demand(0), 0, 0, 0)
        assert not ch.step(100)  # still traversing the pipeline
        done = drain(ch)
        assert len(done) == 1

    def test_merge_inherits_pipeline_progress(self):
        """A demand merging late must not restart the pipeline."""
        cfg = make_config(pipeline_latency=500)
        ch = DramChannel(0, cfg)
        pref_req = prefetch(0)
        ch.arrive(pref_req, 0, 0, 0)
        ch.step(0)
        pref_req.merge_demand(None, -1, 499)  # merge just before ready
        done = []
        cycle = 499
        while not done and cycle < 2000:
            done = ch.step(cycle)
            cycle += 1
        # Service completed shortly after ready (500), not after 999.
        assert cycle < 600


class TestPostedDueCycles:
    """Each channel posts its next event; Dram keeps the minimum."""

    def test_arrival_into_empty_channel_posts_ready_cycle(self):
        dram = Dram(make_config(pipeline_latency=300))
        assert dram.due_cycle == NEVER
        dram.arrive(demand(0), 40)
        channel = next(ch for ch in dram.channels if ch.pending)
        assert channel.due_cycle == 340 == channel.next_event_cycle(40)
        assert dram.due_cycle == 340

    def test_arrival_into_busy_channel_keeps_posting(self):
        ch = DramChannel(0, make_config(pipeline_latency=300))
        ch.arrive(demand(0), bank=0, row=0, cycle=0)
        ch.arrive(demand(64), bank=1, row=0, cycle=50)
        assert ch.due_cycle == 300 == ch.next_event_cycle(50)
        # Stepping at the due cycle services the oldest entry, whose
        # burst completes before the second entry is ready (350).
        ch.step(300)
        due = ch.due_cycle
        assert due == ch.next_event_cycle(300)
        assert 300 < due < 350
        ch.arrive(demand(128), bank=2, row=0, cycle=301)
        assert ch.due_cycle == due == ch.next_event_cycle(301)

    def test_l2_hit_completion_lowers_posting(self):
        cfg = DramConfig(pipeline_latency=100, l2_size_bytes=64 * 1024)
        ch = DramChannel(0, cfg)
        ch.arrive(demand(0), bank=0, row=0, cycle=0)
        drain(ch)
        assert ch.due_cycle == NEVER
        # A miss queues behind the pipeline; the L2 hit that follows
        # completes first, and the posting moves to it.
        ch.arrive(demand(64), bank=1, row=0, cycle=1000)
        assert ch.due_cycle == 1100
        ch.arrive(demand(0, core=1), bank=0, row=0, cycle=1010)
        assert ch.l2_hits == 1
        assert ch.due_cycle == 1010 + cfg.l2_latency
        assert ch.due_cycle == ch.next_event_cycle(1010)

    def test_step_reposts_next_event(self):
        dram = Dram(make_config(pipeline_latency=10))
        for i in range(4):
            dram.arrive(demand(i * 64), 0)
        while dram.due_cycle != NEVER:
            cycle = dram.due_cycle
            dram.step(cycle)
            assert dram.due_cycle > cycle
            for ch in dram.channels:
                expected = ch.next_event_cycle(cycle)
                assert ch.due_cycle == (NEVER if expected is None else expected)
            assert dram.due_cycle == min(ch.due_cycle for ch in dram.channels)
        assert dram.idle
        assert dram.total_lines_transferred == 4


class TestDramFrontend:
    def test_arrive_routes_by_channel(self):
        dram = Dram(make_config())
        req = demand(0)
        dram.arrive(req, 0)
        assert sum(len(ch.pending) for ch in dram.channels) == 1

    def test_aggregate_stats(self):
        dram = Dram(make_config())
        for i in range(8):
            dram.arrive(demand(i * 64), 0)
        cycle = 0
        remaining = 8
        while remaining and cycle < 10_000:
            remaining -= len(dram.step(cycle))
            cycle = max(cycle + 1, dram.due_cycle)
        assert dram.total_lines_transferred == 8
        assert dram.idle
