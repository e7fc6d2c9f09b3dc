"""Edge-case tests for the event-accelerated simulation loop."""

import pytest

from repro.sim.config import baseline_config
from repro.sim.core import Core
from repro.sim.gpu import GpuSimulator
from repro.sim.isa import compute, fdiv, load
from repro.sim.warp import Warp


def single_block(stream):
    return [(0, [(0, stream)])]


def test_empty_workload_finishes_immediately():
    sim = GpuSimulator(baseline_config())
    sim.load_workload([], 1)
    result = sim.run()
    assert result.stats.instructions == 0


def test_single_instruction_workload():
    sim = GpuSimulator(baseline_config())
    sim.load_workload(single_block([compute()]), 1)
    result = sim.run()
    assert result.stats.instructions == 1
    assert result.cycles <= 10


def test_cycle_skipping_preserves_results():
    """The skip logic must not change outcomes vs. tiny max steps.

    We can't easily force single-stepping, but we can check that two
    identical runs agree and that memory latency is consistent with the
    configured pipeline (no event was skipped past).
    """
    cfg = baseline_config()
    stream = [load(0x10, 0, [0]), compute(0x20, wait_tokens=[0])]
    sim = GpuSimulator(cfg)
    sim.load_workload(single_block(list(stream)), 1)
    result = sim.run()
    expected_min = (
        cfg.interconnect.latency * 2 + cfg.dram.pipeline_latency + cfg.dram.t_rcd
    )
    assert result.stats.avg_demand_latency >= expected_min
    assert result.stats.avg_demand_latency <= expected_min + 200


def test_max_cycles_guard():
    cfg = baseline_config(max_cycles=50)
    # A load takes ~1300 cycles; the guard stops the run before the
    # dependent compute can retire (the final event skip may overshoot the
    # guard by one event horizon, but no further work is simulated).
    sim = GpuSimulator(cfg)
    sim.load_workload(
        single_block([load(0x10, 0, [0]), compute(0x20, wait_tokens=[0])]), 1
    )
    result = sim.run()
    assert result.stats.instructions < 2
    assert not all(core.drained for core in sim.cores)
    # Truncation is never silent: the partial result is flagged.
    assert result.truncated and result.stats.truncated


def test_uneven_blocks_across_cores():
    cfg = baseline_config(num_cores=4)
    blocks = [(i, [(i, [compute(), compute()])]) for i in range(7)]
    sim = GpuSimulator(cfg)
    sim.load_workload(blocks, 2)
    result = sim.run()
    assert result.stats.instructions == 14
    assert all(core.drained for core in sim.cores)


def test_multiple_waves_per_core():
    cfg = baseline_config(num_cores=2)
    blocks = [(i, [(i, [load(0x10, 0, [i * 4096]),
                        compute(0x20, wait_tokens=[0])])]) for i in range(8)]
    sim = GpuSimulator(cfg)
    sim.load_workload(blocks, 1)  # one block slot -> 4 sequential waves/core
    result = sim.run()
    assert result.stats.demand_loads == 8
    # Waves serialize: at least 4 full round trips of runtime.
    assert result.cycles > 4 * cfg.dram.pipeline_latency


def test_rerun_continues_from_clean_state():
    sim = GpuSimulator(baseline_config())
    sim.load_workload(single_block([compute()]), 1)
    first = sim.run()
    # Loading a new workload into the same simulator keeps working, with
    # the clock carrying on monotonically.
    sim.load_workload([(1, [(1, [compute()])])], 1)
    second = sim.run()
    assert second.cycles >= first.cycles


def test_response_to_a_busy_core_skips_its_poll(monkeypatch):
    """A response that reaches a core whose issue port is busy does not
    poll it: the loop reads the port before anything else, and a busy
    core is never ``blocked``, so the port's release polls it anyway.

    The same workload is run twice, once as the loop runs it and once
    with every response to a busy core taking back its ``woken`` flag;
    neither run may poll a busy port, and the stats must agree.
    """
    # Warp 0's load returns while warp 1's 32-cycle FDIVs keep the
    # port busy on all but one cycle in 32.
    blocks = [(0, [
        (0, [load(0x10, 0, [0]), compute(0x20, wait_tokens=[0])]),
        (1, [fdiv(0x30) for _ in range(80)]),
    ])]
    try_issue = Core.try_issue
    on_response = Core.on_response

    def run(unwake):
        busy_polls = []
        busy_responses = []

        def spied_try_issue(core, cycle):
            if core.port_free_cycle > cycle or core.blocked:
                busy_polls.append(cycle)
            return try_issue(core, cycle)

        def spied_on_response(core, request, cycle):
            busy = core.port_free_cycle > cycle
            if busy:
                assert not core.blocked
                busy_responses.append(cycle)
            on_response(core, request, cycle)
            if busy and unwake:
                core.woken = False

        monkeypatch.setattr(Core, "try_issue", spied_try_issue)
        monkeypatch.setattr(Core, "on_response", spied_on_response)
        sim = GpuSimulator(baseline_config(num_cores=1))
        sim.load_workload(blocks, 2)
        return sim.run().stats.to_dict(), busy_polls, busy_responses

    stats, busy_polls, busy_responses = run(unwake=False)
    assert busy_responses, "no response reached a busy core"
    assert busy_polls == []
    unwoken_stats, unwoken_polls, unwoken_responses = run(unwake=True)
    assert unwoken_responses == busy_responses
    assert unwoken_polls == []
    assert unwoken_stats == stats
