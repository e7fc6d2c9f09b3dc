"""Integration tests: whole-GPU simulations on small workloads."""

import pytest

from repro.core.mt_hwp import MtHwpPrefetcher
from repro.core.stride_pc import StridePcPrefetcher
from repro.core.throttle import ThrottleConfig
from repro.sim.config import CoreConfig, baseline_config
from repro.sim.gpu import GpuSimulator, PeriodicHook
from repro.trace.benchmarks import get_benchmark
from repro.trace.kernels import Compute, KernelSpec, Load, Store
from repro.trace.swp import MT_SWP
from repro.trace.tracegen import generate_workload


def small_spec(loop_iters=4, compute=4, num_blocks=14, warps_per_block=2,
               lane_stride=4):
    return KernelSpec(
        name="small",
        suite="test",
        btype="stride",
        threads_per_block=warps_per_block * 32,
        num_blocks=num_blocks,
        body=(
            Load("a", "A", lane_stride=lane_stride, iter_stride=4096),
            Compute(1, consumes=("a",)),
            Compute(compute),
        ),
        loop_iters=loop_iters,
        stride_delinquent=("a",),
    )


def run(spec=None, config=None, factory=None, swp=None):
    spec = spec or small_spec()
    wl = generate_workload(spec, swp=swp) if swp else generate_workload(spec)
    sim = GpuSimulator(config or baseline_config(), factory)
    sim.load_workload(wl.blocks, wl.max_blocks_per_core)
    return sim.run()


class TestBasicExecution:
    def test_all_instructions_retire(self):
        spec = small_spec()
        wl = generate_workload(spec)
        result = run(spec)
        assert result.stats.instructions == wl.total_instructions()

    def test_perfect_memory_cpi_is_issue_bound(self):
        result = run(config=baseline_config(perfect_memory=True))
        assert result.cpi == pytest.approx(4.0, rel=0.15)

    def test_memory_latency_raises_cpi(self):
        pmem = run(config=baseline_config(perfect_memory=True))
        base = run()
        assert base.cycles > pmem.cycles
        assert base.stats.avg_demand_latency > 100

    def test_deterministic(self):
        a = run()
        b = run()
        assert a.cycles == b.cycles
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_block_dispatch_respects_occupancy(self):
        spec = small_spec(num_blocks=28)
        wl = generate_workload(spec, max_blocks_per_core=None)
        sim = GpuSimulator(baseline_config())
        sim.load_workload(wl.blocks, 1)
        assert max(c.resident_blocks for c in sim.cores) <= 1
        sim.run()

    def test_every_warp_finishes(self):
        spec = small_spec(num_blocks=30)  # uneven across 14 cores
        wl = generate_workload(spec)
        sim = GpuSimulator(baseline_config())
        sim.load_workload(wl.blocks, wl.max_blocks_per_core)
        sim.run()
        assert all(core.drained for core in sim.cores)

    def test_consecutive_blocks_same_core(self):
        """Partitioned dispatch keeps consecutive blocks core-affine."""
        spec = small_spec(num_blocks=28)
        wl = generate_workload(spec)
        sim = GpuSimulator(baseline_config())
        sim.load_workload(wl.blocks, wl.max_blocks_per_core)
        first_core_blocks = {w.block_id for w in sim.cores[0].warps}
        assert first_core_blocks == {0, 1}


class TestPrefetchingEndToEnd:
    def test_hardware_prefetching_helps_latency_bound_kernel(self):
        spec = small_spec(loop_iters=8, compute=4, num_blocks=14)
        base = run(spec)
        pref = run(spec, factory=lambda cid: StridePcPrefetcher(warp_aware=True))
        assert pref.cycles < base.cycles
        assert pref.stats.useful_prefetches > 0

    def test_mt_hwp_trains_and_promotes(self):
        # 42 blocks over 14 cores -> 3 resident blocks (6 warps) per core,
        # enough agreeing PWS entries to cross the promotion threshold.
        spec = small_spec(loop_iters=8, num_blocks=42)
        prefs = []

        def factory(cid):
            p = MtHwpPrefetcher()
            prefs.append(p)
            return p

        run(spec, factory=factory)
        assert sum(p.promotions for p in prefs) > 0
        assert sum(p.gs_hits for p in prefs) > 0

    def test_software_prefetching_generates_requests(self):
        spec = small_spec(loop_iters=8, num_blocks=14)
        result = run(spec, swp=MT_SWP)
        assert result.stats.prefetch_instructions > 0
        assert result.stats.prefetch_requests_issued > 0
        assert result.stats.useful_prefetches > 0

    def test_prefetch_accuracy_high_for_regular_pattern(self):
        """Paper Section I: accuracy is easily ~100% on regular kernels."""
        spec = small_spec(loop_iters=8, num_blocks=14)
        result = run(spec, swp=MT_SWP)
        assert result.stats.prefetch_accuracy > 0.7

    def test_throttling_engine_updates_periodically(self):
        spec = small_spec(loop_iters=8, num_blocks=14)
        cfg = baseline_config(throttle=ThrottleConfig(enabled=True, period=500))
        wl = generate_workload(spec, swp=MT_SWP)
        sim = GpuSimulator(cfg)
        sim.load_workload(wl.blocks, wl.max_blocks_per_core)
        sim.run()
        assert all(core.throttle.updates > 0 for core in sim.cores)


class TestScalingKnobs:
    def test_more_cores_run_faster(self):
        spec = small_spec(num_blocks=40)
        slow = run(spec, config=baseline_config(num_cores=8))
        fast = run(spec, config=baseline_config(num_cores=16))
        assert fast.cycles < slow.cycles

    def test_mrq_size_bounds_outstanding(self):
        """32 entries hold one uncoalesced warp-instruction's lines, so
        warps queue behind a full MRQ; 512 entries hold sixteen."""
        spec = small_spec(num_blocks=28, warps_per_block=8, lane_stride=128)

        def run_with_peak(mrq_size):
            wl = generate_workload(spec)
            sim = GpuSimulator(baseline_config(core=CoreConfig(mrq_size=mrq_size)))
            sim.load_workload(wl.blocks, wl.max_blocks_per_core)
            peak = [0]

            def sample(s):
                peak[0] = max(peak[0], max(len(core.mrq) for core in s.cores))

            sim.hooks.append(PeriodicHook(1, sample, 0))
            return sim.run(), peak[0]

        small, small_peak = run_with_peak(32)
        large, large_peak = run_with_peak(512)
        assert small_peak == 32 < large_peak
        assert large.cycles < small.cycles

    def test_real_benchmark_smoke(self):
        result = run(get_benchmark("cell", scale=0.25))
        assert result.cycles > 0
        assert result.cpi > 4.0
