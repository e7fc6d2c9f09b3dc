"""Tests for the kernel DSL and trace generation."""

import pytest

from repro.sim.isa import MemSpace, Op
from repro.trace.kernels import Compute, KernelSpec, Load, Store
from repro.trace.swp import IP_SWP, MT_SWP, NO_SWP, REGISTER_SWP, STRIDE_SWP
from repro.trace.tracegen import build_warp_stream, generate_workload


def tiny_spec(**overrides):
    defaults = dict(
        name="tiny",
        suite="test",
        btype="stride",
        threads_per_block=64,
        num_blocks=4,
        body=(
            Load("a", "A", lane_stride=4, iter_stride=1024),
            Compute(1, consumes=("a",)),
            Compute(2),
            Store("out", lane_stride=4, iter_stride=1024),
        ),
        loop_iters=4,
        stride_delinquent=("a",),
        ip_delinquent=("a",),
    )
    defaults.update(overrides)
    return KernelSpec(**defaults)


class TestKernelSpec:
    def test_derived_counts(self):
        spec = tiny_spec()
        assert spec.warps_per_block == 2
        assert spec.total_warps == 8
        assert spec.total_threads == 256

    def test_instruction_mix(self):
        spec = tiny_spec()
        mix = spec.instruction_mix()
        assert mix["comp_inst"] == 2 + 3 * 4  # prologue + 3 computes * 4 iters
        assert mix["mem_inst"] == 2 * 4       # load + store per iteration

    def test_validation_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            tiny_spec(stride_delinquent=("nope",))
        with pytest.raises(ValueError):
            tiny_spec(body=(Load("a", "A"), Compute(1, consumes=("zz",))))
        with pytest.raises(ValueError):
            tiny_spec(threads_per_block=50)

    def test_array_layout_no_overlap(self):
        spec = tiny_spec()
        bases = spec.array_layout()
        assert set(bases) == {"A", "out"}
        extent = (spec.total_threads - 1) * 4 + 3 * 1024 + 64
        assert bases["out"] >= bases["A"] + extent


class TestTraceGeneration:
    def test_stream_structure(self):
        spec = tiny_spec()
        stream = build_warp_stream(spec, warp_id=0, bases=spec.array_layout())
        ops = [inst.op for inst in stream]
        assert ops.count(Op.LOAD) == 4
        assert ops.count(Op.STORE) == 4
        assert ops[:2] == [Op.COMPUTE, Op.COMPUTE]  # prologue

    def test_addresses_follow_strides(self):
        spec = tiny_spec()
        bases = spec.array_layout()
        stream = build_warp_stream(spec, warp_id=1, bases=bases)
        loads = [i for i in stream if i.op == Op.LOAD]
        assert loads[0].base_addr == bases["A"] + 32 * 4  # warp 1 -> tid0=32
        assert loads[1].base_addr == loads[0].base_addr + 1024
        # Coalesced float access: 2 lines per warp.
        assert len(loads[0].lines) == 2

    def test_dependency_tokens(self):
        spec = tiny_spec()
        stream = build_warp_stream(spec, 0, spec.array_layout())
        loads = [i for i in stream if i.op == Op.LOAD]
        consumers = [i for i in stream if i.wait_tokens]
        assert len(consumers) == 4
        for load, consumer in zip(loads, consumers):
            assert consumer.wait_tokens == (load.token,)

    def test_determinism(self):
        spec = tiny_spec()
        s1 = build_warp_stream(spec, 3, spec.array_layout())
        s2 = build_warp_stream(spec, 3, spec.array_layout())
        assert [(i.op, i.pc, i.lines) for i in s1] == [(i.op, i.pc, i.lines) for i in s2]

    def test_workload_shape(self):
        wl = generate_workload(tiny_spec())
        assert wl.total_warps == 8
        assert len(wl.blocks) == 4
        assert wl.max_blocks_per_core >= 1


class TestSoftwarePrefetchTransforms:
    def test_stride_swp_inserts_prefetches(self):
        spec = tiny_spec()
        plain = build_warp_stream(spec, 0, spec.array_layout())
        swp = build_warp_stream(spec, 0, spec.array_layout(), STRIDE_SWP)
        prefetches = [i for i in swp if i.op == Op.PREFETCH]
        # distance 1, 4 iterations: prefetch on iterations 0..2.
        assert len(prefetches) == 3
        assert len(swp) == len(plain) + 3

    def test_stride_prefetch_targets_next_iteration(self):
        spec = tiny_spec()
        bases = spec.array_layout()
        swp = build_warp_stream(spec, 0, bases, STRIDE_SWP)
        first_pf = next(i for i in swp if i.op == Op.PREFETCH)
        first_ld = next(i for i in swp if i.op == Op.LOAD)
        assert first_pf.base_addr == first_ld.base_addr + 1024

    def test_ip_prefetch_targets_next_warp(self):
        spec = tiny_spec()
        bases = spec.array_layout()
        swp0 = build_warp_stream(spec, 0, bases, IP_SWP)
        plain1 = build_warp_stream(spec, 1, bases, NO_SWP)
        pf = next(i for i in swp0 if i.op == Op.PREFETCH)
        target_load = next(i for i in plain1 if i.op == Op.LOAD)
        assert set(pf.lines) == set(target_load.lines)

    def test_ip_prefetch_is_first_instruction(self):
        spec = tiny_spec()
        swp = build_warp_stream(spec, 0, spec.array_layout(), IP_SWP)
        assert swp[0].op == Op.PREFETCH

    def test_mt_swp_combines_both(self):
        spec = tiny_spec()
        swp = build_warp_stream(spec, 0, spec.array_layout(), MT_SWP)
        prefetches = [i for i in swp if i.op == Op.PREFETCH]
        assert len(prefetches) == 4  # 3 stride + 1 ip

    def test_register_prefetch_restructures_loop(self):
        spec = tiny_spec()
        stream = build_warp_stream(spec, 0, spec.array_layout(), REGISTER_SWP)
        loads = [i for i in stream if i.op == Op.LOAD]
        assert len(loads) == 4  # preload + iters 1..3 hoisted
        # The first load appears before the loop body's first store.
        first_store = next(k for k, i in enumerate(stream) if i.op == Op.STORE)
        first_load = next(k for k, i in enumerate(stream) if i.op == Op.LOAD)
        assert first_load < first_store

    def test_register_prefetch_raises_register_usage(self):
        spec = tiny_spec()
        plain = generate_workload(spec, NO_SWP)
        reg = generate_workload(spec, REGISTER_SWP)
        assert reg.resources.regs_per_thread > plain.resources.regs_per_thread

    def test_register_prefetch_ignored_without_loop(self):
        spec = tiny_spec(loop_iters=0, btype="mp")
        plain = build_warp_stream(spec, 0, spec.array_layout(), NO_SWP)
        reg = build_warp_stream(spec, 0, spec.array_layout(), REGISTER_SWP)
        assert len(plain) == len(reg)

    def test_chained_ip_prefetches_are_pipelined(self):
        spec = tiny_spec(
            loop_iters=0,
            btype="mp",
            body=(
                Load("a", "A", lane_stride=4),
                Compute(1, consumes=("a",)),
                Load("b", "B", lane_stride=4),
                Compute(1, consumes=("b",)),
            ),
            stride_delinquent=(),
            ip_delinquent=("a", "b"),
        )
        swp = build_warp_stream(spec, 0, spec.array_layout(), IP_SWP)
        kinds = [i.op for i in swp]
        # prefetch(a') first; prefetch(b') right after load a.
        first_load = kinds.index(Op.LOAD)
        assert kinds[0] == Op.PREFETCH
        assert kinds[first_load + 1] == Op.PREFETCH


class TestSharedComputeRecords:
    """One workload's wait-free compute records are shared objects."""

    def spec(self):
        return tiny_spec(
            body=(
                Load("a", "A", lane_stride=4, iter_stride=1024),
                Compute(3, consumes=("a",)),
                Compute(2, op="imul"),
                Store("out", lane_stride=4, iter_stride=1024),
            ),
        )

    def test_counts_unchanged_and_repeats_are_one_object(self):
        spec = self.spec()
        mix = spec.instruction_mix()
        shared = {}
        waiting = []
        for _, warps in generate_workload(spec).blocks:
            for _, stream in warps:
                assert len(stream) == mix["comp_inst"] + mix["mem_inst"]
                for inst in stream:
                    if inst.is_memory:
                        continue
                    if inst.wait_tokens:
                        waiting.append(inst)
                    else:
                        assert shared.setdefault((inst.op, inst.pc), inst) is inst
        # Two prologue PCs, the consumer's two wait-free repeats and the
        # IMUL pair: one record each, across all 8 warps.
        assert len(shared) == 4
        assert {op for op, _ in shared} == {Op.COMPUTE, Op.IMUL}
        # A record that waits on a load carries its own tokens.
        assert len(waiting) == 8 * 4
        assert len({id(inst) for inst in waiting}) == len(waiting)

    def test_workloads_do_not_share_records(self):
        spec = self.spec()
        first = generate_workload(spec).blocks[0][1][0][1]
        second = generate_workload(spec).blocks[0][1][0][1]
        assert first[0] is not second[0]
        assert [(i.op, i.pc, i.wait_tokens) for i in first] == [
            (i.op, i.pc, i.wait_tokens) for i in second
        ]
