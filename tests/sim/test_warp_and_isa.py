"""Unit tests for warp state, the ISA records, and the occupancy calculator."""

import pytest

from repro.sim.config import CoreConfig
from repro.sim.isa import MemSpace, Op, compute, fdiv, imul, load, prefetch, store
from repro.sim.occupancy import KernelResources, max_blocks_per_core
from repro.sim.warp import Warp


class TestIsaBuilders:
    def test_compute_kinds(self):
        assert compute().op == Op.COMPUTE
        assert imul().op == Op.IMUL
        assert fdiv().op == Op.FDIV
        assert not compute().is_memory

    def test_load_builder(self):
        inst = load(pc=0x10, token=3, lines=[0, 64], wait_tokens=[1])
        assert inst.op == Op.LOAD
        assert inst.is_memory
        assert inst.token == 3
        assert inst.lines == (0, 64)
        assert inst.base_addr == 0
        assert inst.wait_tokens == (1,)

    def test_store_and_prefetch_builders(self):
        st = store(pc=0x20, lines=[128])
        assert st.op == Op.STORE and st.token == -1
        pf = prefetch(pc=0x30, lines=[256, 320])
        assert pf.op == Op.PREFETCH
        assert pf.base_addr == 256

    def test_spaces(self):
        inst = load(0x10, 0, [0], space=MemSpace.SHARED)
        assert inst.space == MemSpace.SHARED


class TestWarp:
    def make_warp(self):
        stream = [
            load(0x10, token=0, lines=[0, 64]),
            compute(0x20),
            compute(0x30, wait_tokens=[0]),
        ]
        return Warp(5, 1, stream)

    def test_initial_state(self):
        warp = self.make_warp()
        assert not warp.finished
        assert not warp.blocked_on_tokens()
        assert not warp.parked
        assert warp.peek().op == Op.LOAD

    def test_dependency_blocks_until_lines_complete(self):
        warp = self.make_warp()
        warp.begin_load(0, num_lines=2)
        warp.advance()              # past the load
        warp.advance()              # past the independent compute
        assert warp.blocked_on_tokens()      # waits on token 0
        assert not warp.line_complete(0)     # one of two lines
        assert warp.line_complete(0)         # second line completes token
        assert not warp.blocked_on_tokens()

    def test_zero_line_load_completes_immediately(self):
        warp = self.make_warp()
        warp.begin_load(0, num_lines=0)
        assert 0 in warp.tokens_done

    def test_advancing_past_the_last_instruction_finishes(self):
        warp = self.make_warp()
        warp.begin_load(0, 0)
        for _ in range(3):
            assert not warp.finished
            warp.advance()
        assert warp.finished
        assert warp.peek() is None

    def test_outstanding_loads_counter(self):
        warp = self.make_warp()
        warp.begin_load(0, 2)
        assert warp._pending_lines == {0: 2}
        warp.line_complete(0)
        warp.line_complete(0)
        assert warp._pending_lines == {}


class TestOccupancy:
    def core(self):
        return CoreConfig()

    def test_block_slot_limit(self):
        res = KernelResources(threads_per_block=32, regs_per_thread=1, smem_per_block=0)
        assert max_blocks_per_core(res, self.core()) == 8

    def test_thread_limit(self):
        res = KernelResources(threads_per_block=512, regs_per_thread=1, smem_per_block=0)
        assert max_blocks_per_core(res, self.core()) == 1

    def test_register_limit(self):
        # 8192 regs / (32 regs * 256 threads) = 1 block.
        res = KernelResources(threads_per_block=256, regs_per_thread=32, smem_per_block=0)
        assert max_blocks_per_core(res, self.core()) == 1

    def test_shared_memory_limit(self):
        res = KernelResources(threads_per_block=32, regs_per_thread=1, smem_per_block=8192)
        assert max_blocks_per_core(res, self.core()) == 2

    def test_register_prefetching_can_halve_occupancy(self):
        """The paper's Section II-C1 argument against register prefetching."""
        base = KernelResources(256, 16, 0)
        inflated = KernelResources(256, 20, 0)
        assert max_blocks_per_core(base, self.core()) == 2
        assert max_blocks_per_core(inflated, self.core()) == 1

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            max_blocks_per_core(KernelResources(0, 1, 0), self.core())
