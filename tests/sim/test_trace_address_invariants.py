"""Cross-cutting invariants between trace generation and the benchmarks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.coalescer import WARP_SIZE
from repro.sim.isa import MemSpace, Op
from repro.trace.benchmarks import (
    COMPUTE_BENCHMARKS,
    MEMORY_BENCHMARKS,
    get_benchmark,
)
from repro.trace.swp import MT_SWP, SCHEMES
from repro.trace.tracegen import generate_workload, warp_lines


@pytest.fixture(scope="module", params=["monte", "backprop", "bfs", "linear"])
def workload(request):
    return generate_workload(get_benchmark(request.param, scale=0.25))


def all_instructions(wl):
    for _, warps in wl.blocks:
        for _, stream in warps:
            yield from stream


def test_all_lines_are_aligned(workload):
    for inst in all_instructions(workload):
        for line in inst.lines:
            assert line % 64 == 0
            assert line >= 0


def test_loads_have_unique_tokens_per_warp(workload):
    for _, warps in workload.blocks:
        for _, stream in warps:
            tokens = [i.token for i in stream if i.op == Op.LOAD]
            assert len(tokens) == len(set(tokens))


def test_wait_tokens_reference_earlier_loads(workload):
    for _, warps in workload.blocks:
        for _, stream in warps:
            seen = set()
            for inst in stream:
                for token in inst.wait_tokens:
                    assert token in seen, "wait on a not-yet-issued load"
                if inst.op == Op.LOAD:
                    seen.add(inst.token)


def test_global_memory_instructions_have_lines(workload):
    for inst in all_instructions(workload):
        if inst.is_memory and inst.space == MemSpace.GLOBAL:
            assert inst.lines


def test_warp_ids_globally_unique_and_dense(workload):
    ids = [wid for _, warps in workload.blocks for wid, _ in warps]
    assert len(ids) == len(set(ids))
    assert sorted(ids) == list(range(len(ids)))


@pytest.mark.parametrize("name", MEMORY_BENCHMARKS)
def test_swp_prefetch_addresses_match_some_demand(name):
    """Every IP/stride software prefetch targets a line some warp demands
    (out-of-bounds tail prefetches past the grid are the only exception)."""
    wl = generate_workload(get_benchmark(name, scale=0.2), swp=MT_SWP)
    demand_lines = set()
    prefetch_lines = set()
    for inst in all_instructions(wl):
        if inst.op == Op.LOAD and inst.space == MemSpace.GLOBAL:
            demand_lines.update(inst.lines)
        elif inst.op == Op.PREFETCH:
            prefetch_lines.update(inst.lines)
    if not prefetch_lines:
        pytest.skip(f"{name} has no delinquent loads for MT-SWP")
    covered = len(prefetch_lines & demand_lines) / len(prefetch_lines)
    assert covered > 0.8, f"{name}: only {covered:.0%} of prefetches useful"


@given(base=st.integers(0, 1 << 40), lane_stride=st.integers(-(1 << 20), 1 << 20))
def test_a_warp_access_touches_at_most_a_line_per_thread(base, lane_stride):
    """The premise of ``CoreConfig``'s MRQ floor: one warp access needs at
    most WARP_SIZE MRQ entries, whatever its base and lane stride."""
    assert 1 <= len(warp_lines(base, lane_stride)) <= WARP_SIZE


@pytest.mark.parametrize("software", sorted(SCHEMES))
def test_no_benchmark_access_is_wider_than_a_warp(software):
    """Every load and store of every benchmark, under every software
    scheme, touches at most WARP_SIZE lines, so it fits an MRQ of the
    smallest size the config admits."""
    for name in MEMORY_BENCHMARKS + COMPUTE_BENCHMARKS:
        wl = generate_workload(get_benchmark(name, scale=0.1),
                               swp=SCHEMES[software])
        widest = max(
            (len(inst.lines) for inst in all_instructions(wl)
             if inst.op in (Op.LOAD, Op.STORE)),
            default=0,
        )
        assert widest <= WARP_SIZE, f"{name}: a {widest}-line access"
