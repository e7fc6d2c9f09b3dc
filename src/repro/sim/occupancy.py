"""CUDA occupancy calculator.

Paper Section VI-B: "We calculate the maximum number of thread blocks
allowed per SM ... using the CUDA occupancy calculator, which considers the
shared memory usage, register usage, and the number of threads per thread
block."  Register-based software prefetching increases register usage and can
therefore reduce occupancy — the core reason it can lose to prefetch-cache
based schemes (Section II-C1), which this module lets the harness model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import CoreConfig


@dataclass(frozen=True)
class KernelResources:
    """Static per-kernel resource usage, the occupancy calculator's inputs."""

    threads_per_block: int
    regs_per_thread: int
    smem_per_block: int


def max_blocks_per_core(resources: KernelResources, core: CoreConfig) -> int:
    """Maximum concurrently-resident thread blocks per core.

    The minimum of four hardware limits: the block-slot cap, the thread cap,
    the register file, and shared memory.  Returns 0 when a single block
    does not fit (such kernels cannot launch).
    """
    if resources.threads_per_block <= 0:
        raise ValueError("threads_per_block must be positive")
    limits = [core.max_blocks_limit]
    limits.append(core.max_threads_per_core // resources.threads_per_block)
    regs_per_block = resources.regs_per_thread * resources.threads_per_block
    if regs_per_block > 0:
        limits.append(core.registers_per_core // regs_per_block)
    if resources.smem_per_block > 0:
        limits.append(core.shared_memory_bytes // resources.smem_per_block)
    return max(0, min(limits))
