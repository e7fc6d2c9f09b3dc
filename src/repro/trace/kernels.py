"""Kernel description DSL for synthetic GPGPU workloads.

A :class:`KernelSpec` describes one CUDA-like kernel the way the paper's
benchmark table characterizes them: grid shape (blocks x threads), per-thread
resource usage (for the occupancy calculator), an optional per-thread loop,
and a body of compute and memory operations.  Memory operations are
parameterized by

* ``lane_stride`` — bytes between consecutive threads' elements.  4 bytes is
  a fully coalesced float access (2 transactions per warp); 64+ bytes is
  fully uncoalesced (one transaction per lane) — the paper's "uncoal-type";
* ``iter_stride`` — bytes a thread advances per loop iteration, producing the
  per-warp per-PC stride that stride prefetchers (and the PWS table) train
  on.  Across warps at the same PC and iteration, addresses differ by
  ``32 * lane_stride`` — the cross-warp stride the IP mechanisms exploit.

Dependencies: a :class:`Compute` op can name the loads it consumes; the
trace generator turns these into scoreboard token waits, so memory latency
is exposed exactly where the kernel's dataflow says it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.sim.coalescer import LINE_BYTES
from repro.sim.occupancy import KernelResources


@dataclass(frozen=True)
class Load:
    """A global (or shared/const) load executed by every thread.

    Attributes:
        name: Identifier; referenced by ``Compute.consumes`` and by the
            delinquent-load lists.
        array: Name of the array accessed (bases assigned by the generator).
        lane_stride: Bytes between consecutive threads' elements.
        iter_stride: Bytes each thread advances per loop iteration.
        space: "global", "shared" or "const".
    """

    name: str
    array: str
    lane_stride: int = 4
    iter_stride: int = 0
    space: str = "global"
    #: Lanes that execute the access (branch divergence masks the rest);
    #: 0 means all 32.  The paper's uncoal-type benchmarks (bfs, cfd,
    #: linear) are divergent graph/mesh codes where only a subset of each
    #: warp is active, producing one transaction per *active* lane.
    active_lanes: int = 0


@dataclass(frozen=True)
class Store:
    """A store executed by every thread (fire-and-forget)."""

    array: str
    lane_stride: int = 4
    iter_stride: int = 0
    space: str = "global"


@dataclass(frozen=True)
class Compute:
    """``count`` back-to-back compute warp-instructions.

    ``consumes`` lists the loads (by name) whose values the *first* of these
    instructions reads; the trace generator attaches the corresponding token
    waits.  ``op`` selects the latency class: "compute" (4 cycles/warp),
    "imul" (16) or "fdiv" (32).
    """

    count: int = 1
    consumes: Tuple[str, ...] = ()
    op: str = "compute"


BodyOp = Union[Load, Store, Compute]


@dataclass(frozen=True)
class KernelSpec:
    """A synthetic kernel plus the paper-reported characteristics.

    ``num_blocks``/``threads_per_block`` describe the *scaled* grid actually
    simulated; ``paper_total_warps``/``paper_num_blocks`` keep the original
    Table III values for reporting.  ``loop_iters == 0`` means a straight-
    line kernel (the body executes once) — the paper's mp-type benchmarks,
    whose threads "typically do not contain any loops".
    """

    name: str
    suite: str
    btype: str  # "stride" | "mp" | "uncoal" | "compute"
    threads_per_block: int
    num_blocks: int
    body: Tuple[BodyOp, ...]
    loop_iters: int = 0
    prologue_compute: int = 2
    regs_per_thread: int = 16
    smem_per_block: int = 0
    stride_delinquent: Tuple[str, ...] = ()
    ip_delinquent: Tuple[str, ...] = ()
    paper_total_warps: int = 0
    paper_num_blocks: int = 0
    paper_base_cpi: float = 0.0
    paper_pmem_cpi: float = 0.0
    paper_max_blocks: int = 0
    array_padding: int = 16 * 1024

    def __post_init__(self) -> None:
        if self.threads_per_block % 32 != 0:
            raise ValueError(f"{self.name}: threads_per_block must be a multiple of 32")
        load_names = {op.name for op in self.body if isinstance(op, Load)}
        for dl in self.stride_delinquent + self.ip_delinquent:
            if dl not in load_names:
                raise ValueError(f"{self.name}: unknown delinquent load {dl!r}")
        for op in self.body:
            if isinstance(op, Compute):
                for name in op.consumes:
                    if name not in load_names:
                        raise ValueError(f"{self.name}: unknown consumed load {name!r}")

    @property
    def warps_per_block(self) -> int:
        return self.threads_per_block // 32

    @property
    def total_warps(self) -> int:
        return self.num_blocks * self.warps_per_block

    @property
    def total_threads(self) -> int:
        return self.num_blocks * self.threads_per_block

    @property
    def effective_iters(self) -> int:
        """Body repetitions per thread (>= 1)."""
        return max(1, self.loop_iters)

    @property
    def resources(self) -> KernelResources:
        return KernelResources(
            threads_per_block=self.threads_per_block,
            regs_per_thread=self.regs_per_thread,
            smem_per_block=self.smem_per_block,
        )

    @property
    def loads(self) -> Tuple[Load, ...]:
        return tuple(op for op in self.body if isinstance(op, Load))

    def instruction_mix(self) -> Dict[str, int]:
        """Static per-thread instruction counts (for MTAML inputs)."""
        comp = self.prologue_compute
        mem = 0
        iters = self.effective_iters
        for op in self.body:
            if isinstance(op, Compute):
                comp += op.count * iters
            else:
                mem += iters
        return {"comp_inst": comp, "mem_inst": mem}

    def array_layout(self) -> Dict[str, int]:
        """Deterministic base address per array, padded and row-aligned.

        Sizes are derived from the maximum byte any thread touches over all
        iterations so arrays never overlap.
        """
        bases: Dict[str, int] = {}
        cursor = self.array_padding
        iters = self.effective_iters
        max_tid = max(1, self.total_threads)
        arrays = []
        for op in self.body:
            if isinstance(op, (Load, Store)) and op.space == "global":
                if op.array not in {a for a, _ in arrays}:
                    extent = (
                        (max_tid - 1) * abs(op.lane_stride)
                        + (iters - 1) * abs(op.iter_stride)
                        + LINE_BYTES
                    )
                    arrays.append((op.array, extent))
        for array_name, extent in arrays:
            bases[array_name] = cursor
            padded = extent + self.array_padding
            cursor += ((padded + self.array_padding - 1) // self.array_padding) * (
                self.array_padding
            )
        return bases
