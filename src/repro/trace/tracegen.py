"""Trace generation: expand a :class:`KernelSpec` into per-warp instruction
streams, applying software prefetching transformations.

PCs are assigned statically (one per body op, stable across warps and
iterations) so PC-indexed prefetchers see the loop structure exactly as they
would in a real trace.  Addresses follow the kernel's lane/iteration strides;
coalescing to 64B transactions happens here, with fast paths for the two
common cases (dense coalesced footprints and fully uncoalesced per-lane
strides) and a general fallback through :func:`repro.sim.coalescer.coalesce`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.coalescer import WARP_SIZE, coalesce, warp_addresses
from repro.sim.isa import MemSpace, Op, WarpInstruction
from repro.sim.occupancy import KernelResources
from repro.trace.kernels import Compute, KernelSpec, Load, Store
from repro.trace.swp import NO_SWP, SoftwarePrefetchConfig

LINE_BYTES = 64

#: PC layout: prologue computes, then 16 bytes per static body op, with
#: software prefetches placed in a disjoint high range.
_PC_PROLOGUE = 0x100
_PC_BODY = 0x1000
_PC_SWP = 0x8000

_SPACE = {
    "global": MemSpace.GLOBAL,
    "shared": MemSpace.SHARED,
    "const": MemSpace.CONST,
}

_COMPUTE_OPS = {"compute": Op.COMPUTE, "imul": Op.IMUL, "fdiv": Op.FDIV}

#: Wait-free compute records shared by the streams of one workload, keyed
#: by ``(op, pc)``.  Records are never mutated after construction and
#: streams are never stored in snapshots, so every wait-free compute
#: instruction at one PC can be the same object.
ComputeRecords = Dict[Tuple[Op, int], WarpInstruction]


@dataclass
class Workload:
    """A generated kernel trace ready for :meth:`GpuSimulator.load_workload`.

    Attributes:
        spec: The kernel this trace came from.
        blocks: ``(block_id, [(warp_id, stream), ...])`` tuples.
        max_blocks_per_core: Occupancy limit (from the occupancy calculator
            or the paper's Table III value).
        resources: Post-transformation resource usage (register prefetching
            may have raised register counts).
        comp_inst: Static non-memory warp-instruction count per warp
            (MTAML's #comp_inst).
        mem_inst: Static demand-memory warp-instruction count per warp
            (MTAML's #mem_inst).
        swp: The software prefetch configuration baked into the trace.
    """

    spec: KernelSpec
    blocks: List[Tuple[int, List[Tuple[int, List[WarpInstruction]]]]]
    max_blocks_per_core: int
    resources: KernelResources
    comp_inst: int
    mem_inst: int
    swp: SoftwarePrefetchConfig = field(default_factory=SoftwarePrefetchConfig)

    @property
    def total_warps(self) -> int:
        return sum(len(warps) for _, warps in self.blocks)

    def total_instructions(self) -> int:
        return sum(
            len(stream) for _, warps in self.blocks for _, stream in warps
        )


def warp_lines(base: int, lane_stride: int, warp_size: int = WARP_SIZE) -> Tuple[int, ...]:
    """Coalesced line set of a warp access starting at ``base``.

    Fast paths cover dense footprints (stride <= line size: every line in
    the span is touched) and fully uncoalesced strides (every lane on its
    own line); anything else falls back to the general coalescer.
    """
    if lane_stride == 0:
        return ((base // LINE_BYTES) * LINE_BYTES,)
    if 0 < lane_stride <= LINE_BYTES:
        first = (base // LINE_BYTES) * LINE_BYTES
        last_addr = base + (warp_size - 1) * lane_stride
        last = (last_addr // LINE_BYTES) * LINE_BYTES
        return tuple(range(first, last + LINE_BYTES, LINE_BYTES))
    if lane_stride >= LINE_BYTES and lane_stride % LINE_BYTES == 0:
        first = (base // LINE_BYTES) * LINE_BYTES
        return tuple(first + lane * lane_stride for lane in range(warp_size))
    return coalesce(warp_addresses(base, lane_stride, warp_size))


class _WarpBuilder:
    """Builds one warp's instruction stream."""

    def __init__(
        self,
        spec: KernelSpec,
        warp_id: int,
        bases: Dict[str, int],
        swp: SoftwarePrefetchConfig,
        total_warps: int,
        compute_records: ComputeRecords,
    ) -> None:
        self.spec = spec
        self.warp_id = warp_id
        self.tid0 = warp_id * WARP_SIZE
        self.bases = bases
        self.swp = swp
        self.total_warps = total_warps
        self.compute_records = compute_records
        self.stream: List[WarpInstruction] = []
        self._next_token = 0
        # load name -> token of its most recent emission.
        self._tokens: Dict[str, int] = {}

    # -- address helpers -------------------------------------------------

    def _base_addr(self, op, iteration: int, warp_offset: int = 0) -> int:
        base = self.bases.get(op.array, 0)
        tid0 = self.tid0 + warp_offset * WARP_SIZE
        return base + tid0 * op.lane_stride + iteration * op.iter_stride

    def _lines(self, op, iteration: int, warp_offset: int = 0) -> Tuple[int, ...]:
        active = getattr(op, "active_lanes", 0) or WARP_SIZE
        return warp_lines(
            self._base_addr(op, iteration, warp_offset), op.lane_stride, active
        )

    # -- emission --------------------------------------------------------

    def emit_compute(self, pc: int, count: int, op_kind: str, waits: Sequence[int]) -> None:
        """Emit ``count`` compute records at ``pc``; the first waits on
        ``waits``, and every wait-free one is the shared ``(op, pc)``
        record."""
        op = _COMPUTE_OPS[op_kind]
        shared = self.compute_records.get((op, pc))
        if shared is None:
            shared = self.compute_records[(op, pc)] = WarpInstruction(op, pc=pc)
        if waits:
            self.stream.append(WarpInstruction(op, pc=pc, wait_tokens=tuple(waits)))
        else:
            self.stream.append(shared)
        self.stream.extend([shared] * (count - 1))

    def emit_load(self, op: Load, pc: int, iteration: int) -> None:
        token = self._next_token
        self._next_token += 1
        self._tokens[op.name] = token
        self.stream.append(
            WarpInstruction(
                Op.LOAD,
                pc=pc,
                token=token,
                lines=self._lines(op, iteration),
                base_addr=self._base_addr(op, iteration),
                space=_SPACE[op.space],
            )
        )

    def emit_store(self, op: Store, pc: int, iteration: int, waits: Sequence[int]) -> None:
        self.stream.append(
            WarpInstruction(
                Op.STORE,
                pc=pc,
                wait_tokens=tuple(waits),
                lines=self._lines(op, iteration),
                base_addr=self._base_addr(op, iteration),
                space=_SPACE[op.space],
            )
        )

    def emit_prefetch(self, op: Load, pc: int, iteration: int, warp_offset: int = 0) -> None:
        """Emit a non-binding software prefetch of a load's future access."""
        self.stream.append(
            WarpInstruction(
                Op.PREFETCH,
                pc=pc,
                lines=self._lines(op, iteration, warp_offset),
                base_addr=self._base_addr(op, iteration, warp_offset),
            )
        )

    def wait_tokens_for(self, names: Sequence[str]) -> List[int]:
        return [self._tokens[name] for name in names if name in self._tokens]


def _static_pcs(spec: KernelSpec) -> Dict[int, int]:
    """PC per body-op index."""
    return {index: _PC_BODY + index * 16 for index in range(len(spec.body))}


def build_warp_stream(
    spec: KernelSpec,
    warp_id: int,
    bases: Dict[str, int],
    swp: SoftwarePrefetchConfig = NO_SWP,
    compute_records: Optional[ComputeRecords] = None,
) -> List[WarpInstruction]:
    """Generate one warp's full instruction stream.

    ``compute_records`` lets the warps of one workload share their
    wait-free compute records; by default the stream shares them only
    within itself.
    """
    builder = _WarpBuilder(
        spec, warp_id, bases, swp, spec.total_warps,
        {} if compute_records is None else compute_records,
    )
    pcs = _static_pcs(spec)
    iters = spec.effective_iters
    register_loads = (
        set(spec.stride_delinquent)
        if swp.register and spec.loop_iters >= 2
        else set()
    )
    stride_loads = (
        set(spec.stride_delinquent) if swp.stride and spec.loop_iters >= 2 else set()
    )
    ip_loads = set(spec.ip_delinquent) if swp.ip else set()

    # Inter-thread prefetches target the accesses of the warp
    # ``ip_warp_distance`` ahead (the tid + 32 idiom of Fig. 4).  The last
    # warps of the grid prefetch out of bounds of the useful range — the
    # analogue of the CPU out-of-array-bounds problem the paper accepts.
    #
    # Placement: the prefetch for the *first* IP load sits in the kernel
    # prologue; the prefetch for each subsequent IP load is software-
    # pipelined to sit right after the *previous* IP load.  For kernels
    # whose loads form a serial chain this gives every prefetch roughly one
    # memory round trip of lead while bounding the number of prefetched-
    # but-not-yet-used lines resident in the prefetch cache to about one
    # chain link's worth — issuing the whole chain's prefetches up front
    # would flood the 16KB prefetch cache and turn them into early
    # evictions.
    ip_chain = [
        index
        for index, op in enumerate(spec.body)
        if isinstance(op, Load) and op.name in ip_loads
    ]
    ip_next_after: Dict[int, int] = {
        ip_chain[k]: ip_chain[k + 1] for k in range(len(ip_chain) - 1)
    }
    if ip_chain:
        first = spec.body[ip_chain[0]]
        builder.emit_prefetch(
            first,
            _PC_SWP + ip_chain[0] * 16,
            iteration=0,
            warp_offset=swp.ip_warp_distance,
        )

    # Prologue: thread-id / address computation.
    for i in range(spec.prologue_compute):
        builder.emit_compute(_PC_PROLOGUE + i * 16, 1, "compute", ())

    # Register prefetching preloads iteration 0 of the hoisted loads.
    if register_loads:
        for index, op in enumerate(spec.body):
            if isinstance(op, Load) and op.name in register_loads:
                builder.emit_load(op, pcs[index], iteration=0)

    for iteration in range(iters):
        for index, op in enumerate(spec.body):
            pc = pcs[index]
            if isinstance(op, Load):
                if op.name in register_loads:
                    # The value for this iteration was loaded one iteration
                    # early; load the *next* iteration's value now.
                    if iteration + 1 < iters:
                        builder.emit_load(op, pc, iteration + 1)
                    continue
                if op.name in stride_loads and iteration + swp.distance < iters:
                    builder.emit_prefetch(
                        op, _PC_SWP + index * 16, iteration + swp.distance
                    )
                builder.emit_load(op, pc, iteration)
                if iteration == 0 and index in ip_next_after:
                    nxt = ip_next_after[index]
                    builder.emit_prefetch(
                        spec.body[nxt],
                        _PC_SWP + nxt * 16,
                        iteration=0,
                        warp_offset=swp.ip_warp_distance,
                    )
            elif isinstance(op, Store):
                builder.emit_store(op, pc, iteration, ())
            else:
                waits = builder.wait_tokens_for(op.consumes)
                builder.emit_compute(pc, op.count, op.op, waits)
    return builder.stream


def generate_workload(
    spec: KernelSpec,
    swp: SoftwarePrefetchConfig = NO_SWP,
    max_blocks_per_core: Optional[int] = None,
) -> Workload:
    """Expand a kernel into a schedulable workload.

    ``max_blocks_per_core`` defaults to the paper's Table III value when the
    spec carries one, else to the occupancy calculator's result under the
    baseline core configuration.  Register prefetching raises the register
    count, which can lower the occupancy limit — exactly the TLP loss the
    paper attributes to register prefetching.
    """
    regs = spec.regs_per_thread
    if swp.register and spec.loop_iters >= 2 and spec.stride_delinquent:
        regs += swp.regs_per_register_prefetch * len(spec.stride_delinquent)
    resources = KernelResources(
        threads_per_block=spec.threads_per_block,
        regs_per_thread=regs,
        smem_per_block=spec.smem_per_block,
    )
    if max_blocks_per_core is None:
        if spec.paper_max_blocks > 0:
            max_blocks_per_core = spec.paper_max_blocks
            if regs > spec.regs_per_thread:
                # Scale the paper's occupancy by the register growth.
                from repro.sim.config import CoreConfig
                from repro.sim.occupancy import max_blocks_per_core as occ

                base_occ = occ(spec.resources, CoreConfig())
                new_occ = occ(resources, CoreConfig())
                if base_occ > 0:
                    max_blocks_per_core = max(
                        1, spec.paper_max_blocks * new_occ // max(1, base_occ)
                    )
        else:
            from repro.sim.config import CoreConfig
            from repro.sim.occupancy import max_blocks_per_core as occ

            max_blocks_per_core = max(1, occ(resources, CoreConfig()))

    bases = spec.array_layout()
    compute_records: ComputeRecords = {}
    blocks = []
    wpb = spec.warps_per_block
    for block_id in range(spec.num_blocks):
        warps = []
        for w in range(wpb):
            warp_id = block_id * wpb + w
            warps.append((warp_id, build_warp_stream(
                spec, warp_id, bases, swp, compute_records
            )))
        blocks.append((block_id, warps))
    mix = spec.instruction_mix()
    return Workload(
        spec=spec,
        blocks=blocks,
        max_blocks_per_core=max_blocks_per_core,
        resources=resources,
        comp_inst=mix["comp_inst"],
        mem_inst=mix["mem_inst"],
        swp=swp,
    )
