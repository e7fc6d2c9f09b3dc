"""GPGPU cycle simulator substrate.

This subpackage implements the trace-driven, cycle-level GPGPU simulator the
paper's evaluation rests on (Section VI, Table II): SIMT cores with in-order
warp scheduling, memory coalescing, per-core memory request queues with
intra-core merging, a fixed-latency injection-limited interconnect, a banked
DRAM model with inter-core merging and demand-over-prefetch priority, and the
per-core prefetch cache that backs both software and hardware MT-prefetching.

Import names from their modules (``repro.sim.gpu``, ``repro.sim.config``,
...): the package re-exports nothing, so importing one module compiles
only what that module needs; the simulator imports the invariant
checker only for a run that checks invariants.
"""
