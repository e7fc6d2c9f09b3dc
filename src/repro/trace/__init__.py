"""Synthetic trace generation: the GPUOcelot substitute.

The paper drives its simulator with GPUOcelot traces of real CUDA
benchmarks.  Neither the GPU binaries nor Ocelot are available here, so this
subpackage models each evaluated benchmark as a parameterized synthetic
kernel (:mod:`repro.trace.kernels`) whose structural characteristics come
straight from the paper's Table III/IV — total warps, blocks, occupancy,
benchmark type (stride / massively-parallel / uncoalesced), delinquent load
counts — and whose memory patterns exercise exactly what the prefetchers
key on: per-warp strides, cross-warp strides at the same PC, and
(un)coalesced footprints.

:mod:`repro.trace.swp` implements the paper's software prefetching
mechanisms as trace transformations: register (binding) prefetching,
stride prefetching into the prefetch cache, and inter-thread prefetching
(IP); MT-SWP is stride + IP.

The package re-exports nothing; import names from their modules.
"""
