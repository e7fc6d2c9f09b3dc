"""Software prefetching configurations (paper Sections II-C1, III-A, VII).

The paper evaluates four software schemes, all of which we implement as
trace-generation options:

* **Register prefetching** (Ryoo et al.) — *binding* prefetching: the loads
  of the next loop iteration are hoisted into registers one iteration early
  (software pipelining).  No prefetch cache is involved, but register usage
  grows, which can reduce occupancy and thereby thread-level parallelism.
* **Stride prefetching** — non-binding PREFETCH instructions into the
  per-core prefetch cache, targeting the same thread's access
  ``distance`` iterations ahead.  Only loop benchmarks have insertion
  opportunities (Fig. 3).
* **Inter-thread prefetching (IP)** — the paper's proposal: each thread
  prefetches the data of the corresponding thread ``32 x ip_warp_distance``
  thread-ids ahead, i.e. for a later warp (Fig. 4).  Works even for
  loop-free kernels, where intra-thread schemes have nothing to prefetch.
* **MT-SWP** = stride + IP.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SoftwarePrefetchConfig:
    """Which software prefetching transformations to apply to a trace."""

    register: bool = False
    stride: bool = False
    ip: bool = False
    distance: int = 1
    ip_warp_distance: int = 1
    #: Registers added per register-prefetched load (address + value).
    regs_per_register_prefetch: int = 2

    @property
    def any_enabled(self) -> bool:
        return self.register or self.stride or self.ip

    def describe(self) -> str:
        if not self.any_enabled:
            return "none"
        parts = []
        if self.register:
            parts.append("register")
        if self.stride:
            parts.append("stride")
        if self.ip:
            parts.append("ip")
        return "+".join(parts)


#: The named schemes of Fig. 10 / Fig. 11.
NO_SWP = SoftwarePrefetchConfig()
REGISTER_SWP = SoftwarePrefetchConfig(register=True)
STRIDE_SWP = SoftwarePrefetchConfig(stride=True)
IP_SWP = SoftwarePrefetchConfig(ip=True)
MT_SWP = SoftwarePrefetchConfig(stride=True, ip=True)

SCHEMES = {
    "none": NO_SWP,
    "register": REGISTER_SWP,
    "stride": STRIDE_SWP,
    "ip": IP_SWP,
    "mt-swp": MT_SWP,
}
