"""Simulator configuration (paper Table II).

The baseline models an NVIDIA 8800GT-like part: 14 cores with 8-wide SIMD
execution at 900 MHz, a 16KB per-core prefetch cache, a 20-cycle fixed-latency
interconnect that accepts at most one request from every two cores per cycle,
and an 8-channel, 16-bank DRAM with 2KB pages and 57.6 GB/s of bandwidth.

All timing in this simulator is expressed in *core* cycles.  DRAM timing
parameters from the paper (tCL=11, tRCD=11, tRP=13 at a 1.2 GHz memory clock)
are converted to core cycles at construction time via the clock ratio.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.sim.coalescer import LINE_BYTES, WARP_SIZE


def _require(condition: bool, message: str) -> None:
    """Config-validation assertion with an actionable error message.

    All configuration dataclasses validate in ``__post_init__`` so a
    nonsensical machine description fails at construction time with a
    message naming the field and the accepted range — not thousands of
    cycles into a simulation (or worse, silently, as skewed results).
    ``dataclasses.replace`` re-runs ``__post_init__``, so derived configs
    are validated too.
    """
    if not condition:
        raise ValueError(f"invalid simulator configuration: {message}")


@dataclass(frozen=True)
class CoreConfig:
    """Per-core (SM) parameters.

    Warps are 32 threads wide, fixed by the trace generator and the
    coalescer (:data:`WARP_SIZE`); the 8-wide SIMD datapath shows up only
    as the 4-cycle issue occupancy of a 32-thread warp-instruction, and
    there is no separate decode stage.

    Attributes:
        issue_cycles_default: Cycles the issue port is occupied per
            warp-instruction for ordinary operations ("Others: 4-cycle/warp").
        issue_cycles_imul: Issue occupancy of an integer multiply warp-inst.
        issue_cycles_fdiv: Issue occupancy of an FP divide warp-inst.
        mrq_size: Entries in the per-core memory request queue.
        max_blocks_limit: Hardware cap on concurrently resident thread blocks.
        max_threads_per_core: Hardware cap on resident threads.
        registers_per_core: Register file capacity in 32-bit registers.
        shared_memory_bytes: Software-managed shared memory capacity.
    """

    issue_cycles_default: int = 4
    issue_cycles_imul: int = 16
    issue_cycles_fdiv: int = 32
    mrq_size: int = 512
    max_blocks_limit: int = 8
    max_threads_per_core: int = 768
    registers_per_core: int = 8192
    shared_memory_bytes: int = 16 * 1024

    def __post_init__(self) -> None:
        for name in ("issue_cycles_default", "issue_cycles_imul", "issue_cycles_fdiv"):
            _require(
                getattr(self, name) >= 1,
                f"{name} must be >= 1, got {getattr(self, name)}",
            )
        _require(self.mrq_size >= 1, f"mrq_size must be >= 1, got {self.mrq_size}")
        _require(
            self.max_blocks_limit >= 1,
            f"max_blocks_limit must be >= 1, got {self.max_blocks_limit}",
        )
        _require(
            self.max_threads_per_core >= WARP_SIZE,
            f"max_threads_per_core must fit at least one warp "
            f"({WARP_SIZE} threads), got {self.max_threads_per_core}",
        )
        _require(
            self.registers_per_core >= 1,
            f"registers_per_core must be >= 1, got {self.registers_per_core}",
        )
        _require(
            self.shared_memory_bytes >= 0,
            f"shared_memory_bytes must be >= 0, got {self.shared_memory_bytes}",
        )


@dataclass(frozen=True)
class PrefetchCacheConfig:
    """Per-core prefetch cache parameters (16KB, 8-way in the paper).

    Lines are :data:`LINE_BYTES` (64) bytes, the transaction size the
    trace generator coalesces to; no config field sets it.
    """

    size_bytes: int = 16 * 1024
    associativity: int = 8

    def __post_init__(self) -> None:
        _require(
            self.size_bytes >= 1, f"cache size_bytes must be >= 1, got {self.size_bytes}"
        )
        _require(
            self.associativity >= 1,
            f"cache associativity must be >= 1, got {self.associativity}",
        )

    @property
    def num_sets(self) -> int:
        """Number of cache sets implied by size/associativity/line size."""
        sets = self.size_bytes // (self.associativity * LINE_BYTES)
        return max(1, sets)


@dataclass(frozen=True)
class InterconnectConfig:
    """Core<->memory interconnect: fixed latency, injection limited.

    The paper configures a 20-cycle fixed latency and "at most 1 req. from
    every 2 cores per cycle", i.e. an injection bandwidth of num_cores/2
    requests per cycle shared round-robin among the cores.
    """

    latency: int = 20
    cores_per_injection_slot: int = 2

    def __post_init__(self) -> None:
        _require(
            self.latency >= 1,
            f"interconnect latency must be >= 1 cycle, got {self.latency}",
        )
        _require(
            self.cores_per_injection_slot >= 1,
            f"cores_per_injection_slot must be >= 1, "
            f"got {self.cores_per_injection_slot}",
        )


@dataclass(frozen=True)
class DramConfig:
    """Off-chip DRAM parameters (paper Table II), in core cycles.

    The paper gives tCL=11, tRCD=11, tRP=13 in 1.2 GHz memory-clock cycles
    with the core at 900 MHz; ``from_memory_clock`` performs the conversion.
    57.6 GB/s of aggregate bandwidth at 900 MHz works out to one 64B line per
    core cycle across all channels, i.e. an 8-core-cycle data burst per
    channel.  A burst moves one :data:`LINE_BYTES` line, the transaction
    size the trace generator coalesces to; no config field sets it.
    """

    num_channels: int = 8
    banks_per_channel: int = 16
    row_bytes: int = 2048
    t_cl: int = 9
    t_rcd: int = 9
    t_rp: int = 10
    burst_cycles: int = 8
    #: Controller + GDDR protocol pipeline latency (core cycles): pure
    #: latency on top of the bank/bus timing.  Calibrated so that the
    #: baseline CPIs of the Table III benchmarks land near the paper's
    #: values with their per-SM occupancies — at 8800GT-era TLP levels
    #: (8-16 warps per core for the evaluated kernels) this puts the loaded
    #: global-memory round trip above a thousand cycles, which is exactly
    #: the regime where multithreading alone cannot hide latency and
    #: prefetching matters (paper Section IV).
    pipeline_latency: int = 1200
    demand_priority: bool = True
    #: Use the original O(buffer) linear-scan FR-FCFS pick instead of the
    #: indexed scheduler.  The two are decision-identical (enforced by the
    #: diffcheck ``dram_indexed_vs_reference`` oracle and the property
    #: tests); the reference exists purely as a differential baseline and
    #: for debugging, so the default stays on the fast path.
    reference_scheduler: bool = False

    def __post_init__(self) -> None:
        _require(
            self.num_channels >= 1,
            f"DRAM num_channels must be >= 1, got {self.num_channels}",
        )
        _require(
            self.banks_per_channel >= 1,
            f"DRAM banks_per_channel must be >= 1, got {self.banks_per_channel}",
        )
        _require(
            self.row_bytes >= LINE_BYTES,
            f"DRAM row_bytes ({self.row_bytes}) must hold at least one "
            f"line ({LINE_BYTES} bytes)",
        )
        for name in ("t_cl", "t_rcd", "t_rp", "pipeline_latency"):
            _require(
                getattr(self, name) >= 0,
                f"DRAM {name} must be >= 0, got {getattr(self, name)}",
            )
        _require(
            self.burst_cycles >= 1,
            f"DRAM burst_cycles must be >= 1, got {self.burst_cycles}",
        )

    @staticmethod
    def from_memory_clock(
        t_cl_mem: int = 11,
        t_rcd_mem: int = 11,
        t_rp_mem: int = 13,
        memory_ghz: float = 1.2,
        core_ghz: float = 0.9,
        **overrides: object,
    ) -> "DramConfig":
        """Build a config by scaling memory-clock timings to core cycles."""
        ratio = core_ghz / memory_ghz
        scaled = {
            "t_cl": max(1, round(t_cl_mem * ratio)),
            "t_rcd": max(1, round(t_rcd_mem * ratio)),
            "t_rp": max(1, round(t_rp_mem * ratio)),
        }
        scaled.update(overrides)  # type: ignore[arg-type]
        return DramConfig(**scaled)  # type: ignore[arg-type]


# ThrottleConfig lives with the throttle engine (the paper's contribution)
# so that repro.core has no dependency on repro.sim; it is re-exported here
# because it is machine configuration from the simulator's point of view.
from repro.core.throttle import ThrottleConfig  # noqa: E402  (re-export)


@dataclass(frozen=True)
class GpuConfig:
    """Top-level GPU configuration tying all components together."""

    num_cores: int = 14
    core: CoreConfig = field(default_factory=CoreConfig)
    prefetch_cache: PrefetchCacheConfig = field(default_factory=PrefetchCacheConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    throttle: ThrottleConfig = field(default_factory=ThrottleConfig)
    perfect_memory: bool = False
    max_cycles: int = 20_000_000

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject nonsensical machine descriptions with actionable errors.

        Nested component configs validate themselves at construction;
        this method re-checks them (for callers that bypass
        ``__post_init__`` via ``object.__setattr__`` tricks) and adds the
        top-level constraints.
        """
        _require(self.num_cores >= 1, f"num_cores must be >= 1, got {self.num_cores}")
        _require(self.max_cycles >= 1, f"max_cycles must be >= 1, got {self.max_cycles}")
        for nested in (self.core, self.prefetch_cache, self.interconnect,
                       self.dram, self.throttle):
            post_init = getattr(nested, "__post_init__", None)
            if post_init is not None:
                post_init()

    def replace(self, **changes: object) -> "GpuConfig":
        """Return a copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


def baseline_config(**overrides: object) -> GpuConfig:
    """The paper's baseline machine (Table II) with optional field overrides.

    Keyword overrides apply to the top-level :class:`GpuConfig`; nested
    configs can be replaced wholesale, e.g.::

        cfg = baseline_config(num_cores=8,
                              prefetch_cache=PrefetchCacheConfig(size_bytes=1024))
    """
    cfg = GpuConfig(dram=DramConfig.from_memory_clock())
    if overrides:
        cfg = cfg.replace(**overrides)
    return cfg
