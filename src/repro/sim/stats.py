"""Simulation statistics.

Collects the counters the paper's evaluation reports: CPI (Tables III/IV),
speedup (Figs. 10-18), average demand memory latency and prefetch accuracy
(Fig. 8), early-prefetch ratio and normalized bandwidth (Fig. 12), plus
coverage/lateness used in the text's per-benchmark explanations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class SimStats:
    """End-of-run statistics for one simulation."""

    cycles: int = 0
    num_cores: int = 0
    instructions: int = 0
    prefetch_instructions: int = 0
    demand_loads: int = 0
    demand_lines_to_memory: int = 0
    demand_latency_sum: int = 0
    demand_latency_count: int = 0
    prefetch_requests_issued: int = 0
    prefetch_requests_generated: int = 0
    prefetch_requests_throttled: int = 0
    prefetch_requests_redundant: int = 0
    useful_prefetches: int = 0
    late_prefetches: int = 0
    early_evictions: int = 0
    prefetch_cache_hits: int = 0
    prefetch_cache_misses: int = 0
    intra_core_merges: int = 0
    inter_core_merges: int = 0
    total_mrq_requests: int = 0
    dram_lines_transferred: int = 0
    dram_row_hits: int = 0
    dram_row_misses: int = 0
    stall_cycles: int = 0
    #: True when the run exhausted ``max_cycles`` before every warp
    #: retired: the counters cover only a prefix of the workload and must
    #: never be compared against completed runs.  The harness surfaces
    #: such runs as :class:`repro.sim.errors.CycleLimitExceeded` failures.
    truncated: bool = False
    #: Name of the simulated benchmark (set by the harness; "" for raw
    #: simulator runs).  A real typed field so reports and the result
    #: cache can carry it without smuggling strings through ``extra``.
    benchmark: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        """Cycles per warp-instruction, normalized per core.

        With the Table II issue model (4-cycle/warp SIMD occupancy) a fully
        utilized core converges to CPI 4, matching the paper's
        perfect-memory CPIs of ~4.2.
        """
        if self.instructions == 0:
            return 0.0
        return self.cycles * self.num_cores / self.instructions

    @property
    def avg_demand_latency(self) -> float:
        """Mean cycles from MRQ entry to data return, demand lines only.

        Prefetch-cache hits never enter the memory system and are excluded,
        matching Fig. 7's "measured average memory latency ignoring
        successfully prefetched memory operations".
        """
        if self.demand_latency_count == 0:
            return 0.0
        return self.demand_latency_sum / self.demand_latency_count

    @property
    def prefetch_accuracy(self) -> float:
        """Useful prefetches / prefetches sent to memory."""
        if self.prefetch_requests_issued == 0:
            return 0.0
        return min(1.0, self.useful_prefetches / self.prefetch_requests_issued)

    @property
    def prefetch_coverage(self) -> float:
        """Fraction of demand line accesses served (or merged) by prefetching."""
        covered = self.useful_prefetches
        total = self.demand_lines_to_memory + self.prefetch_cache_hits
        if total == 0:
            return 0.0
        return min(1.0, covered / total)

    @property
    def late_prefetch_fraction(self) -> float:
        """Late prefetches / prefetches sent to memory."""
        if self.prefetch_requests_issued == 0:
            return 0.0
        return self.late_prefetches / self.prefetch_requests_issued

    @property
    def early_prefetch_ratio(self) -> float:
        """Early-evicted prefetches / prefetches sent to memory (Fig. 12a)."""
        if self.prefetch_requests_issued == 0:
            return 0.0
        return self.early_evictions / self.prefetch_requests_issued

    @property
    def early_eviction_rate(self) -> float:
        """The throttle engine's Eq. 5 metric over the whole run."""
        if self.useful_prefetches == 0:
            return float(self.early_evictions)
        return self.early_evictions / self.useful_prefetches

    @property
    def merge_ratio(self) -> float:
        """The throttle engine's Eq. 6 metric over the whole run."""
        if self.total_mrq_requests == 0:
            return 0.0
        return self.intra_core_merges / self.total_mrq_requests

    @property
    def bandwidth_lines(self) -> int:
        """Total 64B lines transferred from DRAM (Fig. 12b numerator)."""
        return self.dram_lines_transferred

    @property
    def row_hit_rate(self) -> float:
        total = self.dram_row_hits + self.dram_row_misses
        if total == 0:
            return 0.0
        return self.dram_row_hits / total

    def to_dict(self) -> Dict[str, object]:
        """Lossless raw-field serialization (for the on-disk result cache).

        Only dataclass fields are included — derived metrics are
        properties and reconstruct for free.  The inverse is
        :meth:`from_dict`.
        """
        out: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"
        }
        out["extra"] = dict(self.extra)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimStats":
        """Rebuild stats from :meth:`to_dict` output.

        Unknown keys are ignored so newer writers stay readable by older
        readers within one cache schema version.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        extra = kwargs.get("extra")
        if extra is not None:
            kwargs["extra"] = dict(extra)
        return cls(**kwargs)

    def as_dict(self) -> Dict[str, float]:
        """Flatten counters and derived metrics for reporting."""
        out: Dict[str, float] = {
            "benchmark": self.benchmark,
            "truncated": self.truncated,
        }
        out.update(
            (name, getattr(self, name))
            for name in (
                "cycles",
                "instructions",
                "prefetch_instructions",
                "demand_loads",
                "prefetch_requests_issued",
                "useful_prefetches",
                "late_prefetches",
                "early_evictions",
                "intra_core_merges",
                "inter_core_merges",
                "dram_lines_transferred",
                "cpi",
                "avg_demand_latency",
                "prefetch_accuracy",
                "prefetch_coverage",
                "late_prefetch_fraction",
                "early_prefetch_ratio",
                "merge_ratio",
                "row_hit_rate",
            )
        )
        out.update(self.extra)
        return out
