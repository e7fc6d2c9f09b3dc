"""Per-figure/table experiment definitions (paper Sections VI-IX).

Each ``figure*``/``table*`` function runs the simulations behind one exhibit
of the paper and returns a plain data structure (dicts/lists) that
:mod:`repro.harness.report` renders as text and the ``benchmarks/`` targets
regenerate.  All functions accept an :class:`ExperimentRunner`, which caches
runs, so executing several figures in one process shares the baselines.
Each simulated exhibit states its run grid once, as benchmarks x variants:
:meth:`ExperimentRunner.grid` sweeps it in one call and hands back the
results.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.mt_hwp import hardware_cost_bits, hardware_cost_bytes
from repro.harness.runner import ExperimentRunner, SpecError, geometric_mean
from repro.sim.config import GpuConfig, PrefetchCacheConfig, baseline_config
from repro.trace.benchmarks import (
    MEMORY_BENCHMARKS,
    PAPER_DEL_LOADS,
    PAPER_TABLE4,
    get_benchmark,
)

#: The SW schemes of Fig. 10 and the HW schemes of Figs. 13-15, in legend order.
FIG10_SCHEMES = ("register", "stride", "ip", "mt-swp")
FIG13_PREFETCHERS = ("stride_rpt", "stride_pc", "stream", "ghb")
FIG14_CONFIGS = ("ghb_wid", "mt-hwp:pws", "mt-hwp:pws+gs", "mt-hwp:pws+ip", "mt-hwp")
FIG15_SCHEMES = (
    ("ghb_wid", False),
    ("ghb_feedback", False),
    ("stride_pc_wid", False),
    ("stride_pc_throttle", False),
    ("mt-hwp", False),
    ("mt-hwp", True),
)

#: The schemes of the sensitivity studies (Figs. 16 and 18), by legend label.
SENSITIVITY_SCHEMES = {
    "MT-HWP": {"hardware": "mt-hwp"},
    "MT-HWP+T": {"hardware": "mt-hwp", "throttle": True},
    "MT-SWP": {"software": "mt-swp"},
    "MT-SWP+T": {"software": "mt-swp", "throttle": True},
}


class SubsetError(SpecError):
    """A subset names a benchmark the paper's table has no row for."""


def _benchmarks(subset: Optional[Sequence[str]]) -> List[str]:
    return list(subset) if subset else list(MEMORY_BENCHMARKS)


def _table_rows(
    subset: Optional[Sequence[str]], paper: Mapping[str, object], table: str
) -> List[str]:
    """A paper table's benchmarks: ``subset``, or every row of ``paper``.

    Checked before anything simulates: a benchmark without a paper row
    raises :class:`SubsetError`.
    """
    names = list(subset) if subset else list(paper)
    for name in names:
        if name not in paper:
            raise SubsetError(f"{table} has no row for benchmark {name!r}")
    return names


def _speedup_table(
    runner: ExperimentRunner,
    subset: Optional[Sequence[str]],
    schemes: Mapping[object, Mapping[str, object]],
) -> Dict:
    """Each scheme's speedup over no prefetching, per benchmark and geomean.

    ``schemes`` maps each column label to the :meth:`ExperimentRunner.run`
    keyword arguments of its scheme.
    """
    names = _benchmarks(subset)
    rows = []
    grid = runner.grid(names, [{}, *schemes.values()])
    for name, (base, *results) in zip(names, grid):
        row: Dict = {"benchmark": name}
        for label, result in zip(schemes, results):
            row[label] = result.speedup_over(base)
        rows.append(row)
    means = {label: geometric_mean(row[label] for row in rows) for label in schemes}
    return {"rows": rows, "geomean": means}


def _sensitivity(
    runner: ExperimentRunner,
    subset: Optional[Sequence[str]],
    configs: Mapping[int, GpuConfig],
) -> Dict[str, Dict[int, float]]:
    """Geomean speedup of each :data:`SENSITIVITY_SCHEMES` scheme per machine.

    ``configs`` maps each x-axis value to its machine; a speedup is over
    no prefetching on the same machine.
    """
    grid = runner.grid(_benchmarks(subset), [
        {**scheme, "config": cfg}
        for scheme in ({}, *SENSITIVITY_SCHEMES.values())
        for cfg in configs.values()
    ])
    # A row holds the baseline on every machine, then each scheme's runs.
    width = len(configs)
    return {
        label: {
            x: geometric_mean(
                row[k * width + j].speedup_over(row[j]) for row in grid
            )
            for j, x in enumerate(configs)
        }
        for k, label in enumerate(SENSITIVITY_SCHEMES, start=1)
    }


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------


def table3(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> List[Dict]:
    """Table III: benchmark characteristics (ours vs. paper)."""
    names = _table_rows(subset, PAPER_DEL_LOADS, "Table III")
    rows = []
    grid = runner.grid(names, [{}, {"perfect_memory": True}])
    for name, (base, pmem) in zip(names, grid):
        spec = get_benchmark(name, scale=runner.scale)
        paper_del = PAPER_DEL_LOADS[name]
        rows.append(
            {
                "benchmark": name,
                "suite": spec.suite,
                "type": spec.btype,
                "total_warps": spec.total_warps,
                "paper_total_warps": spec.paper_total_warps,
                "num_blocks": spec.num_blocks,
                "paper_num_blocks": spec.paper_num_blocks,
                "max_blocks_per_core": spec.paper_max_blocks,
                "base_cpi": base.cpi,
                "paper_base_cpi": spec.paper_base_cpi,
                "pmem_cpi": pmem.cpi,
                "paper_pmem_cpi": spec.paper_pmem_cpi,
                "del_stride": len(spec.stride_delinquent),
                "del_ip": len(spec.ip_delinquent),
                "paper_del_stride": paper_del[0],
                "paper_del_ip": paper_del[1],
            }
        )
    return rows


def table4(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> List[Dict]:
    """Table IV: non-memory-intensive benchmarks (base / PMEM / HWP CPI)."""
    names = _table_rows(subset, PAPER_TABLE4, "Table IV")
    rows = []
    grid = runner.grid(
        names, [{}, {"perfect_memory": True}, {"hardware": "mt-hwp"}]
    )
    for name, (base, pmem, hwp) in zip(names, grid):
        paper = PAPER_TABLE4[name]
        rows.append(
            {
                "benchmark": name,
                "base_cpi": base.cpi,
                "pmem_cpi": pmem.cpi,
                "hwp_cpi": hwp.cpi,
                "paper_base_cpi": paper[0],
                "paper_pmem_cpi": paper[1],
                "paper_hwp_cpi": paper[2],
            }
        )
    return rows


def table6() -> Dict:
    """Table VI: hardware cost of MT-HWP (pure arithmetic)."""
    costs = hardware_cost_bits()
    return {
        "tables": {
            name: {"entries": c.entries, "bits_per_entry": c.bits_per_entry,
                   "total_bits": c.total_bits}
            for name, c in costs.items()
        },
        "total_bytes": hardware_cost_bytes(),
        "paper_total_bytes": 557,
    }


# ----------------------------------------------------------------------
# Analytical figure
# ----------------------------------------------------------------------


def figure7(
    comp_inst: float = 40.0,
    mem_inst: float = 4.0,
    prefetch_hit_prob: float = 0.6,
    max_warps: int = 48,
) -> List[Dict]:
    """Fig. 7: MTAML vs. number of active warps (hypothetical computation).

    The default parameters are chosen so all three regions of Fig. 7 appear
    as the number of active warps grows: useful-or-harmful at very low warp
    counts, then useful, then no-effect once multithreading alone tolerates
    the (linearly contended) average memory latency.
    """
    from repro.core.mtaml import mtaml_curves

    points = mtaml_curves(
        comp_inst=comp_inst,
        mem_inst=mem_inst,
        warp_counts=list(range(1, max_warps + 1)),
        prefetch_hit_prob=prefetch_hit_prob,
        base_latency=120.0,
        latency_per_warp=4.0,
    )
    return [
        {
            "warps": p.warps,
            "mtaml": p.mtaml,
            "mtaml_pref": p.mtaml_pref,
            "avg_latency": p.avg_latency,
            "avg_latency_pref": p.avg_latency_pref,
            "effect": p.effect.value,
        }
        for p in points
    ]


# ----------------------------------------------------------------------
# Software prefetching (Figs. 8, 10, 11, 12)
# ----------------------------------------------------------------------


def figure8(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 8: normalized average memory latency + accuracy under MT-SWP."""
    names = _benchmarks(subset)
    rows = []
    grid = runner.grid(names, [{}, {"software": "mt-swp"}])
    for name, (base, pref) in zip(names, grid):
        base_lat = base.stats.avg_demand_latency
        rows.append(
            {
                "benchmark": name,
                "normalized_latency": (
                    pref.stats.avg_demand_latency / base_lat if base_lat else 0.0
                ),
                "prefetch_accuracy": pref.stats.prefetch_accuracy,
            }
        )
    return rows


def figure10(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 10: speedup of software prefetching schemes over no-prefetching."""
    return _speedup_table(
        runner, subset, {scheme: {"software": scheme} for scheme in FIG10_SCHEMES}
    )


def figure11(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 11: MT-SWP with adaptive throttling."""
    schemes = (
        ("register", False),
        ("stride", False),
        ("mt-swp", False),
        ("mt-swp", True),
    )
    return _speedup_table(runner, subset, {
        software + ("+T" if throttle else ""):
            {"software": software, "throttle": throttle}
        for software, throttle in schemes
    })


def figure12(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 12: early-prefetch ratio and normalized bandwidth, MT-SWP vs +T."""
    names = _benchmarks(subset)
    rows = []
    grid = runner.grid(names, [
        {}, {"software": "mt-swp"}, {"software": "mt-swp", "throttle": True},
    ])
    for name, (base, swp, swp_t) in zip(names, grid):
        base_bw = max(1, base.stats.bandwidth_lines)
        rows.append(
            {
                "benchmark": name,
                "early_ratio_swp": swp.stats.early_prefetch_ratio,
                "early_ratio_swp_t": swp_t.stats.early_prefetch_ratio,
                "bandwidth_swp": swp.stats.bandwidth_lines / base_bw,
                "bandwidth_swp_t": swp_t.stats.bandwidth_lines / base_bw,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Hardware prefetching (Figs. 13, 14, 15)
# ----------------------------------------------------------------------


def figure13(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 13: previously-proposed HW prefetchers, naive vs warp-id."""
    table = _speedup_table(runner, subset, {
        hw: {"hardware": hw}
        for hw in (p + suffix for p in FIG13_PREFETCHERS for suffix in ("", "_wid"))
    })

    def half(suffix: str):
        rows = [
            {"benchmark": row["benchmark"],
             **{p: row[p + suffix] for p in FIG13_PREFETCHERS}}
            for row in table["rows"]
        ]
        return rows, {p: table["geomean"][p + suffix] for p in FIG13_PREFETCHERS}

    naive_rows, naive_means = half("")
    wid_rows, wid_means = half("_wid")
    return {
        "naive": naive_rows,
        "warp_id": wid_rows,
        "geomean_naive": naive_means,
        "geomean_warp_id": wid_means,
    }


def figure14(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 14: MT-HWP table ablation (GHB vs PWS vs +GS vs +IP vs all)."""
    return _speedup_table(
        runner, subset, {scheme: {"hardware": scheme} for scheme in FIG14_CONFIGS}
    )


def figure15(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 15: throttling/feedback for hardware prefetchers."""
    return _speedup_table(runner, subset, {
        hardware + ("+T" if throttle else ""):
            {"hardware": hardware, "throttle": throttle}
        for hardware, throttle in FIG15_SCHEMES
    })


# ----------------------------------------------------------------------
# Sensitivity studies (Figs. 16, 17, 18)
# ----------------------------------------------------------------------


def figure16(
    runner: ExperimentRunner,
    subset: Optional[Sequence[str]] = None,
    sizes_kb: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> Dict:
    """Fig. 16: sensitivity to prefetch cache size (geomean speedup)."""
    return _sensitivity(runner, subset, {
        size: baseline_config(
            prefetch_cache=PrefetchCacheConfig(size_bytes=size * 1024)
        )
        for size in sizes_kb
    })


def figure17(
    runner: ExperimentRunner,
    subset: Optional[Sequence[str]] = None,
    distances: Sequence[int] = (1, 3, 5, 7, 9, 11, 13, 15),
) -> Dict:
    """Fig. 17: sensitivity of MT-HWP to prefetch distance."""
    return _speedup_table(runner, subset, {
        distance: {"hardware": "mt-hwp", "distance": distance}
        for distance in distances
    })


def figure18(
    runner: ExperimentRunner,
    subset: Optional[Sequence[str]] = None,
    core_counts: Sequence[int] = (8, 10, 12, 14, 16, 18, 20),
) -> Dict:
    """Fig. 18: sensitivity to the number of cores (DRAM bandwidth fixed)."""
    return _sensitivity(runner, subset, {
        cores: baseline_config(num_cores=cores) for cores in core_counts
    })
