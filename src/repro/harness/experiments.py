"""Per-figure/table experiment definitions (paper Sections VI-IX).

Each ``figure*``/``table*`` function runs the simulations behind one exhibit
of the paper and returns a plain data structure (dicts/lists) that
:mod:`repro.harness.report` renders as text and the ``benchmarks/`` targets
regenerate.  All functions accept an :class:`ExperimentRunner`, which caches
runs, so executing several figures in one process shares the baselines.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.core.mt_hwp import hardware_cost_bits, hardware_cost_bytes
from repro.core.throttle import ThrottleConfig
from repro.harness.runner import ExperimentRunner, geometric_mean
from repro.sim.config import PrefetchCacheConfig, baseline_config
from repro.trace.benchmarks import (
    COMPUTE_BENCHMARKS,
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


def _benchmarks(subset: Optional[Sequence[str]]) -> List[str]:
    return list(subset) if subset else list(MEMORY_BENCHMARKS)


def _warm(runner: ExperimentRunner, requests: List[Dict]) -> None:
    """Fan a figure's full run grid out through the runner's sweep engine.

    With ``jobs > 1`` the grid simulates in parallel; with a result cache
    attached, previously-completed points load from disk.  Either way the
    serial figure code below each call then reads every run from the
    runner's memory cache, so result values and ordering are identical to
    the pure-serial path.  Failures are deliberately not raised here —
    the runner keeps each one, and the ``runner.run`` call that needs the
    point raises it without simulating it again.

    Every grid lists the runs of one trace (benchmark × software scheme)
    back to back: the trace memo holds only the last workload, so an
    interleaved grid would regenerate traces.
    """
    warm = getattr(runner, "warm", None)
    if warm is not None:
        warm(requests)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------


def table3(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> List[Dict]:
    """Table III: benchmark characteristics (ours vs. paper)."""
    rows = []
    _warm(runner, [
        {"benchmark": name, "perfect_memory": pmem}
        for name in _benchmarks(subset)
        for pmem in (False, True)
    ])
    for name in _benchmarks(subset):
        spec = get_benchmark(name, scale=runner.scale)
        base = runner.run(name)
        pmem = runner.run(name, perfect_memory=True)
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
    names = list(subset) if subset else list(COMPUTE_BENCHMARKS)
    rows = []
    _warm(runner, [
        {"benchmark": name, **kwargs}
        for name in names
        for kwargs in ({}, {"perfect_memory": True}, {"hardware": "mt-hwp"})
    ])
    for name in names:
        base = runner.run(name)
        pmem = runner.run(name, perfect_memory=True)
        hwp = runner.run(name, hardware="mt-hwp")
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
    rows = []
    _warm(runner, [
        {"benchmark": name, **kwargs}
        for name in _benchmarks(subset)
        for kwargs in ({}, {"software": "mt-swp"})
    ])
    for name in _benchmarks(subset):
        base = runner.run(name)
        pref = runner.run(name, software="mt-swp")
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
    rows = []
    _warm(runner, [
        {"benchmark": name, "software": scheme}
        for name in _benchmarks(subset)
        for scheme in ("none",) + FIG10_SCHEMES
    ])
    for name in _benchmarks(subset):
        entry = {"benchmark": name}
        for scheme in FIG10_SCHEMES:
            entry[scheme] = runner.speedup(name, software=scheme)
        rows.append(entry)
    means = {
        scheme: geometric_mean(row[scheme] for row in rows) for scheme in FIG10_SCHEMES
    }
    return {"rows": rows, "geomean": means}


def figure11(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 11: MT-SWP with adaptive throttling."""
    schemes = (
        ("register", False),
        ("stride", False),
        ("mt-swp", False),
        ("mt-swp", True),
    )
    rows = []
    _warm(runner, [
        {"benchmark": name, "software": sw, "throttle": t}
        for name in _benchmarks(subset)
        for sw, t in (("none", False),) + schemes
    ])
    for name in _benchmarks(subset):
        entry = {"benchmark": name}
        for software, throttle in schemes:
            label = software + ("+T" if throttle else "")
            entry[label] = runner.speedup(name, software=software, throttle=throttle)
        rows.append(entry)
    labels = [s + ("+T" if t else "") for s, t in schemes]
    means = {label: geometric_mean(row[label] for row in rows) for label in labels}
    return {"rows": rows, "geomean": means}


def figure12(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fig. 12: early-prefetch ratio and normalized bandwidth, MT-SWP vs +T."""
    rows = []
    _warm(runner, [
        {"benchmark": name, **kwargs}
        for name in _benchmarks(subset)
        for kwargs in (
            {}, {"software": "mt-swp"}, {"software": "mt-swp", "throttle": True},
        )
    ])
    for name in _benchmarks(subset):
        base = runner.run(name)
        swp = runner.run(name, software="mt-swp")
        swp_t = runner.run(name, software="mt-swp", throttle=True)
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
    naive_rows, wid_rows = [], []
    _warm(runner, [
        {"benchmark": name, "hardware": hw}
        for name in _benchmarks(subset)
        for hw in ("none",) + tuple(
            p + suffix for p in FIG13_PREFETCHERS for suffix in ("", "_wid")
        )
    ])
    for name in _benchmarks(subset):
        naive = {"benchmark": name}
        wid = {"benchmark": name}
        for pref in FIG13_PREFETCHERS:
            naive[pref] = runner.speedup(name, hardware=pref)
            wid[pref] = runner.speedup(name, hardware=pref + "_wid")
        naive_rows.append(naive)
        wid_rows.append(wid)
    return {
        "naive": naive_rows,
        "warp_id": wid_rows,
        "geomean_naive": {
            p: geometric_mean(r[p] for r in naive_rows) for p in FIG13_PREFETCHERS
        },
        "geomean_warp_id": {
            p: geometric_mean(r[p] for r in wid_rows) for p in FIG13_PREFETCHERS
        },
    }


def figure14(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 14: MT-HWP table ablation (GHB vs PWS vs +GS vs +IP vs all)."""
    rows = []
    _warm(runner, [
        {"benchmark": name, "hardware": hw}
        for name in _benchmarks(subset)
        for hw in ("none",) + FIG14_CONFIGS
    ])
    for name in _benchmarks(subset):
        entry = {"benchmark": name}
        for scheme in FIG14_CONFIGS:
            entry[scheme] = runner.speedup(name, hardware=scheme)
        rows.append(entry)
    means = {s: geometric_mean(r[s] for r in rows) for s in FIG14_CONFIGS}
    return {"rows": rows, "geomean": means}


def figure15(runner: ExperimentRunner, subset: Optional[Sequence[str]] = None) -> Dict:
    """Fig. 15: throttling/feedback for hardware prefetchers."""
    rows = []
    labels = [h + ("+T" if t else "") for h, t in FIG15_SCHEMES]
    _warm(runner, [
        {"benchmark": name, "hardware": hw, "throttle": t}
        for name in _benchmarks(subset)
        for hw, t in (("none", False),) + FIG15_SCHEMES
    ])
    for name in _benchmarks(subset):
        entry = {"benchmark": name}
        for (hardware, throttle), label in zip(FIG15_SCHEMES, labels):
            entry[label] = runner.speedup(name, hardware=hardware, throttle=throttle)
        rows.append(entry)
    means = {label: geometric_mean(r[label] for r in rows) for label in labels}
    return {"rows": rows, "geomean": means}


# ----------------------------------------------------------------------
# Sensitivity studies (Figs. 16, 17, 18)
# ----------------------------------------------------------------------


def figure16(
    runner: ExperimentRunner,
    subset: Optional[Sequence[str]] = None,
    sizes_kb: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> Dict:
    """Fig. 16: sensitivity to prefetch cache size (geomean speedup)."""
    schemes = (
        ("none", "mt-hwp", False, "MT-HWP"),
        ("none", "mt-hwp", True, "MT-HWP+T"),
        ("mt-swp", "none", False, "MT-SWP"),
        ("mt-swp", "none", True, "MT-SWP+T"),
    )
    names = _benchmarks(subset)
    result: Dict[str, Dict[int, float]] = {label: {} for *_, label in schemes}
    configs = {
        size: baseline_config(
            prefetch_cache=PrefetchCacheConfig(size_bytes=size * 1024)
        )
        for size in sizes_kb
    }
    _warm(runner, [
        {"benchmark": name, "software": sw, "hardware": hw, "throttle": t,
         "config": configs[size]}
        for name in names
        for sw, hw, t in (
            ("none", "none", False),
        ) + tuple(s[:3] for s in schemes)
        for size in sizes_kb
    ])
    for size, cfg in configs.items():
        for software, hardware, throttle, label in schemes:
            speedups = [
                runner.speedup(
                    name, software=software, hardware=hardware,
                    throttle=throttle, config=cfg,
                )
                for name in names
            ]
            result[label][size] = geometric_mean(speedups)
    return result


def figure17(
    runner: ExperimentRunner,
    subset: Optional[Sequence[str]] = None,
    distances: Sequence[int] = (1, 3, 5, 7, 9, 11, 13, 15),
) -> Dict:
    """Fig. 17: sensitivity of MT-HWP to prefetch distance."""
    names = _benchmarks(subset)
    rows = []
    _warm(runner, [
        {"benchmark": name, **kwargs}
        for name in names
        for kwargs in [{}] + [
            {"hardware": "mt-hwp", "distance": d} for d in distances
        ]
    ])
    for name in names:
        entry = {"benchmark": name}
        for distance in distances:
            entry[distance] = runner.speedup(name, hardware="mt-hwp", distance=distance)
        rows.append(entry)
    means = {d: geometric_mean(r[d] for r in rows) for d in distances}
    return {"rows": rows, "geomean": means}


def figure18(
    runner: ExperimentRunner,
    subset: Optional[Sequence[str]] = None,
    core_counts: Sequence[int] = (8, 10, 12, 14, 16, 18, 20),
) -> Dict:
    """Fig. 18: sensitivity to the number of cores (DRAM bandwidth fixed)."""
    schemes = (
        ("none", "mt-hwp", False, "MT-HWP"),
        ("none", "mt-hwp", True, "MT-HWP+T"),
        ("mt-swp", "none", False, "MT-SWP"),
        ("mt-swp", "none", True, "MT-SWP+T"),
    )
    names = _benchmarks(subset)
    result: Dict[str, Dict[int, float]] = {label: {} for *_, label in schemes}
    configs = {cores: baseline_config(num_cores=cores) for cores in core_counts}
    _warm(runner, [
        {"benchmark": name, "software": sw, "hardware": hw, "throttle": t,
         "config": configs[cores]}
        for name in names
        for sw, hw, t in (
            ("none", "none", False),
        ) + tuple(s[:3] for s in schemes)
        for cores in core_counts
    ])
    for cores, cfg in configs.items():
        for software, hardware, throttle, label in schemes:
            speedups = [
                runner.speedup(
                    name, software=software, hardware=hardware,
                    throttle=throttle, config=cfg,
                )
                for name in names
            ]
            result[label][cores] = geometric_mean(speedups)
    return result
