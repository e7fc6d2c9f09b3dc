"""Performance benchmark harness for the simulator hot path.

Answers one question reproducibly: *how many simulated cycles per
wall-clock second does the simulator sustain on a fixed workload
subset?*  That number gates every figure sweep, so it is tracked like a
statistic: ``python -m repro perf`` runs the subset, writes a
``BENCH_perf.json`` document (schema below), and can compare the fresh
measurement against a committed baseline, failing on regression — which
is exactly what the CI perf-smoke job does.

The measured region is :meth:`repro.sim.gpu.GpuSimulator.run` only
(timed by an attached :class:`~repro.sim.profiling.SimProfiler`); trace
generation and workload setup are excluded, so the number moves only
when the simulator itself does.

Document schema (``PERF_SCHEMA``)::

    {
      "schema": 1,
      "generated": "<ISO-8601 absolute date, supplied by the caller>",
      "machine": {"platform": ..., "python": ..., "cpu_count": ...},
      "quick": false,
      "runs": [{"benchmark": ..., "hardware": ..., "software": ...,
                "throttle": ..., "scale": ..., "cycles": ...,
                "wall_seconds": ..., "sim_cycles_per_sec": ...,
                "phases_wall_seconds": {"issue": ..., ...}}, ...],
      "totals": {"cycles": ..., "wall_seconds": ...,
                 "sim_cycles_per_sec": ..., "peak_rss_kb": ...,
                 "phases_wall_seconds": {"issue": ..., ...}},
      "history": [{"label": ..., "generated": ..., "totals": {...}}, ...]
    }

``phases_wall_seconds`` holds the run loop's phase timers
(:data:`~repro.sim.profiling.PHASES`) of each run's timed repetition,
and their sums in ``totals``; a history entry keeps its totals, so it
shows which loop phase moved between two labelled measurements.

The absolute timestamp and machine description are *passed in* by the
harness entry points (CLI / pytest); nothing on the simulation path
reads the clock or the host configuration, keeping simulated results
bit-reproducible.

This harness answers "how fast is the simulator"; for "what did the
simulated machine do over time" attach the windowed-metrics recorder
(``--metrics-dir`` / :mod:`repro.sim.telemetry`) instead — the CI
perf-smoke job does both, running this subset as the throughput gate and
a quick metrics-enabled sweep to schema-validate the emitted documents.
OBSERVABILITY.md maps out all three observer layers.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.harness import supervise
from repro.harness.runner import HARDWARE_SCHEMES, _simulate, make_spec
from repro.sim.artifacts import atomic_write_json
from repro.sim.profiling import PHASES, SimProfiler
from repro.trace.benchmarks import get_benchmark

#: Schema tag embedded in every emitted BENCH_perf document.
PERF_SCHEMA = 1

#: The full fixed benchmark subset (mirrors the determinism golden set:
#: a no-prefetch baseline, both MT-aware schemes, a table-heavy hardware
#: prefetcher, and two throttled runs).
PERF_SPECS = (
    {"benchmark": "monte", "software": "none", "hardware": "none", "scale": 0.5},
    {"benchmark": "monte", "software": "none", "hardware": "mt-hwp", "scale": 0.5},
    {"benchmark": "stream", "software": "none", "hardware": "stride_pc_wid", "scale": 0.5},
    {"benchmark": "bfs", "software": "mt-swp", "hardware": "none", "scale": 0.5},
    {"benchmark": "cell", "software": "stride", "hardware": "none",
     "throttle": True, "scale": 0.25},
    {"benchmark": "backprop", "software": "none", "hardware": "mt-hwp",
     "throttle": True, "scale": 0.25},
)

#: The sub-second subset used by ``perf --quick`` (CI smoke).
QUICK_SPECS = (PERF_SPECS[0], PERF_SPECS[4], PERF_SPECS[5])


def machine_info() -> Dict[str, object]:
    """Host description embedded in perf documents (no simulation use)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def _measure_one(request: Dict[str, object], repeats: int) -> Dict[str, object]:
    """Run one spec ``repeats`` times; report the best (min-wall) timing."""
    spec = make_spec(**request)
    kernel = get_benchmark(spec.benchmark, scale=spec.scale)
    builder = HARDWARE_SCHEMES[spec.hardware]
    best: Optional[SimProfiler] = None
    for _ in range(max(1, repeats)):
        profiler = SimProfiler()
        profiler.benchmark = spec.benchmark
        _simulate(
            kernel, spec.software, builder, spec.distance, spec.degree,
            spec.config, spec.throttle, spec.perfect_memory, strict=True,
            profiler=profiler,
        )
        if best is None or profiler.wall_seconds < best.wall_seconds:
            best = profiler
    return {
        "benchmark": spec.benchmark,
        "software": request.get("software", "none"),
        "hardware": spec.hardware,
        "throttle": spec.throttle,
        "scale": spec.scale,
        "cycles": best.cycles,
        "wall_seconds": round(best.wall_seconds, 6),
        "sim_cycles_per_sec": round(best.sim_cycles_per_sec, 1),
        "phases_wall_seconds": {
            phase: round(best.wall[phase], 6) for phase in PHASES
        },
    }


def run_perf(
    quick: bool = False,
    repeats: int = 1,
    generated: str = "",
    machine: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Measure the fixed subset and return a BENCH_perf document.

    Args:
        quick: Use :data:`QUICK_SPECS` (sub-second; the CI smoke set)
            instead of the full :data:`PERF_SPECS`.
        repeats: Timed repetitions per spec; the fastest run is kept
            (standard best-of-N to suppress scheduler noise).
        generated: Absolute ISO-8601 timestamp recorded in the document.
            Supplied by the caller so no simulation-adjacent code reads
            the clock.
        machine: Host description; defaults to :func:`machine_info`.
    """
    specs = QUICK_SPECS if quick else PERF_SPECS
    runs = [_measure_one(dict(request), repeats) for request in specs]
    total_cycles = sum(r["cycles"] for r in runs)
    total_wall = sum(r["wall_seconds"] for r in runs)
    return {
        "schema": PERF_SCHEMA,
        "generated": generated,
        "machine": machine if machine is not None else machine_info(),
        "quick": bool(quick),
        "repeats": max(1, repeats),
        "runs": runs,
        "totals": {
            "cycles": total_cycles,
            "wall_seconds": round(total_wall, 6),
            "sim_cycles_per_sec": round(total_cycles / total_wall, 1)
            if total_wall > 0 else 0.0,
            "peak_rss_kb": supervise.peak_rss_kb(),
            "phases_wall_seconds": {
                phase: round(sum(r["phases_wall_seconds"][phase] for r in runs), 6)
                for phase in PHASES
            },
        },
        "history": [],
    }


def check_regression(
    doc: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float = 0.30,
) -> Optional[str]:
    """Compare a fresh perf document against a committed baseline.

    Returns ``None`` when throughput is within ``max_regression``
    (fractional slowdown) of the baseline's
    ``totals.sim_cycles_per_sec``, else a human-readable failure
    message.  A missing/zero baseline passes (nothing to compare).
    """
    base_rate = (baseline.get("totals") or {}).get("sim_cycles_per_sec", 0.0)
    rate = (doc.get("totals") or {}).get("sim_cycles_per_sec", 0.0)
    if not base_rate:
        return None
    floor = base_rate * (1.0 - max_regression)
    if rate < floor:
        return (
            f"perf regression: {rate:,.0f} sim-cycles/sec is more than "
            f"{max_regression:.0%} below the baseline {base_rate:,.0f} "
            f"(floor {floor:,.0f})"
        )
    return None


def merge_history(
    doc: Dict[str, object],
    previous: Optional[Dict[str, object]],
    label: str,
) -> Dict[str, object]:
    """Append this measurement to the baseline's history and return ``doc``.

    The committed ``BENCH_perf.json`` keeps one history entry per labeled
    measurement (e.g. ``"seed (pre-PR3)"``, ``"optimized (PR3)"``) so the
    before/after record survives later regenerations.
    """
    history: List[Dict[str, object]] = []
    if previous:
        history = list(previous.get("history") or [])
    history = [h for h in history if h.get("label") != label]
    history.append({
        "label": label,
        "generated": doc.get("generated", ""),
        "quick": doc.get("quick", False),
        "totals": doc.get("totals", {}),
    })
    doc["history"] = history
    return doc


def load_document(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Read a BENCH_perf document, or None when absent/corrupt."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def write_document(doc: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write a BENCH_perf document as stable, diff-friendly JSON.

    The write is atomic (temp file + ``os.replace``, the result-cache
    pattern): ``BENCH_perf.json`` is a committed artifact, and a crash
    mid-write must leave the previous intact document, not a torn one.
    """
    return atomic_write_json(
        path, doc, indent=2, sort_keys=True, trailing_newline=True
    )


def format_summary(doc: Dict[str, object]) -> str:
    """Render a perf document as the CLI's human-readable table."""
    lines = [
        f"{'benchmark':<10} {'hw':<14} {'sw':<8} {'cycles':>9} "
        f"{'wall s':>8} {'cyc/s':>10}"
    ]
    for run in doc["runs"]:
        lines.append(
            f"{run['benchmark']:<10} {run['hardware']:<14} "
            f"{run['software']:<8} {run['cycles']:>9} "
            f"{run['wall_seconds']:>8.3f} {run['sim_cycles_per_sec']:>10,.0f}"
        )
    totals = doc["totals"]
    lines.append(
        f"{'TOTAL':<10} {'':<14} {'':<8} {totals['cycles']:>9} "
        f"{totals['wall_seconds']:>8.3f} {totals['sim_cycles_per_sec']:>10,.0f}"
    )
    lines.append(f"peak RSS: {totals['peak_rss_kb']} KB")
    return "\n".join(lines)


def timestamp_now() -> str:
    """Absolute ISO-8601 UTC timestamp (harness boundary only)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
