"""Per-layer metrics of one traced sample.

Three sources, each the artifact its layer already writes or the span
the benchmark records around its public entry points:

* spans (``tracing.py``): host time and counts at every layer boundary;
* ``--profile`` documents (one per executed run): the simulation loop's
  phase times, iterations and per-component activity, and the
  prefetcher's time and table lookups;
* the sample's result cache: each run's ``SimStats``, for the simulated
  model's own ratios.

Self time is a span's duration minus what its same-process children
cover, so ``sim.run_s`` excludes the checkpoint writes, telemetry
samples and heartbeats made from inside the loop, and the phase times
of the profiles sum to it up to ``sim.loop_overhead_s``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sim.profiling import COMPONENTS, PHASES
from tracing import self_times, union_length

#: Loop phases that partition the profiled loop time.  ``prefetcher`` is
#: timed inside ``issue`` and is reported under the core layer instead.
LOOP_PHASES = tuple(p for p in PHASES if p != "prefetcher")

#: Phases that move requests through the memory system.
MEMORY_PHASES = ("deliver_responses", "deliver_requests", "dram", "inject")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def load_profiles(directory: Path) -> Tuple[List[dict], List[str]]:
    """Every ``--profile`` document in ``directory``, and the files of
    those that cannot be read.

    Dot-named files are the scratch files of interrupted writes.
    """
    docs, unreadable = [], []
    for path in sorted(directory.glob("[!.]*.json")):
        try:
            docs.append(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            unreadable.append(f"{path.name}: {exc!r}")
    return docs, unreadable


def model_metrics(stats: Iterable[dict]) -> Dict[str, float]:
    """The simulated machine's ratios over all runs (ratios of sums)."""
    runs = list(stats)

    def total(field: str) -> int:
        return sum(run[field] for run in runs)

    return {
        "model.cpi": _ratio(sum(r["cycles"] * r["num_cores"] for r in runs),
                            total("instructions")),
        "model.dram_row_hit_ratio": _ratio(
            total("dram_row_hits"),
            total("dram_row_hits") + total("dram_row_misses")),
        "model.pf_accuracy": _ratio(total("useful_prefetches"),
                                    total("prefetch_requests_issued")),
        "model.pf_coverage": _ratio(
            total("useful_prefetches"),
            total("demand_lines_to_memory") + total("prefetch_cache_hits")),
        "model.intra_core_merge_ratio": _ratio(total("intra_core_merges"),
                                               total("total_mrq_requests")),
    }


def profile_metrics(profiles: Sequence[dict], sim_run_s: float) -> Dict[str, float]:
    """Loop-phase, idle-poll and prefetcher metrics summed over runs.

    ``sim.loop_cycles_per_s`` is simulated cycles over profiled loop
    seconds, the definition of BENCH_perf.json's ``sim_cycles_per_sec``.
    """
    def total(key: str) -> float:
        return sum(doc[key] for doc in profiles)

    def nested(section: str, key: str) -> float:
        return sum(doc[section][key] for doc in profiles)

    iterations = total("loop_iterations")
    phases = {p: nested("phases_wall_seconds", p) for p in LOOP_PHASES}
    prefetcher = nested("phases_wall_seconds", "prefetcher")
    metrics = {f"sim.{p}_s": phases[p] for p in LOOP_PHASES if p != "invariants"}
    metrics.update({
        "sim.loop_cycles_per_s": _ratio(total("cycles"), total("wall_seconds")),
        "sim.loop_iterations": iterations,
        "sim.skip_ratio": _ratio(total("cycles_skipped"), total("cycles")),
        "sim.us_per_iteration": _ratio(sim_run_s * 1e6, iterations),
        "sim.loop_overhead_s": sim_run_s - sum(phases.values()),
        "sim.issue_share": _ratio(phases["issue"], sim_run_s),
        "sim.memory_share": _ratio(sum(phases[p] for p in MEMORY_PHASES), sim_run_s),
        "core.prefetcher_s": prefetcher,
        "core.prefetcher_share": _ratio(prefetcher, sim_run_s),
        "core.prefetcher_lookups": nested("counts", "prefetcher_lookups"),
        "core.table_lookups": nested("counts", "table_lookups"),
        "core.table_hit_ratio": _ratio(nested("counts", "table_hits"),
                                       nested("counts", "table_lookups")),
    })
    for component in COMPONENTS:
        active = nested("active_cycles", component)
        metrics[f"sim.idle.{component}"] = 1.0 - _ratio(active, iterations) \
            if iterations else 0.0
    return metrics


def pool_metrics(spans: Sequence[list], main_pid: int, jobs: int) -> Dict[str, float]:
    """Worker busy share and the gaps between a worker's runs.

    A worker's busy time is the duration of its root spans (one
    ``run_spec`` per run).  Utilization is busy time over ``jobs`` times
    the wall of the sweeps the workers served; a gap is the time from one
    run's end to the worker's next run's start.
    """
    roots: Dict[int, List[list]] = {}
    by_id = {span[0]: span for span in spans}
    for span in spans:
        parent = by_id.get(span[1])
        if span[6] != main_pid and (parent is None or parent[6] != span[6]):
            roots.setdefault(span[6], []).append(span)
    if not roots:
        return {"harness.pool_utilization": 0.0, "harness.worker_gap_ms": 0.0}
    worker_spans = [s for spans_ in roots.values() for s in spans_]
    first = min(s[3] for s in worker_spans)
    last = max(s[4] for s in worker_spans)
    sweeps = [(s[3], s[4]) for s in spans
              if s[6] == main_pid and s[2] == "harness.sweep"
              and s[3] <= last and s[4] >= first]
    busy = sum(s[4] - s[3] for s in worker_spans)
    gaps = []
    for worker in roots.values():
        worker.sort(key=lambda s: s[3])
        gaps += [b[3] - a[4] for a, b in zip(worker, worker[1:])]
    return {
        "harness.pool_utilization": _ratio(busy, jobs * union_length(sweeps)),
        "harness.worker_gap_ms": _ratio(sum(gaps) * 1e3, len(gaps)),
    }


def span_metrics(spans: Sequence[list], main_pid: int, launcher_start: float,
                 spawn: float, exit_: float) -> Dict[str, float]:
    """Host time and counts per layer from the sample's spans."""
    selfs = self_times(spans)
    wall = exit_ - spawn

    def named(name: str) -> List[list]:
        return [s for s in spans if s[2] == name]

    def self_sum(name: str) -> float:
        return sum(selfs[s[0]] for s in named(name))

    def attr_sum(name: str, key: str) -> float:
        return sum((s[7] or {}).get(key, 0) for s in named(name))

    run_specs = named("harness.run_spec")
    generate_calls = len(named("trace.generate"))
    interpreter = launcher_start - spawn
    # From the CLI's return to process exit: interpreter teardown.
    exit_s = exit_ - max(s[4] for s in spans if s[6] == main_pid)
    # Every span of the launcher process but the cli.main envelope is a
    # layer's; what they, start-up and teardown leave over is time
    # outside any named span.
    layered = sum(selfs[s[0]] for s in spans
                  if s[6] == main_pid and s[2] != "cli.main")
    return {
        "cli.interpreter_s": interpreter,
        "cli.import_s": self_sum("cli.import"),
        "cli.self_s": self_sum("cli.main"),
        "cli.exit_s": exit_s,
        "trace.get_benchmark_s": self_sum("trace.get_benchmark"),
        "trace.generate_s": self_sum("trace.generate"),
        "trace.generate_calls": generate_calls,
        "trace.memo_hit_ratio": 1.0 - _ratio(generate_calls, len(run_specs))
        if run_specs else 0.0,
        "trace.instructions": attr_sum("trace.generate", "instructions"),
        "sim.run_s": self_sum("sim.run"),
        "sim.load_workload_s": self_sum("sim.load_workload"),
        "harness.runs_executed": attr_sum("harness.sweep", "simulated"),
        "harness.runs_failed": attr_sum("harness.sweep", "failures"),
        "harness.runs_retried": attr_sum("harness.sweep", "retried"),
        "harness.run_overhead_ms": _ratio(
            sum(selfs[s[0]] for s in run_specs) * 1e3, len(run_specs)),
        "harness.sweep_self_s": self_sum("harness.sweep"),
        "harness.cache_put_s": self_sum("harness.cache_put"),
        "harness.cache_get_s": self_sum("harness.cache_get"),
        "harness.lease_s": self_sum("harness.lease"),
        "harness.manifest_s": self_sum("harness.manifest"),
        "harness.heartbeat_s": self_sum("harness.heartbeat"),
        "checkpoint.write_s": self_sum("checkpoint.write"),
        "checkpoint.writes": len(named("checkpoint.write")),
        "checkpoint.kb": attr_sum("checkpoint.write", "bytes") / 1024.0,
        "telemetry.sample_s": self_sum("telemetry.sample"),
        "telemetry.windows": len(named("telemetry.sample")),
        "telemetry.write_s": self_sum("telemetry.write"),
        "tracing.unattributed_ratio": _ratio(
            wall - interpreter - exit_s - layered, wall),
    }


def layer_metrics(spans: Sequence[list], launcher: dict, spawn: float,
                  exit_: float, jobs: int, profiles: Sequence[dict],
                  stats: Iterable[dict]) -> Dict[str, float]:
    """All per-layer metrics of one traced sample but ``tracing_overhead``."""
    metrics = span_metrics(spans, launcher["pid"], launcher["start"], spawn, exit_)
    metrics.update(profile_metrics(profiles, metrics["sim.run_s"]))
    metrics.update(pool_metrics(spans, launcher["pid"], jobs))
    metrics.update(model_metrics(stats))
    return metrics
