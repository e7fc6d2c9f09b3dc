"""Opt-in performance profiling for the simulator's cycle loop.

The event-accelerated main loop (:meth:`repro.sim.gpu.GpuSimulator.run`)
is the hot path behind every figure sweep, so knowing where its wall
clock goes — and which components are active in which simulated cycles —
is a prerequisite for optimizing it.  :class:`SimProfiler` is a
lightweight observer the loop consults only when attached: a run without
a profiler pays a single ``is None`` branch per loop phase, and a run
with one pays two ``perf_counter()`` calls per phase.

Two complementary views are collected:

* **Wall-clock phase timers** — seconds of host time spent in each loop
  phase (``deliver_responses``, ``deliver_requests``, ``dram``,
  ``throttle``, ``dispatch``, ``issue``, ``inject``, ``invariants``,
  ``event_skip``) plus the prefetcher's table-lookup time, so the
  measured profile mirrors the loop structure one-to-one.
* **Simulated-cycle attribution** — for each component, the number of
  *simulated* loop iterations in which it did any work (a response
  delivered, a DRAM entry completed, an instruction issued, a request
  injected), which is the simulated-time analogue the paper uses when
  attributing stall cycles to pipeline stages.

Typical use::

    profiler = SimProfiler()
    sim = GpuSimulator(config, factory, profiler=profiler)
    sim.load_workload(blocks, max_blocks)
    result = sim.run()
    profiler.write("profile.json")

or, from the CLI, ``python -m repro run monte --profile DIR`` (the sweep
engine writes one ``<benchmark>-<fingerprint>.json`` per executed run
into ``DIR``; see :mod:`repro.harness.sweep`).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, Optional, Union

#: Schema tag embedded in every emitted profile document.
PROFILE_SCHEMA = 1

#: Environment variable naming the directory run profiles are written
#: into.  Mirrors ``$REPRO_INVARIANTS``: the CLI exports it before the
#: sweep engine forks workers, so pooled runs profile exactly like
#: inline ones.
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"


def profile_dir_from_env() -> Optional[Path]:
    """Directory named by ``$REPRO_PROFILE_DIR``, or None when unset/empty."""
    value = os.environ.get(PROFILE_DIR_ENV, "").strip()
    return Path(value) if value else None

#: Wall-clock phase names, in main-loop order.  ``SimProfiler.wall`` is
#: pre-populated with these so downstream consumers see a stable key set
#: even for phases a particular run never exercised.
PHASES = (
    "deliver_responses",
    "deliver_requests",
    "dram",
    "throttle",
    "dispatch",
    "issue",
    "inject",
    "invariants",
    "event_skip",
    "prefetcher",
)

#: Simulated-cycle activity component names (see module docstring).
COMPONENTS = (
    "core_issue",
    "mrq_inject",
    "interconnect_response",
    "interconnect_request",
    "dram",
)


class SimProfiler:
    """Collects per-phase wall time and per-component cycle activity.

    One profiler instruments one :class:`~repro.sim.gpu.GpuSimulator`
    run.  The simulator drives it: the main loop accumulates into
    :attr:`wall` and :attr:`active_cycles` directly (plain dict writes —
    no method-call overhead on the hot path) and calls :meth:`start` /
    :meth:`finish` around the run.  All times are
    :func:`time.perf_counter` seconds.
    """

    __slots__ = (
        "wall",
        "active_cycles",
        "counts",
        "loop_iterations",
        "cycles",
        "wall_seconds",
        "benchmark",
        "_run_t0",
    )

    #: Snapshots carry the accumulated counters, so a resumed run's final
    #: profile spans both processes; ``_run_t0`` is a host-clock anchor
    #: :meth:`start` resets, so it is not stored.
    snapshot_static = ("_run_t0",)

    def __init__(self) -> None:
        self.wall: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.active_cycles: Dict[str, int] = {c: 0 for c in COMPONENTS}
        self.counts: Dict[str, int] = {
            "prefetcher_lookups": 0,
            # Aggregate LRU-table pressure across every core's prefetcher
            # (summed from the tables at the end of the run): how many
            # table probes training performed and how many found an entry.
            "table_lookups": 0,
            "table_hits": 0,
        }
        self.loop_iterations = 0
        self.cycles = 0
        self.wall_seconds = 0.0
        self.benchmark = ""
        self._run_t0 = 0.0

    # -- run lifecycle (driven by GpuSimulator.run) --------------------

    def start(self) -> None:
        """Mark the beginning of the instrumented run."""
        self._run_t0 = time.perf_counter()

    def finish(self, cycles: int) -> None:
        """Mark the end of the run; records total wall time and cycles."""
        self.wall_seconds += time.perf_counter() - self._run_t0
        self.cycles = cycles

    # -- derived metrics ------------------------------------------------

    @property
    def sim_cycles_per_sec(self) -> float:
        """Simulated cycles per wall-clock second (the headline metric)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def cycles_skipped(self) -> int:
        """Simulated cycles the event-accelerated loop never iterated.

        The loop simulates one iteration per *eventful* cycle and jumps
        over stretches where nothing can happen; this is the total
        length of those jumped stretches.
        """
        return max(0, self.cycles - self.loop_iterations)

    def to_dict(self) -> Dict[str, object]:
        """Serialize the profile as a plain-JSON document."""
        measured = sum(self.wall[p] for p in PHASES if p != "prefetcher")
        return {
            "schema": PROFILE_SCHEMA,
            "benchmark": self.benchmark,
            "cycles": self.cycles,
            "loop_iterations": self.loop_iterations,
            "cycles_skipped": self.cycles_skipped,
            "wall_seconds": self.wall_seconds,
            "sim_cycles_per_sec": self.sim_cycles_per_sec,
            "phases_wall_seconds": {p: self.wall[p] for p in PHASES},
            "phases_wall_fraction": {
                p: (self.wall[p] / self.wall_seconds if self.wall_seconds else 0.0)
                for p in PHASES
            },
            "loop_overhead_seconds": max(0.0, self.wall_seconds - measured),
            "active_cycles": dict(self.active_cycles),
            "counts": dict(self.counts),
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the profile JSON to ``path`` (parents created); returns it.

        The write is atomic (temp file + ``os.replace``, the result-cache
        pattern) so a crash mid-write can never leave a torn profile.
        """
        from repro.sim.checkpoint import atomic_write_json

        return atomic_write_json(path, self.to_dict(), indent=2)

    def summary(self) -> str:
        """One-paragraph human-readable profile summary (CLI output)."""
        doc = self.to_dict()
        lines = [
            f"profile: {self.cycles} cycles in {self.wall_seconds:.3f}s "
            f"({self.sim_cycles_per_sec:,.0f} cycles/s), "
            f"{self.loop_iterations} loop iterations "
            f"({self.cycles_skipped} cycles skipped)",
        ]
        fractions = doc["phases_wall_fraction"]
        ranked = sorted(fractions.items(), key=lambda kv: -kv[1])
        parts = [f"{name} {frac:.1%}" for name, frac in ranked if frac > 0.005]
        lines.append("  wall: " + ", ".join(parts) if parts else "  wall: (idle)")
        active = ", ".join(
            f"{name} {count}" for name, count in sorted(self.active_cycles.items())
        )
        lines.append("  active cycles: " + active)
        return "\n".join(lines)
