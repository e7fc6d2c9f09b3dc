"""Windowed in-run metrics: the simulator's time-series observer.

:class:`~repro.sim.stats.SimStats` answers "what happened over the whole
run" and :class:`~repro.sim.profiling.SimProfiler` answers "where did the
host's wall clock go"; neither can answer *when* — yet the paper's
arguments are temporal (merge ratios ramp as warps interleave, Eq. 6; the
throttle reacts per period, Table I; Fig. 12's early bandwidth consumption
is a time-series claim).  :class:`MetricsRecorder` closes that gap: an
opt-in observer, an entry of :attr:`GpuSimulator.hooks
<repro.sim.gpu.GpuSimulator.hooks>` (a run without one pays nothing for
it: the loop's one due-cycle test per iteration serves every hook), that
samples a fixed schema of counters on a nominal cadence of
``interval`` simulated cycles (default
:data:`~repro.sim.artifacts.DEFAULT_METRICS_INTERVAL`)
and folds each sample into a bounded ring of *window* records.

The recorder is the simulator's first run-loop hook (it rides the same
safe loop-top point as checkpointing, just before it): it fires at the
top of the first loop iteration at or past each interval boundary.  The
event-accelerated loop only iterates on eventful cycles, so a window's
actual span can exceed the nominal interval; every window therefore
records its exact ``[start, end)`` cycle range.
Boundaries are deliberately *not* made event candidates — forcing extra
loop iterations would perturb stall accounting, and the recorder must
never change simulated behaviour (the telemetry suite asserts a
metrics-enabled run's stats are bit-identical to an unobserved one).

Each window carries two kinds of series:

* **Delta counters** (:data:`COUNTERS`) — exact integer differences of
  cumulative machine counters across the window: instructions issued,
  warps retired, stall cycles, MRQ traffic, intra-/inter-core merges,
  DRAM lines transferred (the bandwidth series) and row hits/misses,
  and the prefetch ledger (issued/merged/dropped/useful/late).  Because every window is a delta
  of the same cumulative snapshots, the per-counter sum over all windows
  reconciles *exactly* with the final :class:`~repro.sim.stats.SimStats`
  — no sampling loss, ever.
* **Gauges** (:data:`GAUGES`) — instantaneous occupancies read at the
  window's closing sample: MRQ entries and full cores, interconnect
  in-flight requests/responses, buffered DRAM transactions, warps
  resident/blocked-on-memory, and the throttle state.  The paper's
  throttle limits *prefetch issue* (degree 0..5), not active warps, so
  the "throttle limit" series here is ``throttle_degree_max`` plus the
  admitted fraction ``throttle_keep_fraction_min`` (degree 2 of 5 keeps
  3/5 of prefetch requests).

The ring is bounded (:data:`DEFAULT_MAX_WINDOWS`): when full, the oldest
window is dropped and ``windows_dropped`` is incremented.  Running totals
are cumulative snapshots, so they stay exact no matter how many windows
age out.

The recorder rides in simulator checkpoints — the snapshot codec
(:mod:`repro.sim.checkpoint`) stores its window ring, the previous
cumulative snapshot the next delta is taken against, and the
already-advanced ``next_sample_cycle`` (recomputing that from the resume
cycle would re-sample the checkpoint boundary and fork the series) — so
a killed-and-resumed run replays its remaining samples at the same
cycles with the same deltas, producing a bit-identical window series.

Typical use::

    recorder = MetricsRecorder(interval=1000)
    sim = GpuSimulator(config, factory, metrics=recorder)
    sim.load_workload(blocks, max_blocks)
    sim.run()
    recorder.write("run.metrics.json")

or, from the CLI, ``python -m repro run monte --metrics-dir DIR`` (the
directory travels to every run in its
:class:`~repro.harness.sweep.RunOptions`, and every executed run writes
``<benchmark>-<fingerprint[:12]>.metrics.json`` into DIR, the same key
prefix as cached results, profiles and checkpoints),
then ``python -m repro report DIR/monte-<fp>.metrics.json`` to render the
document.  See OBSERVABILITY.md for how the three observer layers fit
together.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.sim.artifacts import DEFAULT_METRICS_INTERVAL, atomic_write_json

#: Schema tag embedded in every emitted metrics document.
METRICS_SCHEMA = 1

#: Ring bound: maximum retained window records per run.  Oldest windows
#: are dropped (and counted) beyond this; totals remain exact.
DEFAULT_MAX_WINDOWS = 4096

#: Per-window delta counters, in document order.  Each is an exact
#: integer difference of a cumulative machine counter across the window,
#: so sums over windows reconcile with run totals without sampling loss.
COUNTERS = (
    "instructions",
    "warps_retired",
    "stall_cycles",
    "mrq_requests",
    "intra_core_merges",
    "inter_core_merges",
    "dram_lines",
    "dram_row_hits",
    "dram_row_misses",
    "prefetches_issued",
    "prefetches_merged",
    "prefetches_dropped",
    "prefetches_useful",
    "prefetches_late",
    "throttle_drops",
)

#: Instantaneous occupancy gauges read at each window's closing sample.
GAUGES = (
    "mrq_occupancy",
    "mrq_full_cores",
    "icnt_requests_in_flight",
    "icnt_responses_in_flight",
    "dram_buffered_requests",
    "warps_active",
    "warps_blocked_on_memory",
    "throttle_degree_max",
    "throttle_keep_fraction_min",
)

#: Counter -> :class:`~repro.sim.stats.SimStats` field carrying the same
#: quantity.  The recorder reads these counters from the simulator's own
#: stats, so each run total is summed in one place.  Counters absent here
#: (``warps_retired``, ``prefetches_merged``, ``prefetches_dropped``,
#: ``throttle_drops``) have no aggregate SimStats field; the recorder
#: sums them from the per-core machine counters.
SIMSTATS_EQUIVALENTS = {
    "instructions": "instructions",
    "stall_cycles": "stall_cycles",
    "mrq_requests": "total_mrq_requests",
    "intra_core_merges": "intra_core_merges",
    "inter_core_merges": "inter_core_merges",
    "dram_lines": "dram_lines_transferred",
    "dram_row_hits": "dram_row_hits",
    "dram_row_misses": "dram_row_misses",
    "prefetches_issued": "prefetch_requests_issued",
    "prefetches_useful": "useful_prefetches",
    "prefetches_late": "late_prefetches",
}


class MetricsRecorder:
    """Bounded ring of windowed machine metrics for one simulator run.

    One recorder instruments one :class:`~repro.sim.gpu.GpuSimulator`
    run (or one checkpointed run across its interrupted and resumed
    processes).  The simulator drives it as its first run-loop hook: the
    main loop calls :meth:`sample` at the top of the first iteration at
    or past :attr:`next_sample_cycle`, and :meth:`finish` once the run
    completes, which closes the final (possibly partial) window so the
    series covers every simulated cycle exactly once.

    Args:
        interval: Nominal simulated cycles per window (>= 1).
        max_windows: Ring bound; the oldest window is dropped (and
            counted in :attr:`windows_dropped`) beyond this.
    """

    __slots__ = (
        "interval",
        "max_windows",
        "windows",
        "windows_dropped",
        "windows_emitted",
        "next_sample_cycle",
        "benchmark",
        "fingerprint",
        "cycles",
        "num_cores",
        "_prev",
        "_prev_cycle",
    )

    def __init__(
        self,
        interval: int = DEFAULT_METRICS_INTERVAL,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if interval < 1:
            raise ValueError(f"metrics interval must be >= 1 cycle, got {interval}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.interval = interval
        self.max_windows = max_windows
        self.windows: Deque[Dict[str, object]] = deque()
        self.windows_dropped = 0
        self.windows_emitted = 0
        self.next_sample_cycle = interval
        self.benchmark = ""
        self.fingerprint = ""
        self.cycles = 0
        self.num_cores = 0
        self._prev: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._prev_cycle = 0

    # -- sampling (driven by GpuSimulator.run) -------------------------

    @staticmethod
    def _snapshot(sim: object) -> Dict[str, int]:
        """Read the cumulative machine counters as a dict in
        :data:`COUNTERS` order.

        Every value is a monotonically non-decreasing run total; window
        deltas are differences of two such snapshots, which is what
        makes the per-window series reconcile exactly with the final
        stats.
        """
        stats = sim._collect_stats(sim.cycle)
        warps_retired = prefetches_merged = prefetches_dropped = 0
        throttle_drops = 0
        for core in sim.cores:
            mrq = core.mrq
            warps_retired += core.warps_retired
            prefetches_merged += mrq.total_prefetch_merged
            prefetches_dropped += core.prefetch_throttled + mrq.total_prefetch_dropped_full
            throttle_drops += core.throttle.total_dropped
        summed = {
            "warps_retired": warps_retired,
            "prefetches_merged": prefetches_merged,
            "prefetches_dropped": prefetches_dropped,
            "throttle_drops": throttle_drops,
        }
        return {
            name: summed[name] if name in summed
            else getattr(stats, SIMSTATS_EQUIVALENTS[name])
            for name in COUNTERS
        }

    @staticmethod
    def _gauges(sim: object) -> Dict[str, object]:
        """Read the instantaneous occupancy gauges (window-close state)."""
        mrq_occupancy = 0
        mrq_full_cores = 0
        warps_active = 0
        warps_blocked = 0
        degree_max = 0
        keep_min = 1.0
        for core in sim.cores:
            mrq_occupancy += len(core.mrq)
            if core.mrq.full:
                mrq_full_cores += 1
            warps_active += core.active_warp_count()
            warps_blocked += core.warps_blocked_on_memory()
            throttle = core.throttle
            if throttle.degree > degree_max:
                degree_max = throttle.degree
            keep = throttle.keep_fraction
            if keep < keep_min:
                keep_min = keep
        to_memory, to_core = sim.interconnect.inflight_counts()
        return {
            "mrq_occupancy": mrq_occupancy,
            "mrq_full_cores": mrq_full_cores,
            "icnt_requests_in_flight": to_memory,
            "icnt_responses_in_flight": to_core,
            "dram_buffered_requests": sim.dram.buffered_requests(),
            "warps_active": warps_active,
            "warps_blocked_on_memory": warps_blocked,
            "throttle_degree_max": degree_max,
            "throttle_keep_fraction_min": keep_min,
        }

    def _append_window(self, end_cycle: int, snap: Dict[str, int], gauges: Dict[str, object]) -> None:
        """Close the open window at ``end_cycle`` and push it onto the ring."""
        prev = self._prev
        span = end_cycle - self._prev_cycle
        delta_instructions = snap["instructions"] - prev["instructions"]
        cores = self.num_cores
        ipc = (
            delta_instructions / (span * cores) if span > 0 and cores > 0 else 0.0
        )
        record: Dict[str, object] = {
            "index": self.windows_emitted,
            "start": self._prev_cycle,
            "end": end_cycle,
            "cycles": span,
            "ipc": ipc,
        }
        for name in COUNTERS:
            record[name] = snap[name] - prev[name]
        record.update(gauges)
        if len(self.windows) >= self.max_windows:
            self.windows.popleft()
            self.windows_dropped += 1
        self.windows.append(record)
        self.windows_emitted += 1
        self._prev = snap
        self._prev_cycle = end_cycle

    def sample(self, sim: object) -> None:
        """Take one window sample at the simulator's current cycle.

        Called by the main loop at the top of the first iteration at or
        past :attr:`next_sample_cycle` (``sim.cycle`` is synced first).
        Advances :attr:`next_sample_cycle` to the next interval boundary
        strictly past the current cycle; that successor is serialized
        state, which is what keeps a resumed run's sample cycles — and
        therefore its window series — bit-identical to an uninterrupted
        one.
        """
        cycle = sim.cycle
        self.num_cores = sim.config.num_cores
        self._append_window(cycle, self._snapshot(sim), self._gauges(sim))
        self.next_sample_cycle = (cycle // self.interval + 1) * self.interval

    # The run-loop hook protocol (see GpuSimulator.hooks): the recorder
    # is its own hook, due at its serialized next_sample_cycle.

    @property
    def due_cycle(self) -> int:
        """Cycle the next sample is due (:attr:`next_sample_cycle`)."""
        return self.next_sample_cycle

    def fire(self, sim: object) -> None:
        """Take the due sample (looks :meth:`sample` up at call time)."""
        self.sample(sim)

    def finish(self, sim: object) -> None:
        """Close the final window at the end of a run.

        The loop can retire its last warps between the last boundary
        sample and loop exit, so the final window may span fewer cycles
        than the interval (or zero cycles with a nonzero delta, when
        counters advanced inside the exiting iteration).  A fully empty
        tail — no cycles elapsed, no counter moved — is not emitted.
        """
        cycle = sim.cycle
        self.num_cores = sim.config.num_cores
        self.cycles = cycle
        snap = self._snapshot(sim)
        if cycle > self._prev_cycle or snap != self._prev:
            self._append_window(cycle, snap, self._gauges(sim))

    # -- totals and documents ------------------------------------------

    @property
    def totals(self) -> Dict[str, int]:
        """Cumulative counter totals as of the last sample (exact)."""
        return dict(self._prev)

    def to_dict(self) -> Dict[str, object]:
        """Serialize the recorded series as a plain-JSON metrics document."""
        return {
            "schema": METRICS_SCHEMA,
            "benchmark": self.benchmark,
            "fingerprint": self.fingerprint,
            "interval": self.interval,
            "num_cores": self.num_cores,
            "cycles": self.cycles,
            "max_windows": self.max_windows,
            "windows_dropped": self.windows_dropped,
            "windows_emitted": self.windows_emitted,
            "windows": list(self.windows),
            "totals": self.totals,
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the metrics JSON to ``path`` (parents created); returns it.

        The write is atomic (temp file + ``os.replace``, the result-cache
        pattern) so a crash mid-write can never leave a torn document.  The
        JSON is compact: it goes through ``json``'s C encoder, which leaves
        no garbage for the cyclic collector (an ``indent`` would not).
        """
        return atomic_write_json(path, self.to_dict())


def validate_metrics_document(doc: object) -> Dict[str, object]:
    """Validate a metrics document against the schema; return it.

    Raises ``ValueError`` naming every problem found: wrong schema tag,
    missing or mistyped top-level fields, malformed or non-contiguous
    windows, and — the exactness contract — window deltas that fail to
    sum to the recorded totals when no window was dropped from the ring.
    CI runs this over every document a sweep emits.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        raise ValueError(f"metrics document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != METRICS_SCHEMA:
        problems.append(f"schema {doc.get('schema')!r} != {METRICS_SCHEMA}")
    for field, kind in (
        ("benchmark", str), ("fingerprint", str), ("interval", int),
        ("num_cores", int), ("cycles", int), ("max_windows", int),
        ("windows_dropped", int), ("windows_emitted", int),
        ("windows", list), ("totals", dict),
    ):
        value = doc.get(field)
        if not isinstance(value, kind) or isinstance(value, bool):
            problems.append(f"field {field!r} must be {kind.__name__}, got {value!r}")
    totals = doc.get("totals")
    if isinstance(totals, dict):
        for name in COUNTERS:
            value = totals.get(name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(f"totals[{name!r}] must be a non-negative int, got {value!r}")
    windows = doc.get("windows")
    if isinstance(windows, list):
        expected_start: Optional[int] = None
        for position, window in enumerate(windows):
            if not isinstance(window, dict):
                problems.append(f"windows[{position}] must be an object")
                continue
            for name in ("index", "start", "end", "cycles") + COUNTERS:
                value = window.get(name)
                if not isinstance(value, int) or isinstance(value, bool):
                    problems.append(
                        f"windows[{position}][{name!r}] must be int, got {value!r}"
                    )
            for name in ("ipc",) + GAUGES:
                if name not in window:
                    problems.append(f"windows[{position}] missing gauge {name!r}")
            start, end = window.get("start"), window.get("end")
            if isinstance(start, int) and isinstance(end, int):
                if end < start:
                    problems.append(f"windows[{position}] end {end} < start {start}")
                if expected_start is not None and start != expected_start:
                    problems.append(
                        f"windows[{position}] start {start} != previous end "
                        f"{expected_start} (series must be contiguous)"
                    )
                expected_start = end
        if (
            not problems
            and windows
            and doc.get("windows_dropped") == 0
        ):
            if windows[0]["start"] != 0:
                problems.append(
                    f"first window starts at {windows[0]['start']}, expected 0 "
                    "(no windows were dropped)"
                )
            for name in COUNTERS:
                total = sum(window[name] for window in windows)
                if total != totals.get(name):
                    problems.append(
                        f"sum of window deltas for {name!r} is {total}, totals "
                        f"record {totals.get(name)!r} (exactness violated)"
                    )
    if problems:
        raise ValueError(
            "invalid metrics document: " + "; ".join(problems)
        )
    return doc


#: Chrome-trace counter tracks: (track name, window keys stacked in it).
#: Related series share a track so Perfetto renders them stacked.
TRACE_TRACKS = (
    ("ipc", ("ipc",)),
    ("instructions", ("instructions",)),
    ("dram lines", ("dram_lines",)),
    ("dram row locality", ("dram_row_hits", "dram_row_misses")),
    ("mrq occupancy", ("mrq_occupancy",)),
    ("mrq traffic", ("mrq_requests", "intra_core_merges")),
    ("prefetches", (
        "prefetches_issued", "prefetches_merged", "prefetches_dropped",
        "prefetches_useful", "prefetches_late",
    )),
    ("interconnect", ("icnt_requests_in_flight", "icnt_responses_in_flight")),
    ("warps", ("warps_active", "warps_blocked_on_memory")),
    ("throttle degree", ("throttle_degree_max",)),
)


def to_chrome_trace(doc: Dict[str, object]) -> Dict[str, object]:
    """Convert a metrics document to the Chrome trace-event format.

    The result loads in ``chrome://tracing`` and Perfetto: one
    timestamp-microsecond equals one simulated cycle, each window is a
    duration ("X") event on the window track, and each
    :data:`TRACE_TRACKS` entry is a counter ("C") series sampled at
    every window boundary.
    """
    name = f"repro {doc['benchmark'] or '(run)'}"
    fingerprint = str(doc.get("fingerprint") or "")
    if fingerprint:
        name += f" [{fingerprint[:12]}]"
    events: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": name},
        }
    ]
    for window in doc["windows"]:
        start = window["start"]
        events.append({
            "name": f"window {window['index']}",
            "ph": "X",
            "cat": "window",
            "ts": start,
            "dur": max(1, window["cycles"]),
            "pid": 0,
            "tid": 0,
            "args": {"ipc": window["ipc"], "cycles": window["cycles"]},
        })
        for track, keys in TRACE_TRACKS:
            events.append({
                "name": track,
                "ph": "C",
                "cat": "metrics",
                "ts": window["end"],
                "pid": 0,
                "args": {key: window[key] for key in keys},
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": doc.get("schema"),
            "benchmark": doc.get("benchmark"),
            "fingerprint": fingerprint,
            "interval": doc.get("interval"),
            "cycles": doc.get("cycles"),
            "time_unit": "1 trace microsecond = 1 simulated cycle",
        },
    }
